//! `top` for an InvaliDB pipeline: a live terminal dashboard fed entirely
//! by the admin endpoint.
//!
//! Starts a store + broker + cluster + app server with the admin plane
//! bound to an ephemeral port, generates a continuous workload, and then —
//! like any external monitoring agent would — polls `/metrics` over plain
//! HTTP, parses the Prometheus text exposition back into a
//! [`MetricsSnapshot`](invalidb::MetricsSnapshot), and renders the headline
//! numbers. Nothing in the rendering path touches in-process state: what
//! you see is exactly what a scrape sees.
//!
//! Run with: `cargo run --release --example invalidb_top [iterations]`
//!
//! **Cluster mode**: point it at a *running* coordinator's admin endpoint
//! instead of self-hosting a pipeline —
//! `cargo run --release --example invalidb_top -- --cluster 127.0.0.1:9465 [iterations]`.
//! It then renders the federated view: membership and failover state from
//! `/cluster`, and per-worker labeled series from the coordinator's
//! federated `/metrics` (parsed with
//! [`from_prometheus_federated`](invalidb::obs::from_prometheus_federated)).

use invalidb::client::{AppServer, AppServerConfig};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::obs::{from_prometheus, from_prometheus_federated};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Minimal HTTP/1.0 GET; returns (status code, body).
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((status, body))
}

/// Cluster mode: attach to a running coordinator's admin endpoint and
/// render the federated view — one line for the coordinator's own series,
/// one per worker from the `worker`-labeled series.
fn cluster_top(admin: SocketAddr, iterations: usize) {
    println!("invalidb_top --cluster: scraping http://{admin} ({iterations} frames)\n");
    for frame in 0..iterations {
        let (status, text) = http_get(admin, "/metrics").expect("scrape federated /metrics");
        assert_eq!(status, 200, "federated metrics endpoint must answer 200");
        let parts = from_prometheus_federated(&text).expect("parse federated exposition");
        let gauge =
            |snap: &invalidb::MetricsSnapshot, name: &str| snap.gauges.get(name).copied().unwrap_or(0);
        let counter =
            |snap: &invalidb::MetricsSnapshot, name: &str| snap.counters.get(name).copied().unwrap_or(0);
        if let Some(coord) = parts.get("") {
            println!(
                "frame {:>2}  epoch={} workers={} unassigned={} cached_subs={} last_mttr_ms={}",
                frame + 1,
                gauge(coord, "cluster.epoch"),
                gauge(coord, "cluster.workers_alive"),
                gauge(coord, "cluster.cells_unassigned"),
                gauge(coord, "cluster.cached_subscriptions"),
                gauge(coord, "cluster.failover_mttr_ms"),
            );
        }
        for (worker, snap) in &parts {
            if worker.is_empty() {
                continue;
            }
            println!(
                "          worker {worker}: epoch={} cells={} matched={} traced={} skew_clamped={}",
                gauge(snap, "worker.epoch"),
                gauge(snap, "worker.cells_hosted"),
                counter(snap, "matching.matched"),
                counter(snap, "ingress.traced_writes"),
                counter(snap, "trace.skew_clamped"),
            );
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    let (status, members) = http_get(admin, "/cluster").expect("scrape /cluster");
    assert_eq!(status, 200);
    println!("\ncluster membership: {members}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--cluster") {
        let admin: SocketAddr = args
            .get(2)
            .expect("--cluster needs the coordinator admin address")
            .parse()
            .expect("parse admin address");
        let iterations = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(10);
        cluster_top(admin, iterations);
        return;
    }
    let iterations: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(10);

    // Pipeline under observation, with the admin plane on an ephemeral port.
    let store = Arc::new(Store::new());
    let broker = invalidb::broker::Broker::new();
    let registry = invalidb::MetricsRegistry::new();
    let cluster = Cluster::start(
        broker.clone(),
        ClusterConfig {
            metrics: registry.clone(),
            admin_addr: Some("127.0.0.1:0".into()),
            ..ClusterConfig::new(2, 2)
        },
    );
    let admin = cluster.admin_addr().expect("admin endpoint bound");
    let app = AppServer::start(
        "top-demo",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig { metrics: registry.clone(), ..AppServerConfig::default() },
    );
    let _sub = app
        .subscribe(&QuerySpec::filter("sensors", doc! { "value" => doc! { "$gte" => 50i64 } }))
        .expect("subscribe");

    // Continuous workload on a background thread.
    let running = Arc::new(AtomicBool::new(true));
    let writer = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut i = 0i64;
            while running.load(Ordering::Relaxed) {
                let value = (i * 37) % 100;
                app.save("sensors", Key::of(i % 32), doc! { "value" => value }).ok();
                i += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    println!("invalidb_top: scraping http://{admin}/metrics ({iterations} frames)\n");
    for frame in 0..iterations {
        std::thread::sleep(Duration::from_millis(500));
        let (status, text) = http_get(admin, "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200, "metrics endpoint must answer 200");
        let snap = from_prometheus(&text).expect("parse exposition");
        let (health, _) = http_get(admin, "/healthz").expect("scrape /healthz");
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
        println!(
            "frame {:>2}  health={} ({})  matched={:<6} filtered={:<6} stale={:<4}",
            frame + 1,
            gauge("health.status"),
            if health == 200 { "200 ok" } else { "503" },
            counter("matching.matched"),
            counter("matching.filtered"),
            counter("matching.dropped_stale"),
        );
        println!(
            "          subs={} lag_us[0x0]={} queue[matching]={} delivered={}",
            gauge("appserver.active_subscriptions"),
            gauge("matching.0x0.ingest_lag_us"),
            gauge("cluster.matching.queue_depth"),
            counter("appserver.events_delivered"),
        );
        println!(
            "          index: indexed={} scanned={} eq_hits={} pred_hits={} shared_windows={}",
            gauge("matching.index.indexed_queries"),
            gauge("matching.index.scanned_queries"),
            counter("matching.index.eq_lane_hits"),
            counter("matching.index.pred_cache_hits"),
            gauge("matching.index.shared_windows"),
        );
    }

    // The most evaluated continuous queries, straight from /queries.
    let (status, queries) = http_get(admin, "/queries").expect("scrape /queries");
    assert_eq!(status, 200);
    println!("\nslow-query log: {queries}");

    running.store(false, Ordering::Relaxed);
    writer.join().expect("writer thread");
    cluster.shutdown();
    println!("\ndone: every number above came over the wire, not from process memory");
}
