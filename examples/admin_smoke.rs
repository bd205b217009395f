//! Admin-endpoint smoke runner for CI.
//!
//! Starts a full pipeline (store + broker + cluster + app server) with the
//! admin plane bound to a fixed address, keeps a light workload flowing,
//! and stays up for a bounded time so an external prober (`curl` in CI) can
//! scrape `/metrics` and `/healthz`.
//!
//! Run with: `cargo run --release --example admin_smoke [addr] [seconds]`
//! Defaults: `127.0.0.1:9464`, 30 seconds.

use invalidb::client::{AppServer, AppServerConfig};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:9464".into());
    let seconds: u64 = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(30);

    let store = Arc::new(Store::new());
    let broker = invalidb::broker::Broker::new();
    let registry = invalidb::MetricsRegistry::new();
    let cluster = Cluster::start(
        broker.clone(),
        ClusterConfig { metrics: registry.clone(), admin_addr: Some(addr), ..ClusterConfig::new(2, 2) },
    );
    let admin = cluster.admin_addr().expect("admin endpoint bound");
    let app = AppServer::start(
        "smoke",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig { metrics: registry, ..AppServerConfig::default() },
    );
    let _sub = app
        .subscribe(&QuerySpec::filter("events", doc! { "n" => doc! { "$gte" => 0i64 } }))
        .expect("subscribe");

    println!("admin endpoint ready at http://{admin}");
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0i64;
    while Instant::now() < deadline {
        app.save("events", Key::of(i % 16), doc! { "n" => i }).ok();
        i += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
    println!("admin smoke finished after {seconds}s ({i} writes)");
}
