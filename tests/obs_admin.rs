//! The operational plane over a real socket: golden round-trip of the
//! Prometheus exposition against the JSON snapshot, and the cluster
//! health model reacting to an induced network partition.
//!
//! Everything here observes the system the way an external operator
//! would — `GET` requests against the admin endpoint or a registry
//! snapshot — never by poking in-process state. The health scenario is
//! the runbook's promised arc: Healthy → Degraded (chaos proxy partitions
//! the broker link) → Healthy (partition heals, supervisor reconnects),
//! with the flight recorder holding the transitions and the reconnect in
//! order.

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::net::{
    BrokerServer, BrokerServerConfig, ChaosProxy, ChaosProxyConfig, RemoteBroker, RemoteBrokerConfig,
};
use invalidb::obs::from_prometheus;
use invalidb::store::Store;
use invalidb::{
    doc, AdminConfig, AdminServer, FlightEvent, FlightEventKind, HealthPolicy, Key, MetricsRegistry,
    MetricsSnapshot,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimal HTTP/1.0 GET; returns (status code, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to admin endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Polls `/healthz` until the report's status matches `want` (the body is
/// the `HealthReport` JSON, so the status string appears verbatim).
fn await_health(addr: SocketAddr, want: &str, deadline: Duration) -> (u16, String) {
    let needle = format!("\"status\":\"{want}\"");
    let deadline = Instant::now() + deadline;
    loop {
        let (status, body) = http_get(addr, "/healthz");
        if body.contains(&needle) {
            return (status, body);
        }
        assert!(Instant::now() < deadline, "health never reached {want}; last report: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Golden round-trip: the Prometheus text served on `/metrics` must parse
/// back into exactly the snapshot served on `/metrics.json` — and both
/// must equal the in-process registry snapshot and survive a JSON
/// round-trip. One set of numbers, four renderings, zero drift.
#[test]
fn metrics_exposition_round_trips_over_socket() {
    let registry = MetricsRegistry::new();
    registry.add("matching.matched", 1_234);
    registry.inc("appserver.events_delivered");
    registry.set_gauge("appserver.active_subscriptions", 17);
    registry.set_gauge("matching.0x0.ingest_lag_us", 905);
    for v in [12u64, 120, 1_200, 95_000] {
        registry.record("stage.matching", v);
    }
    registry.record("net.broker_hop_us", 333);
    registry.slow_queries().charge("tenant-a", 42, || "SELECT * FROM t".into(), 1_500);

    let mut admin = AdminServer::bind("127.0.0.1:0", registry.clone(), AdminConfig::default())
        .expect("bind admin endpoint");
    let addr = admin.local_addr();

    // The health evaluator publishes `health.status` asynchronously; wait
    // for it so both scrapes see the same, settled registry.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, text) = http_get(addr, "/metrics");
        assert_eq!(status, 200, "/metrics must answer 200");
        if text.contains("health.status") {
            break;
        }
        assert!(Instant::now() < deadline, "health.status gauge never published");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, prom_text) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let from_prom = from_prometheus(&prom_text).expect("parse Prometheus exposition");

    let (status, json_text) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    let from_json = MetricsSnapshot::from_json(&json_text).expect("parse snapshot JSON");

    assert_eq!(from_prom, from_json, "text and JSON expositions must carry the same numbers");
    let live = registry.snapshot();
    assert_eq!(from_prom, live, "the wire exposition must equal the in-process snapshot");
    assert_eq!(
        MetricsSnapshot::from_json(&live.to_json()),
        Some(live),
        "snapshot JSON must round-trip losslessly"
    );

    let (status, queries) = http_get(addr, "/queries");
    assert_eq!(status, 200);
    assert!(queries.contains("SELECT * FROM t"), "slow-query log reaches /queries: {queries}");

    admin.shutdown();
}

/// The acceptance arc for the health model: partitioning the broker link
/// with the chaos proxy flips `/healthz` Healthy → Degraded; healing it
/// flips it back; and `/flight` holds the degraded transition, the
/// supervisor's reconnect, and the recovery transition in seq order.
#[test]
fn healthz_degrades_and_recovers_under_partition() {
    let registry = MetricsRegistry::new();
    let broker = Broker::new();
    let server = BrokerServer::bind(
        "127.0.0.1:0",
        broker,
        BrokerServerConfig {
            heartbeat_interval: Duration::from_millis(100),
            ..BrokerServerConfig::default()
        },
    )
    .expect("bind event-layer server");
    let proxy = ChaosProxy::start(
        server.local_addr().to_string(),
        ChaosProxyConfig { seed: 3, ..ChaosProxyConfig::default() },
    )
    .expect("start chaos proxy");
    let link = RemoteBroker::connect(
        proxy.local_addr().to_string(),
        RemoteBrokerConfig {
            client_name: "obs-admin-test".into(),
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(400),
            reconnect_base: Duration::from_millis(50),
            reconnect_max: Duration::from_millis(200),
            metrics: registry.clone(),
            ..RemoteBrokerConfig::default()
        },
    );
    assert!(link.wait_connected(Duration::from_secs(5)), "initial connect through proxy");

    // Tight thresholds so the test resolves in wall-clock seconds; the
    // unavailable bar stays far away — the promised arc is via Degraded.
    let mut admin = AdminServer::bind(
        "127.0.0.1:0",
        registry.clone(),
        AdminConfig {
            health: HealthPolicy {
                heartbeat_degraded: Duration::from_millis(500),
                heartbeat_unavailable: Duration::from_secs(120),
                ..HealthPolicy::default()
            },
            eval_interval: Duration::from_millis(25),
            ..AdminConfig::default()
        },
    )
    .expect("bind admin endpoint");
    let addr = admin.local_addr();

    let (status, _) = await_health(addr, "healthy", Duration::from_secs(5));
    assert_eq!(status, 200, "healthy must be HTTP 200");

    proxy.partition(true);
    let (status, degraded) = await_health(addr, "degraded", Duration::from_secs(10));
    assert_eq!(status, 200, "degraded still serves (only unavailable is 503): {degraded}");
    assert!(
        degraded.contains("heartbeat_stale") || degraded.contains("disconnected"),
        "degraded report names a partition cause: {degraded}"
    );

    proxy.partition(false);
    let (status, _) = await_health(addr, "healthy", Duration::from_secs(10));
    assert_eq!(status, 200);
    assert!(link.wait_connected(Duration::from_secs(5)), "link back up after heal");

    // The flight recorder must tell the story in order: the degraded
    // transition happened before the reconnect that fixed it, which
    // happened before the recovery transition.
    let (status, flight_json) = http_get(addr, "/flight");
    assert_eq!(status, 200);
    let events = parse_flight(&flight_json);
    let degraded_seq = events
        .iter()
        .find(|e| e.kind == FlightEventKind::HealthTransition && e.detail.contains("-> degraded"))
        .map(|e| e.seq)
        .unwrap_or_else(|| panic!("no degraded transition in flight dump: {flight_json}"));
    let reconnect_seq = events
        .iter()
        .find(|e| e.kind == FlightEventKind::Reconnect && e.seq > degraded_seq)
        .map(|e| e.seq)
        .unwrap_or_else(|| panic!("no reconnect after the degraded transition: {flight_json}"));
    let recovered_seq = events
        .iter()
        .find(|e| {
            e.kind == FlightEventKind::HealthTransition
                && e.detail.contains("-> healthy")
                && e.seq > reconnect_seq
        })
        .map(|e| e.seq)
        .unwrap_or_else(|| panic!("no recovery transition after the reconnect: {flight_json}"));
    assert!(
        degraded_seq < reconnect_seq && reconnect_seq < recovered_seq,
        "flight order must be degrade ({degraded_seq}) -> reconnect ({reconnect_seq}) -> recover ({recovered_seq})"
    );

    admin.shutdown();
    link.shutdown();
}

/// Polls `cond` every few milliseconds until it holds or `deadline` passes.
fn wait_until(deadline: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Names of every counter, gauge and histogram in `snap` under `prefix`.
fn series(snap: &MetricsSnapshot, prefix: &str) -> BTreeSet<String> {
    let names = snap.counters.keys().chain(snap.gauges.keys()).chain(snap.hists.keys());
    names.filter(|name| name.starts_with(prefix)).cloned().collect()
}

/// One registry holds every series of a deployment: a 1×1 cluster behind
/// a loopback event layer, its client link and the server's side of that
/// link report into the same registry under stable names, and the server
/// removes a peer's series when the peer goes away.
#[test]
fn cluster_and_both_link_ends_report_into_one_registry() {
    let registry = MetricsRegistry::new();
    let mut server = BrokerServer::bind(
        "127.0.0.1:0",
        Broker::new(),
        BrokerServerConfig { metrics: registry.clone(), ..BrokerServerConfig::default() },
    )
    .expect("bind event-layer server");
    let link = RemoteBroker::connect(
        server.local_addr().to_string(),
        RemoteBrokerConfig {
            client_name: "obs-link".into(),
            metrics: registry.clone(),
            ..RemoteBrokerConfig::default()
        },
    );
    let config = ClusterConfig::builder(1, 1).metrics(registry.clone()).build().expect("valid config");
    let cluster = Cluster::start(link.clone(), config);
    // The cluster's topic subscription is acknowledged only by a server
    // that is serving (and reporting) this connection.
    wait_until(Duration::from_secs(10), "the cluster's subscribe ack", || link.last_acked() >= 1);

    let snap = registry.snapshot();
    let mut expected = BTreeSet::new();
    for component in ["ingress", "matching", "sorting", "aggregation"] {
        for name in ["processed", "emitted", "ticks", "queue_depth"] {
            expected.insert(format!("cluster.{component}.{name}"));
        }
    }
    assert_eq!(series(&snap, "cluster."), expected);

    let link_series = ["frames_in", "frames_out", "bytes_in", "bytes_out", "reconnects"]
        .into_iter()
        .chain(["decode_errors", "dropped", "queue_depth"]);
    let client: BTreeSet<String> = link_series
        .clone()
        .chain(["connected", "heartbeat_stale_ms"])
        .map(|name| format!("net.client.obs-link.{name}"))
        .collect();
    assert_eq!(series(&snap, "net.client."), client);
    assert_eq!(snap.counters["net.client.obs-link.reconnects"], 1);
    assert_eq!(snap.gauges["net.client.obs-link.connected"], 1);

    let server_side = series(&snap, "net.server.");
    let peers: BTreeSet<&str> = server_side
        .iter()
        .filter_map(|name| name.strip_prefix("net.server.")?.rsplit_once('.').map(|(peer, _)| peer))
        .collect();
    assert_eq!(peers.len(), 1, "one connection, one peer: {server_side:?}");
    let peer = peers.into_iter().next().expect("one peer");
    let expected: BTreeSet<String> =
        link_series.map(|name| format!("net.server.{peer}.{name}")).collect();
    assert_eq!(server_side, expected);
    assert!(snap.counters[&format!("net.server.{peer}.frames_in")] >= 1, "the subscribe came in");

    cluster.shutdown();
    link.shutdown();
    wait_until(Duration::from_secs(10), "the peer's series to go", || {
        series(&registry.snapshot(), "net.server.").is_empty()
    });
    assert!(!series(&registry.snapshot(), "net.client.obs-link.").is_empty(), "the client's stay");
    server.shutdown();
}

/// A worker rebuilds its cluster on the same registry whenever its cell
/// assignment changes. The per-component counters are the registry's own,
/// so they keep counting across the rebuild instead of starting over.
#[test]
fn cluster_counters_stay_monotonic_across_a_rebuild() {
    let registry = MetricsRegistry::new();
    let broker = Broker::new();
    let config = ClusterConfig::builder(1, 1).metrics(registry.clone()).build().expect("valid config");
    let app =
        AppServer::start("rebuild", Arc::new(Store::new()), broker.clone(), AppServerConfig::default());
    let processed =
        || registry.snapshot().counters.get("cluster.ingress.processed").copied().unwrap_or(0);
    let mut seen = Vec::new();
    let mut writes = 0i64;
    for _ in 0..2 {
        let cluster = Cluster::start(broker.clone(), config.clone());
        seen.push(processed());
        let before = processed();
        for _ in 0..20 {
            app.save("items", Key::of(writes), doc! { "n" => writes }).expect("save");
            writes += 1;
        }
        wait_until(Duration::from_secs(10), "the ingress to take the writes", || {
            processed() >= before + 20
        });
        seen.push(processed());
        cluster.shutdown();
        seen.push(processed());
    }
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "cluster.ingress.processed went back: {seen:?}");
    assert_eq!(processed(), 40, "both clusters' writes are counted: {seen:?}");
}

/// Decodes the `/flight` JSON array back into events.
fn parse_flight(json: &str) -> Vec<FlightEvent> {
    let value = invalidb::json::parse_value(json).expect("flight dump is valid JSON");
    value
        .as_array()
        .expect("flight dump is a JSON array")
        .iter()
        .map(|v| {
            let doc = match v {
                invalidb::Value::Object(d) => d,
                other => panic!("flight entry is not an object: {other:?}"),
            };
            FlightEvent::from_document(doc).expect("flight entry decodes")
        })
        .collect()
}
