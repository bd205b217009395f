//! End-to-end stage tracing: a sampled write must arrive at the client
//! carrying a trace whose stage timestamps are monotone and cover the
//! whole pipeline — both in-process and over the TCP event layer (where
//! the broker server contributes its own stamp via the frame-header
//! trace extension).

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::common::TraceContext;
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::net::{BrokerServer, BrokerServerConfig, RemoteBroker, RemoteBrokerConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, MetricsRegistry, QuerySpec, Stage};
use std::sync::Arc;
use std::time::Duration;

/// Asserts the trace covers `expected` stages in order with monotone
/// non-decreasing timestamps (stages never overlap: each begins at or
/// after the previous one ended).
fn assert_stage_order(trace: &TraceContext, expected: &[Stage]) {
    let stages: Vec<Stage> = trace.stamps.iter().map(|s| s.stage).collect();
    assert_eq!(stages, expected, "stage sequence");
    for pair in trace.stamps.windows(2) {
        assert!(
            pair[0].at_micros <= pair[1].at_micros,
            "non-monotone stamps: {:?} at {} then {:?} at {}",
            pair[0].stage,
            pair[0].at_micros,
            pair[1].stage,
            pair[1].at_micros,
        );
    }
    // The per-stage breakdown must account for the full end-to-end time.
    let sum: u64 = trace.breakdown().iter().map(|(_, _, d)| d).sum();
    assert_eq!(sum, trace.elapsed_micros(), "breakdown sums to end-to-end latency");
}

/// Waits for the next traced Change event and returns its trace.
fn traced_change(sub: &mut invalidb::client::Subscription) -> TraceContext {
    for event in sub.events().timeout(Duration::from_secs(10)) {
        if matches!(event, ClientEvent::Change(_)) {
            return sub.last_trace().expect("change carries a trace").clone();
        }
    }
    panic!("no change notification arrived");
}

#[test]
fn in_process_trace_covers_pipeline_with_monotone_stamps() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let metrics = MetricsRegistry::new();
    let cluster = Cluster::start(
        broker.clone(),
        ClusterConfig { metrics: metrics.clone(), ..ClusterConfig::new(2, 2) },
    );
    let config = AppServerConfig {
        trace_sample_every: 1,
        metrics: metrics.clone(),
        ..AppServerConfig::default()
    };
    let app = AppServer::start("obs", Arc::clone(&store), broker.clone(), config);

    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(5)).next(),
        Some(ClientEvent::Initial(_))
    ));

    app.insert("t", Key::of(1i64), doc! { "n" => 1i64 }).unwrap();
    let trace = traced_change(&mut sub);
    // No broker stamp in-process: publish is a direct channel send.
    assert_stage_order(
        &trace,
        &[Stage::AppServer, Stage::Ingestion, Stage::Matching, Stage::Notifier, Stage::Delivery],
    );

    // The shared registry recorded the trace, and a snapshot carries the
    // same numbers through its JSON round-trip.
    let snap = app.metrics();
    let breakdown = snap.stage_breakdown();
    assert!(!breakdown.is_empty(), "stage histograms recorded");
    let restored = invalidb::MetricsSnapshot::from_json(&snap.to_json()).expect("parse snapshot");
    assert_eq!(snap.to_text_table(), restored.to_text_table(), "JSON round-trip same numbers");
    cluster.shutdown();
}

#[test]
fn tcp_trace_adds_the_broker_stamp() {
    // Cluster side: store + cluster + event layer served on TCP.
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let metrics = MetricsRegistry::new();
    let cluster = Cluster::start(
        broker.clone(),
        ClusterConfig { metrics: metrics.clone(), ..ClusterConfig::new(1, 2) },
    );
    let server_config = BrokerServerConfig { metrics: metrics.clone(), ..BrokerServerConfig::default() };
    let server = BrokerServer::bind("127.0.0.1:0", broker, server_config).expect("bind event layer");

    // App-server side: connected through a RemoteBroker.
    let remote = RemoteBroker::connect(
        server.local_addr().to_string(),
        RemoteBrokerConfig { client_name: "obs-trace-test".into(), ..Default::default() },
    );
    assert!(remote.wait_connected(Duration::from_secs(5)));
    let config = AppServerConfig {
        trace_sample_every: 1,
        metrics: metrics.clone(),
        ..AppServerConfig::default()
    };
    let app = AppServer::start("obs-tcp", Arc::clone(&store), remote.clone(), config);

    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(10)).next(),
        Some(ClientEvent::Initial(_))
    ));

    app.insert("t", Key::of(1i64), doc! { "n" => 1i64 }).unwrap();
    let trace = traced_change(&mut sub);
    // Over TCP the broker server stamps the hop it owns.
    assert_stage_order(
        &trace,
        &[
            Stage::AppServer,
            Stage::Broker,
            Stage::Ingestion,
            Stage::Matching,
            Stage::Notifier,
            Stage::Delivery,
        ],
    );

    // The server-side registry saw the sidecar.
    let snap = metrics.snapshot();
    let traced = snap.counters.get("net.traced_publishes").copied().unwrap_or(0);
    assert!(traced >= 1, "broker server counted traced publishes: {traced}");

    remote.shutdown();
    cluster.shutdown();
}
