//! The cluster as a set of run-to-completion tasks: which threads a grid
//! shape spawns, that time-driven work keeps its cadence under a write
//! firehose, that a subset host reaches a sorting partition anchored on
//! another worker through the shuffle topic, and that every reader of the
//! event layer ends when its subscription is dropped.

use invalidb::broker::{notify_topic, Broker, CLUSTER_TOPIC};
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::cluster::{Coordinator, CoordinatorConfig};
use invalidb::common::{AfterImage, ClusterMessage, GridShape, SubscriptionRequest};
use invalidb::core::{CellSet, Cluster, ClusterConfig};
use invalidb::store::Store;
use invalidb::{
    doc, Key, NotificationKind, NotifyEnvelope, QuerySpec, SortDirection, SubscriptionId, TenantId,
    Version,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "app";

#[test]
fn thread_census_per_grid_shape() {
    let broker = Broker::new();
    // 1×1: ingress, one cell, two sorting partitions — a write crosses
    // writer → ingress → cell → dispatcher.
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    assert_eq!(cluster.pipeline_threads(), ["ingress", "cell-0x0", "sorting-0", "sorting-1"]);
    cluster.shutdown();

    // 2×2: one thread per cell, the stages as configured.
    let config = ClusterConfig { sorting_tasks: 1, ..ClusterConfig::new(2, 2) };
    let cluster = Cluster::start(broker.clone(), config);
    assert_eq!(
        cluster.pipeline_threads(),
        ["ingress", "cell-0x0", "cell-0x1", "cell-1x0", "cell-1x1", "sorting-0"]
    );
    cluster.shutdown();

    // A subset host spawns its own cells only; the one that anchors a row
    // also listens on that row's shuffle topic.
    let grid = GridShape::new(1, 2);
    let anchor =
        Cluster::start_with_host(broker.clone(), ClusterConfig::new(1, 2), CellSet::new(grid, [0]));
    let names = anchor.pipeline_threads();
    assert_eq!(names[..3], ["ingress", "shuffle-ingress", "cell-0x0"], "{names:?}");
    let other = Cluster::start_with_host(broker, ClusterConfig::new(1, 2), CellSet::new(grid, [1]));
    let names = other.pipeline_threads();
    assert_eq!(names[..2], ["ingress", "cell-0x1"], "{names:?}");
    assert!(!names.contains(&"shuffle-ingress".to_owned()), "{names:?}");
}

/// The cluster-level twin of the task loop's `ticks_survive_a_message_firehose`:
/// while writes arrive faster than `tick_interval`, heartbeats keep their
/// cadence (they are the ingress's tick) and the cell keeps
/// trimming its retention ring (its tick is deadline-driven too).
#[test]
fn heartbeats_and_retention_keep_their_cadence_under_a_write_firehose() {
    const FIREHOSE: Duration = Duration::from_millis(1_500);
    let heartbeat_interval = Duration::from_millis(100);
    let retention = Duration::from_millis(300);
    let config = ClusterConfig {
        heartbeat_interval,
        tick_interval: Duration::from_millis(10),
        retention,
        ..ClusterConfig::new(1, 1)
    };
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), config);

    // A subscription makes the tenant known; it matches nothing written.
    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$lt" => 0i64 } });
    let subscribe = ClusterMessage::Subscribe(SubscriptionRequest {
        tenant: TenantId::new(TENANT),
        subscription: SubscriptionId(1),
        query_hash: spec.stable_hash(),
        spec,
        initial: vec![],
        slack: 0,
        ttl_micros: 60_000_000,
        renewal: false,
    });
    broker.publish(CLUSTER_TOPIC, invalidb::json::WireCodec.encode(&subscribe.to_document()));

    let done = AtomicBool::new(false);
    let (written, beats, peak_retained) = std::thread::scope(|scope| {
        let firehose = scope.spawn(|| {
            let started = Instant::now();
            let mut written = 0u64;
            while started.elapsed() < FIREHOSE {
                // A burst per iteration: far more than one write per tick.
                for _ in 0..20 {
                    written += 1;
                    let write = ClusterMessage::Write(AfterImage {
                        tenant: TenantId::new(TENANT),
                        collection: "t".into(),
                        key: Key::of(written as i64),
                        version: 1,
                        doc: Some(doc! { "n" => written as i64 }),
                        written_at: 0,
                        trace: None,
                    });
                    let payload = invalidb::json::WireCodec.encode(&write.to_document());
                    broker.publish(CLUSTER_TOPIC, payload);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Relaxed);
            written
        });
        // Meanwhile: when do heartbeats arrive, and how full is the ring?
        let mut beats = Vec::new();
        let mut peak_retained = 0;
        while !done.load(Ordering::Relaxed) {
            if let Some(payload) = notify.recv_timeout(Duration::from_millis(5)) {
                let d = invalidb::json::payload_to_document(&payload).unwrap();
                if d.get("type").and_then(|v| v.as_str()) == Some("heartbeat") {
                    beats.push(Instant::now());
                }
            }
            let retained = cluster.metrics().gauges.get("matching.0x0.retained_writes").copied();
            peak_retained = peak_retained.max(retained.unwrap_or(0));
        }
        (firehose.join().unwrap(), beats, peak_retained)
    });

    assert!(written > 5_000, "the firehose wrote {written}");
    assert!(
        beats.len() as u128 >= FIREHOSE.as_millis() / heartbeat_interval.as_millis() - 2,
        "{} heartbeats in {FIREHOSE:?}",
        beats.len()
    );
    let widest = beats.windows(2).map(|pair| pair[1] - pair[0]).max().unwrap();
    assert!(
        widest <= 2 * heartbeat_interval,
        "heartbeats drifted apart under load: widest gap {widest:?} of {heartbeat_interval:?}"
    );
    // The ring never holds much more than the horizon's share of the
    // stream (a fifth of it here); without ticks it would hold all of it.
    assert!(peak_retained > 0);
    assert!(
        peak_retained <= written / 2,
        "retention ring grew to {peak_retained} of {written} writes: expiry is starved"
    );
    // And it empties once the stream stops.
    let deadline = Instant::now() + retention + Duration::from_secs(5);
    while cluster.metrics().gauges["matching.0x0.retained_writes"] > 0 {
        assert!(Instant::now() < deadline, "retention ring never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

/// Two workers share a 1×2 grid: its one query row spans both, so the
/// worker hosting cell (0, 1) does not anchor the row and must ship its
/// filter changes to the sorting partition on the other worker through
/// `shuffle_topic(0)`. (On a grid with a single write partition every row
/// is one cell and nothing is ever shuffled.)
#[test]
fn subset_host_reaches_the_row_owner_through_the_shuffle_topic() {
    let broker = Broker::new();
    let raw = broker.subscribe(&notify_topic(TENANT));
    let grid = GridShape::new(1, 2);
    let (anchor_config, other_config) = (ClusterConfig::new(1, 2), ClusterConfig::new(1, 2));
    let (anchor_metrics, other_metrics) = (anchor_config.metrics.clone(), other_config.metrics.clone());
    let anchor = Cluster::start_with_host(broker.clone(), anchor_config, CellSet::new(grid, [0]));
    let other = Cluster::start_with_host(broker.clone(), other_config, CellSet::new(grid, [1]));
    // The subscription must not be re-registered: every registration is
    // answered, and the point is that exactly one worker answers one.
    let app_config =
        AppServerConfig { subscribe_retry_interval: Duration::from_secs(60), ..Default::default() };
    let app = AppServer::start(TENANT, Arc::new(Store::new()), broker.clone(), app_config);

    // Ample limit: the window never runs dry, so there is no renewal.
    let spec = QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 0i64 } })
        .sorted_by("n", SortDirection::Desc)
        .with_limit(100);
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(5)).next(),
        Some(ClientEvent::Initial(_))
    ));
    // Keys of both write partitions.
    let keys: Vec<Key> = (0..40i64).map(Key::of).collect();
    assert!((0..2).all(|wp| keys.iter().any(|k| grid.write_partition(k) == wp)));
    for (i, key) in keys.iter().enumerate() {
        app.save("items", key.clone(), doc! { "n" => i as i64 }).unwrap();
    }

    let truth: Vec<(Key, Version)> =
        app.find(&spec).unwrap().into_iter().map(|item| (item.key, item.version)).collect();
    assert_eq!(truth.len(), keys.len());
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        while sub.events().non_blocking().next().is_some() {}
        let live: Vec<(Key, Version)> =
            sub.result().entries().iter().map(|e| (e.key.clone(), e.version)).collect();
        if live == truth {
            break;
        }
        assert!(Instant::now() < deadline, "no convergence: live {live:?} truth {truth:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Half the window arrived through the event layer...
    let shuffled = other_metrics.snapshot().counters["shuffle.egress"];
    let foreign = keys.iter().filter(|k| grid.write_partition(k) == 1).count() as u64;
    assert_eq!(shuffled, foreign, "one filter change per write of the foreign partition");
    assert_eq!(anchor_metrics.snapshot().counters["shuffle.ingress"], foreign);
    assert!(!anchor_metrics.snapshot().counters.contains_key("shuffle.egress"));
    // ...and exactly one worker answered the subscription.
    let mut initial_results = 0;
    while let Some(payload) = raw.try_recv() {
        let d = invalidb::json::payload_to_document(&payload).unwrap();
        if let Ok(envelope) = NotifyEnvelope::from_document(d) {
            initial_results +=
                usize::from(matches!(envelope.kind, NotificationKind::InitialResult { .. }));
        }
    }
    assert_eq!(initial_results, 1);
    drop(app);
    other.shutdown();
    anchor.shutdown();
}

/// Every thread that reads the event layer ends when its owner drops the
/// subscription, whatever is still queued on it: with 20 000 writes
/// waiting on the cluster topic (and their notifications on the app
/// server's), dropping an app server and a coordinator returns, and so
/// does shutting down a subset host with a shuffle ingress and a full host.
#[test]
fn readers_of_the_event_layer_end_with_writes_still_queued() {
    let broker = Broker::new();
    let grid = GridShape::new(1, 2);
    let full = Cluster::start(broker.clone(), ClusterConfig::new(1, 2));
    let subset =
        Cluster::start_with_host(broker.clone(), ClusterConfig::new(1, 2), CellSet::new(grid, [0]));
    assert!(subset.pipeline_threads().contains(&"shuffle-ingress".to_owned()));
    let coordinator =
        Coordinator::bind("127.0.0.1:0", broker.clone(), CoordinatorConfig::new(grid)).unwrap();
    let app =
        AppServer::start(TENANT, Arc::new(Store::new()), broker.clone(), AppServerConfig::default());
    // Every write matches: the cells keep the dispatcher busy too.
    let live = app.subscribe(&QuerySpec::filter("t", doc! {})).unwrap();

    for n in 0..20_000i64 {
        let write = ClusterMessage::Write(AfterImage {
            tenant: TenantId::new(TENANT),
            collection: "t".into(),
            key: Key::of(n),
            version: 1,
            doc: Some(doc! { "n" => n }),
            written_at: 0,
            trace: None,
        });
        let mut payload = invalidb::json::WireCodec.writer();
        write.write_to(&mut payload);
        broker.publish(CLUSTER_TOPIC, payload.finish());
    }
    drop(live);
    // Stopped one by one on a thread that owns them all, so a reader that
    // never ends fails the test instead of hanging it.
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        drop(app);
        let _ = done.send("the app server");
        drop(coordinator);
        let _ = done.send("the coordinator");
        subset.shutdown();
        let _ = done.send("the subset host");
        full.shutdown();
        let _ = done.send("the full host");
    });
    for what in ["the app server", "the coordinator", "the subset host", "the full host"] {
        assert_eq!(stopped.recv_timeout(Duration::from_secs(60)), Ok(what), "{what} never stopped");
    }
    stopper.join().unwrap();
}
