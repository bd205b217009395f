//! Eventual-consistency guarantees under event-layer misbehaviour (§5).
//!
//! "Since communication over the event layer is asynchronous, InvaliDB may
//! receive writes delayed or skewed and change notifications may be
//! generated out-of-order. While real-time query results may thus diverge
//! temporarily from database state, they are eventually consistent: they
//! synchronize once InvaliDB has applied the same write operations as the
//! database."

use invalidb::broker::{Broker, ChaosConfig, ChaosScope};
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec, SortDirection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Heavy write churn through a delaying/reordering event layer: the
/// push-maintained result must converge to the pull truth for unsorted
/// queries (versioned staleness avoidance absorbs the reordering).
#[test]
fn unsorted_results_converge_under_reordering() {
    for seed in [1u64, 7, 23] {
        // Full chaos: even the notification channel reorders; the client's
        // version-guarded result maintenance must absorb it.
        let broker = Broker::with_chaos(ChaosConfig {
            seed,
            delay: Some((Duration::ZERO, Duration::from_millis(25))),
            drop_probability: 0.0,
            scope: ChaosScope::AllTopics,
        });
        let store = Arc::new(Store::new());
        let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
        let app =
            AppServer::start("chaos", Arc::clone(&store), broker.clone(), AppServerConfig::default());

        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 50i64 } });
        let mut sub = app.subscribe(&spec).unwrap();
        assert!(matches!(
            sub.events().timeout(Duration::from_secs(5)).next(),
            Some(ClientEvent::Initial(_))
        ));

        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let key = Key::of(rng.gen_range(0..25i64));
            if rng.gen_bool(0.2) {
                let _ = app.delete("t", key);
            } else {
                let _ = app.save("t", key, doc! { "n" => rng.gen_range(0..100i64) });
            }
        }

        // Convergence: live result (as a set) equals the pull truth.
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        loop {
            while sub.events().non_blocking().next().is_some() {}
            let mut live = sub.result().keys();
            live.sort();
            let mut truth: Vec<Key> = store.execute(&spec).unwrap().into_iter().map(|r| r.key).collect();
            truth.sort();
            if live == truth {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "seed {seed}: live {live:?} never converged to {truth:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        cluster.shutdown();
    }
}

/// Sorted queries under reordering: renewal may fire, but the visible
/// window must converge to the pull truth in *order*.
#[test]
fn sorted_results_converge_under_reordering() {
    // Chaos scoped to the cluster-inbound topic: writes arrive delayed and
    // skewed (the paper's model), while the notification channel stays
    // ordered like the production WebSocket — index-based edit scripts
    // require ordered delivery.
    let broker = Broker::with_chaos(ChaosConfig {
        seed: 99,
        delay: Some((Duration::ZERO, Duration::from_millis(15))),
        drop_probability: 0.0,
        scope: ChaosScope::TopicPrefix("invalidb.cluster".into()),
    });
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 2));
    let app = AppServer::start("chaos2", Arc::clone(&store), broker.clone(), AppServerConfig::default());

    for i in 0..20i64 {
        app.insert("s", Key::of(i), doc! { "rank" => i }).unwrap();
    }
    let spec = QuerySpec::filter("s", doc! {}).sorted_by("rank", SortDirection::Asc).with_limit(5);
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().unwrap();

    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..150 {
        let key = Key::of(rng.gen_range(0..20i64));
        if rng.gen_bool(0.3) {
            let _ = app.delete("s", key);
        } else {
            let _ = app.save("s", key, doc! { "rank" => rng.gen_range(0..100i64) });
        }
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        while sub.events().non_blocking().next().is_some() {}
        let live = sub.result().keys();
        let truth: Vec<Key> = store.execute(&spec).unwrap().into_iter().map(|r| r.key).collect();
        if live == truth {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sorted window {live:?} never converged to {truth:?} (renewals: {})",
            app.renewals_performed()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

/// Version-based staleness avoidance: an old after-image arriving after a
/// newer one (or after a delete) must never resurface in the result.
#[test]
fn stale_after_images_never_resurrect_deleted_records() {
    use invalidb::broker::CLUSTER_TOPIC;
    use invalidb::common::{AfterImage, ClusterMessage, SubscriptionId, SubscriptionRequest, TenantId};

    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let notify = broker.subscribe("invalidb.notify.stale");
    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    let publish = |msg: &ClusterMessage| {
        broker.publish(CLUSTER_TOPIC, invalidb::json::WireCodec.encode(&msg.to_document()));
    };
    publish(&ClusterMessage::Subscribe(SubscriptionRequest {
        tenant: TenantId::new("stale"),
        subscription: SubscriptionId(1),
        query_hash: spec.stable_hash(),
        spec: spec.clone(),
        initial: vec![],
        slack: 0,
        ttl_micros: 60_000_000,
        renewal: false,
    }));
    let write = |version: u64, doc: Option<invalidb::Document>| {
        publish(&ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("stale"),
            collection: "t".into(),
            key: Key::of("x"),
            version,
            doc,
            written_at: 0,
            trace: None,
        }));
    };
    // v1 insert, v2 delete arrive in order; then the v1 after-image is
    // "replayed" late (skewed duplicate from the event layer).
    write(1, Some(doc! { "n" => 5i64 }));
    write(2, None);
    write(1, Some(doc! { "n" => 5i64 }));

    let mut kinds = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while std::time::Instant::now() < deadline {
        if let Some(p) = notify.recv_timeout(Duration::from_millis(100)) {
            let d = invalidb::json::payload_to_document(&p).unwrap();
            if d.get("type").and_then(|v| v.as_str()) == Some("heartbeat") {
                continue;
            }
            for n in invalidb::NotifyEnvelope::from_document(d).unwrap().into_notifications() {
                if let invalidb::NotificationKind::Change(c) = n.kind {
                    kinds.push(c.match_type);
                }
            }
        }
    }
    assert_eq!(
        kinds,
        vec![invalidb::MatchType::Add, invalidb::MatchType::Remove],
        "the stale v1 replay must be dropped"
    );
    cluster.shutdown();
}
