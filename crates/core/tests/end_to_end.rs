//! End-to-end cluster tests: everything crosses the event layer as opaque
//! payloads, exactly like a production deployment.

use bytes::Bytes;
use invalidb_broker::{notify_topic, Broker, CLUSTER_TOPIC};
use invalidb_common::{
    doc, AfterImage, ClusterMessage, Document, Key, MatchType, Notification, NotificationKind,
    NotifyEnvelope, QuerySpec, ResultItem, SortDirection, SubscriptionId, SubscriptionRequest, TenantId,
};
use invalidb_core::{Cluster, ClusterConfig};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

const TENANT: &str = "app";

fn publish(broker: &Broker, msg: &ClusterMessage) {
    broker.publish(CLUSTER_TOPIC, invalidb_json::WireCodec.encode(&msg.to_document()));
}

fn subscribe_msg(spec: &QuerySpec, sub: u64, initial: Vec<ResultItem>, slack: u64) -> ClusterMessage {
    ClusterMessage::Subscribe(SubscriptionRequest {
        tenant: TenantId::new(TENANT),
        subscription: SubscriptionId(sub),
        query_hash: spec.stable_hash(),
        spec: spec.clone(),
        initial,
        slack,
        ttl_micros: 60_000_000,
        renewal: false,
    })
}

fn write_msg(collection: &str, key: Key, version: u64, doc: Option<Document>) -> ClusterMessage {
    ClusterMessage::Write(AfterImage {
        tenant: TenantId::new(TENANT),
        collection: collection.into(),
        key,
        version,
        doc,
        written_at: 7,
        trace: None,
    })
}

/// One notify-topic payload as its addressees see it: nothing for a
/// heartbeat, one notification per addressed subscription for an envelope.
fn decode(payload: Bytes) -> Vec<Notification> {
    invalidb_json::payload_to_document(&payload)
        .ok()
        .and_then(|d| NotifyEnvelope::from_document(d).ok())
        .map(NotifyEnvelope::into_notifications)
        .unwrap_or_default()
}

/// Collects `n` non-heartbeat notifications (with timeout).
fn collect(sub: &invalidb_broker::Subscription, n: usize) -> Vec<Notification> {
    let mut out = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while out.len() < n && std::time::Instant::now() < deadline {
        if let Some(payload) = sub.recv_timeout(Duration::from_millis(100)) {
            out.extend(decode(payload));
        }
    }
    out
}

#[test]
fn unsorted_query_full_roundtrip_on_2x2_grid() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));

    let spec = QuerySpec::filter("users", doc! { "age" => doc! { "$gte" => 18i64 } });
    publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));
    let initial = collect(&notify, 1);
    assert!(
        matches!(initial[0].kind, NotificationKind::InitialResult { ref items } if items.is_empty())
    );

    // Writes across many keys: all partitions exercised, exactly one
    // notification per matching write (no duplicates from the grid).
    for i in 0..20i64 {
        let age = if i % 2 == 0 { 30 } else { 10 };
        publish(&broker, &write_msg("users", Key::of(i), 1, Some(doc! { "age" => age })));
    }
    let notes = collect(&notify, 10);
    assert_eq!(notes.len(), 10, "exactly the 10 matching writes notify");
    for n in &notes {
        assert_eq!(n.subscription, SubscriptionId(1));
        match &n.kind {
            NotificationKind::Change(c) => {
                assert_eq!(c.match_type, MatchType::Add);
                assert_eq!(c.item.doc.as_ref().unwrap().get("age").unwrap().as_i64(), Some(30));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // No extra notifications trickle in (each write matched on one node).
    std::thread::sleep(Duration::from_millis(200));
    assert!(collect_available(&notify).is_empty());
    cluster.shutdown();
}

fn collect_available(sub: &invalidb_broker::Subscription) -> Vec<Notification> {
    let mut out = Vec::new();
    while let Some(p) = sub.try_recv() {
        out.extend(decode(p));
    }
    out
}

#[test]
fn sorted_query_roundtrip_with_change_index() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));

    // Top-3 leaderboard by score descending.
    let spec =
        QuerySpec::filter("players", doc! {}).sorted_by("score", SortDirection::Desc).with_limit(3);
    let initial: Vec<ResultItem> =
        (0..5i64).map(|i| ResultItem::new(Key::of(i), 1, doc! { "score" => 100 - i * 10 })).collect();
    publish(&broker, &subscribe_msg(&spec, 9, initial, 2));
    let first = collect(&notify, 1);
    match &first[0].kind {
        NotificationKind::InitialResult { items } => {
            assert_eq!(items.len(), 3, "trimmed to the limit");
            assert_eq!(items[0].index, Some(0));
            assert_eq!(items[0].doc.as_ref().unwrap().get("score").unwrap().as_i64(), Some(100));
        }
        other => panic!("expected initial result, got {other:?}"),
    }

    // Player 4 (score 60, outside top 3) surges to 95: enters at index 1.
    publish(&broker, &write_msg("players", Key::of(4i64), 2, Some(doc! { "score" => 95i64 })));
    let notes = collect(&notify, 2);
    let kinds: Vec<MatchType> = notes
        .iter()
        .filter_map(|n| match &n.kind {
            NotificationKind::Change(c) => Some(c.match_type),
            _ => None,
        })
        .collect();
    assert!(kinds.contains(&MatchType::Add), "player 4 enters: {kinds:?}");
    assert!(kinds.contains(&MatchType::Remove), "player 2 drops out: {kinds:?}");
    let add = notes
        .iter()
        .find_map(|n| match &n.kind {
            NotificationKind::Change(c) if c.match_type == MatchType::Add => Some(c),
            _ => None,
        })
        .unwrap();
    assert_eq!(add.item.index, Some(1));

    // Player 0 (leader) drops to 85: moves within the window → changeIndex.
    publish(&broker, &write_msg("players", Key::of(0i64), 2, Some(doc! { "score" => 86i64 })));
    let notes = collect(&notify, 1);
    match &notes[0].kind {
        NotificationKind::Change(c) => {
            assert_eq!(c.match_type, MatchType::ChangeIndex);
            assert_eq!(c.old_index, Some(0));
            assert_eq!(c.item.index, Some(2));
        }
        other => panic!("expected changeIndex, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn maintenance_error_and_renewal_cycle() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));

    let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
    // Bootstrap with slack 1: window = 3 of the 5 matching items.
    let initial: Vec<ResultItem> =
        (0..3i64).map(|i| ResultItem::new(Key::of(i), 1, doc! { "n" => i })).collect();
    publish(&broker, &subscribe_msg(&spec, 5, initial, 1));
    collect(&notify, 1); // initial

    // Delete item 0: slack absorbs it (1 enters visible... window refills).
    publish(&broker, &write_msg("t", Key::of(0i64), 2, None));
    let notes = collect(&notify, 2);
    assert_eq!(notes.len(), 2, "remove + slack item enters: {notes:?}");

    // Delete item 1: window drops below limit with knowledge incomplete →
    // maintenance error (renewal request).
    publish(&broker, &write_msg("t", Key::of(1i64), 2, None));
    let notes = collect(&notify, 1);
    assert!(
        matches!(notes[0].kind, NotificationKind::Error(_)),
        "expected renewal request, got {:?}",
        notes[0].kind
    );

    // Application server renews: re-subscribes with a fresh result.
    let fresh: Vec<ResultItem> =
        (2..5i64).map(|i| ResultItem::new(Key::of(i), 1, doc! { "n" => i })).collect();
    publish(&broker, &subscribe_msg(&spec, 5, fresh, 1));
    // Client held [1, 2] visible... last valid visible was [2, 3]; fresh
    // visible is [2, 3] → the delta depends on timing; at minimum the
    // query must be maintainable again:
    std::thread::sleep(Duration::from_millis(300));
    while notify.try_recv().is_some() {}
    publish(&broker, &write_msg("t", Key::of(2i64), 2, None));
    let notes = collect(&notify, 1);
    assert!(
        notes.iter().any(|n| matches!(n.kind, NotificationKind::Change(_))),
        "query maintains incrementally after renewal: {notes:?}"
    );
    cluster.shutdown();
}

#[test]
fn heartbeats_flow_to_tenant_topics() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let mut cfg = ClusterConfig::new(1, 1);
    cfg.heartbeat_interval = Duration::from_millis(30);
    cfg.tick_interval = Duration::from_millis(10);
    let cluster = Cluster::start(broker.clone(), cfg);

    let spec = QuerySpec::filter("t", doc! {});
    publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));
    let mut heartbeats = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while heartbeats < 3 && std::time::Instant::now() < deadline {
        if let Some(p) = notify.recv_timeout(Duration::from_millis(100)) {
            let d = invalidb_json::payload_to_document(&p).unwrap();
            if d.get("type").and_then(|v| v.as_str()) == Some("heartbeat") {
                heartbeats += 1;
            }
        }
    }
    assert!(heartbeats >= 3, "heartbeats arrive periodically");
    cluster.shutdown();
}

#[test]
fn write_subscription_race_closed_by_retention_under_chaos() {
    // Delayed event-layer delivery: the subscription can overtake the write
    // or vice versa; retention replay + staleness avoidance must converge to
    // exactly one add notification either way.
    for seed in 0..10 {
        let broker = Broker::with_chaos(invalidb_broker::ChaosConfig {
            seed,
            delay: Some((Duration::ZERO, Duration::from_millis(20))),
            drop_probability: 0.0,
            scope: Default::default(),
        });
        let notify = broker.subscribe(&notify_topic(TENANT));
        let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));

        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        // Write and subscription race through the chaotic broker. The write
        // is NOT in the initial result (simulating the write-query race
        // having resolved with the query reading before the write).
        publish(&broker, &write_msg("t", Key::of("raced"), 1, Some(doc! { "n" => 1i64 })));
        publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));

        let notes = collect(&notify, 2); // initial + add
        let adds: Vec<&Notification> = notes
            .iter()
            .filter(|n| matches!(&n.kind, NotificationKind::Change(c) if c.match_type == MatchType::Add))
            .collect();
        assert_eq!(adds.len(), 1, "seed {seed}: exactly one add, got {notes:?}");
        cluster.shutdown();
    }
}

#[test]
fn cluster_death_leaves_publishers_unharmed() {
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    cluster.shutdown(); // "worst case: the InvaliDB cluster is taken down"
                        // Requests against the event layer remain unanswered, but nothing errors.
    let spec = QuerySpec::filter("t", doc! {});
    publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));
    publish(&broker, &write_msg("t", Key::of(1i64), 1, Some(doc! {})));
}

#[test]
fn malformed_payloads_are_counted_not_fatal() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    broker.publish(CLUSTER_TOPIC, Bytes::from_static(b"this is not json"));
    broker.publish(CLUSTER_TOPIC, Bytes::from_static(b"{\"op\": \"bogus\"}"));
    // A well-formed write envelope in JSON text is not a payload either.
    let json = write_msg("t", Key::of("json"), 1, Some(doc! { "n" => 1i64 })).to_document();
    broker.publish(CLUSTER_TOPIC, Bytes::from(invalidb_json::to_bytes(&json)));
    // The cluster keeps working.
    let spec = QuerySpec::filter("t", doc! {});
    publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));
    let notes = collect(&notify, 1);
    assert!(matches!(notes[0].kind, NotificationKind::InitialResult { .. }));
    assert_eq!(cluster.decode_errors(), 3);
    cluster.shutdown();
}

#[test]
fn torn_payloads_are_counted_not_fatal() {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));

    // A valid binary write envelope, torn mid-payload (e.g. a producer
    // died mid-write): counted as a decode error, never a panic.
    let msg = write_msg("t", Key::of("torn"), 1, Some(doc! { "n" => 1i64 }));
    let full = invalidb_json::WireCodec.encode(&msg.to_document());
    broker.publish(CLUSTER_TOPIC, Bytes::copy_from_slice(&full[..full.len() / 2]));
    // Bare magic with nothing behind it is a decode error too.
    broker.publish(CLUSTER_TOPIC, Bytes::from_static(b"IVBD"));

    // The cluster keeps working.
    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    publish(&broker, &subscribe_msg(&spec, 1, vec![], 0));
    broker.publish(
        CLUSTER_TOPIC,
        invalidb_json::WireCodec
            .encode(&write_msg("t", Key::of("ok"), 1, Some(doc! { "n" => 5i64 })).to_document()),
    );
    let notes = collect(&notify, 2); // initial + add
    assert!(matches!(notes[0].kind, NotificationKind::InitialResult { .. }));
    assert!(matches!(&notes[1].kind, NotificationKind::Change(c) if c.match_type == MatchType::Add));
    assert_eq!(cluster.decode_errors(), 2);
    cluster.shutdown();
}

#[test]
fn multi_tenant_topics_are_isolated() {
    let broker = Broker::new();
    let notify_a = broker.subscribe(&notify_topic("tenant-a"));
    let notify_b = broker.subscribe(&notify_topic("tenant-b"));
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));

    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    for (tenant, sub) in [("tenant-a", 1u64), ("tenant-b", 2)] {
        let msg = ClusterMessage::Subscribe(SubscriptionRequest {
            tenant: TenantId::new(tenant),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec: spec.clone(),
            initial: vec![],
            slack: 0,
            ttl_micros: 60_000_000,
            renewal: false,
        });
        publish(&broker, &msg);
    }
    collect(&notify_a, 1);
    collect(&notify_b, 1);
    // A write from tenant-a only notifies tenant-a.
    let msg = ClusterMessage::Write(AfterImage {
        tenant: TenantId::new("tenant-a"),
        collection: "t".into(),
        key: Key::of(1i64),
        version: 1,
        doc: Some(doc! { "n" => 5i64 }),
        written_at: 0,
        trace: None,
    });
    publish(&broker, &msg);
    let a = collect(&notify_a, 1);
    assert_eq!(a.len(), 1);
    std::thread::sleep(Duration::from_millis(200));
    assert!(collect_available(&notify_b).is_empty(), "tenant-b sees nothing");
    cluster.shutdown();
}

/// The multi-query index is a pure optimization: with and without it, the
/// same workload must produce exactly the same notifications.
#[test]
fn query_index_is_transparent() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let run = |indexed: bool| -> Vec<String> {
        let broker = Broker::new();
        let notify = broker.subscribe(&notify_topic(TENANT));
        let mut cfg = ClusterConfig::new(2, 2);
        cfg.multi_query_index = indexed;
        let cluster = Cluster::start(broker.clone(), cfg);

        // A mix of indexable range queries and non-indexable shapes.
        let mut specs = Vec::new();
        for i in 0..10i64 {
            specs.push(QuerySpec::filter(
                "t",
                doc! { "n" => doc! { "$gte" => i * 10, "$lt" => i * 10 + 10 } },
            ));
        }
        specs.push(QuerySpec::filter(
            "t",
            doc! { "$or" => vec![
                invalidb_common::Value::Object(doc! { "n" => 5i64 }),
                invalidb_common::Value::Object(doc! { "tag" => "x" }),
            ]},
        ));
        specs.push(QuerySpec::filter("t", doc! { "n" => doc! { "$ne" => 50i64 } }));
        for (i, spec) in specs.iter().enumerate() {
            publish(&broker, &subscribe_msg(spec, i as u64 + 1, vec![], 0));
        }
        // Deterministic write mix: inserts, updates (moving records across
        // ranges), deletes.
        let mut rng = StdRng::seed_from_u64(77);
        let mut versions = HashMap::new();
        for _ in 0..120 {
            let key = rng.gen_range(0..15i64);
            let v = versions.entry(key).or_insert(0u64);
            *v += 1;
            let msg = if rng.gen_bool(0.2) {
                write_msg("t", Key::of(key), *v, None)
            } else {
                let n = rng.gen_range(0..100i64);
                write_msg("t", Key::of(key), *v, Some(doc! { "n" => n, "tag" => "x" }))
            };
            publish(&broker, &msg);
        }
        // Collect until quiescent. Heartbeats keep arriving forever and
        // must not reset the idle counter.
        let mut out = Vec::new();
        let mut idle = 0;
        while idle < 8 {
            match notify.recv_timeout(Duration::from_millis(100)) {
                Some(p) => {
                    for n in decode(p) {
                        idle = 0;
                        if let NotificationKind::Change(c) = &n.kind {
                            out.push(format!(
                                "{} {} {} v{}",
                                n.subscription.0, c.match_type, c.item.key, c.item.version
                            ));
                        }
                    }
                }
                None => idle += 1,
            }
        }
        cluster.shutdown();
        out.sort();
        out
    };

    let with_index = run(true);
    let without_index = run(false);
    assert!(!with_index.is_empty());
    assert_eq!(with_index, without_index, "index changed observable behaviour");
}

/// The conjunctive/shared-shape corpus: heavy on conjunctions, `$eq`/`$in`
/// shapes and *duplicated* filters (shared across subscriptions and spelled
/// differently), with array-valued attributes and a sorted query.
fn shapes_corpus() -> Vec<ClusterMessage> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let statuses = ["open", "closed", "pending"];
    let mut specs = Vec::new();
    // Conjunctive: equality anchor + range residual.
    for (i, status) in statuses.iter().enumerate() {
        specs.push(QuerySpec::filter(
            "t",
            doc! { "status" => *status, "n" => doc! { "$lt" => (i as i64 + 1) * 30 } },
        ));
    }
    // Eq-heavy and $in shapes.
    specs.push(QuerySpec::filter("t", doc! { "status" => "open" }));
    specs.push(QuerySpec::filter("t", doc! { "status" => doc! { "$in" => vec!["open", "closed"] } }));
    // Duplicated filter, spelled two ways: both normalize to one query
    // hash, so two subscriptions share one group.
    specs.push(QuerySpec::filter("t", doc! { "status" => "open", "n" => doc! { "$gte" => 10i64 } }));
    specs.push(QuerySpec::filter(
        "t",
        doc! { "$and" => vec![
            invalidb_common::Value::Object(doc! { "n" => doc! { "$gte" => 10i64 } }),
            invalidb_common::Value::Object(doc! { "status" => doc! { "$eq" => "open" } }),
        ]},
    ));
    // Multi-op range condition (split into atoms, combined anchor) —
    // matched via array fan-out too.
    specs.push(QuerySpec::filter("t", doc! { "n" => doc! { "$gt" => 5i64, "$lt" => 40i64 } }));
    // A sorted conjunctive query exercises the staged path.
    specs.push(
        QuerySpec::filter("t", doc! { "status" => "open" })
            .sorted_by("n", SortDirection::Asc)
            .with_limit(5),
    );
    let mut corpus: Vec<ClusterMessage> =
        specs.iter().enumerate().map(|(i, spec)| subscribe_msg(spec, i as u64 + 1, vec![], 2)).collect();
    let mut rng = StdRng::seed_from_u64(123);
    let mut versions = HashMap::new();
    for round in 0..120 {
        let key = rng.gen_range(0..12i64);
        let v = versions.entry(key).or_insert(0u64);
        *v += 1;
        corpus.push(if rng.gen_bool(0.15) {
            write_msg("t", Key::of(key), *v, None)
        } else {
            let status = statuses[rng.gen_range(0..statuses.len())];
            let doc = if round % 10 == 9 {
                // Array-valued attribute: fan-out semantics.
                doc! {
                    "status" => status,
                    "n" => vec![rng.gen_range(0..30i64), rng.gen_range(30..90i64)],
                }
            } else {
                doc! { "status" => status, "n" => rng.gen_range(0..90i64) }
            };
            write_msg("t", Key::of(key), *v, Some(doc))
        });
    }
    corpus
}

/// The burst corpus: sixty writes over seven keys, so every key is
/// rewritten again and again while its last transition is still fresh —
/// updates that move a record across the filter boundary, deletes, and late
/// arrivals of versions already superseded.
fn burst_corpus() -> Vec<ClusterMessage> {
    let unsorted = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 25i64 } });
    let sorted = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Desc).with_limit(3);
    let mut corpus = vec![subscribe_msg(&unsorted, 1, vec![], 0), subscribe_msg(&sorted, 2, vec![], 4)];
    let mut versions: HashMap<i64, u64> = HashMap::new();
    for i in 0..60i64 {
        let key = i % 7;
        let v = versions.entry(key).or_insert(0);
        *v += 1;
        corpus.push(if i % 9 == 8 {
            write_msg("t", Key::of(key), *v, None)
        } else {
            write_msg("t", Key::of(key), *v, Some(doc! { "n" => (i * 13) % 50 }))
        });
        if i % 11 == 10 {
            // Stale: the previous version of the same record, matching.
            corpus.push(write_msg("t", Key::of(key), *v - 1, Some(doc! { "n" => 49i64 })));
        }
    }
    corpus
}

/// What each subscription is sent, payload by payload, when `corpus` is
/// published back-to-back to a fresh cluster. A single chain of tasks (1x1
/// grid, one sorting task) makes per-subscription content and order —
/// sorted index positions included — fully deterministic.
fn notify_streams(indexed: bool, corpus: &[ClusterMessage]) -> BTreeMap<u64, Vec<Bytes>> {
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let mut cfg = ClusterConfig::builder(1, 1).sorting_tasks(1).build().unwrap();
    cfg.multi_query_index = indexed;
    let cluster = Cluster::start(broker.clone(), cfg);
    for msg in corpus {
        publish(&broker, msg);
    }
    // Collect until quiescent. Heartbeats keep arriving forever, address
    // nobody and must not reset the idle counter.
    let mut out = BTreeMap::<u64, Vec<Bytes>>::new();
    let mut idle = 0;
    while idle < 8 {
        match notify.recv_timeout(Duration::from_millis(100)) {
            Some(p) => {
                for n in decode(p.clone()) {
                    idle = 0;
                    out.entry(n.subscription.0).or_default().push(p.clone());
                }
            }
            None => idle += 1,
        }
    }
    cluster.shutdown();
    out
}

/// Equivalence proof for the sublinear-matching optimizations: conjunctive
/// anchoring, equality lanes, result-membership candidates and the shared
/// predicate cache must be invisible in the output. Per subscription, the
/// indexed cell must send **byte-identical** payloads in the same order as
/// the force-scan reference, on both corpora.
#[test]
fn conjunctive_and_shared_shapes_notify_identically_to_force_scan() {
    for (name, corpus) in [("shapes", shapes_corpus()), ("burst", burst_corpus())] {
        let with_index = notify_streams(true, &corpus);
        let force_scan = notify_streams(false, &corpus);
        let payloads = with_index.values().map(Vec::len).sum::<usize>();
        assert!(payloads > 50, "{name}: {payloads} payloads is too few to be meaningful");
        assert_eq!(
            with_index.keys().collect::<Vec<_>>(),
            force_scan.keys().collect::<Vec<_>>(),
            "{name}: different subscriptions were addressed"
        );
        for (sub, indexed) in &with_index {
            let scanned = &force_scan[sub];
            assert_eq!(indexed.len(), scanned.len(), "{name} subscription {sub}: count");
            for (i, (a, b)) in indexed.iter().zip(scanned).enumerate() {
                assert_eq!(a, b, "{name} subscription {sub}: payload {i} differs byte-wise");
            }
        }
    }
}
