//! Whole-system integration: store + broker + cluster + app server +
//! baseline providers driven by one workload, verified for agreement.

use invalidb::baselines::{InvaliDbProvider, LiveQuery, LogTailing, PollAndDiff, RealTimeProvider};
use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::{Store, UpdateSpec};
use invalidb::{doc, Key, QuerySpec, SortDirection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// All three real-time mechanisms must converge to the same result as the
/// authoritative pull query, for both unsorted and sorted queries.
#[test]
fn three_providers_converge_to_pull_truth() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app =
        Arc::new(AppServer::start("eq", Arc::clone(&store), broker.clone(), AppServerConfig::default()));

    let poll = PollAndDiff::new(Arc::clone(&store), Duration::from_millis(40));
    let tail = LogTailing::new(Arc::clone(&store));
    let invalidb = InvaliDbProvider::new(Arc::clone(&app));
    let providers: Vec<&dyn RealTimeProvider> = vec![&poll, &tail, &invalidb];

    let unsorted = QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 50i64 } });
    let sorted = QuerySpec::filter("items", doc! {}).sorted_by("n", SortDirection::Desc).with_limit(5);

    let mut subs: Vec<(String, Box<dyn LiveQuery>, QuerySpec)> = Vec::new();
    for p in &providers {
        for spec in [&unsorted, &sorted] {
            let mut sub = p.subscribe(spec).unwrap();
            assert!(matches!(sub.next_event(Duration::from_secs(5)), Some(ClientEvent::Initial(_))));
            subs.push((p.name().to_string(), sub, spec.clone()));
        }
    }

    // Randomized workload through the app server (so InvaliDB sees it too;
    // the baselines watch the store directly).
    let mut rng = StdRng::seed_from_u64(2020);
    for i in 0..300 {
        let key = Key::of(rng.gen_range(0..40i64));
        match rng.gen_range(0..3) {
            0 => {
                let _ = app.save("items", key, doc! { "n" => rng.gen_range(0..100i64) });
            }
            1 => {
                let _ = app.update(
                    "items",
                    key,
                    &UpdateSpec::from_document(
                        &doc! { "$inc" => doc! { "n" => rng.gen_range(-20..20i64) } },
                    )
                    .unwrap(),
                );
            }
            _ => {
                let _ = app.delete("items", key);
            }
        }
        if i % 50 == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Let everything settle (poll interval, oplog tail, cluster pipeline).
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        for (_, sub, _) in subs.iter_mut() {
            while sub.try_next_event().is_some() {}
        }
        let mut divergences = Vec::new();
        for (name, sub, spec) in subs.iter_mut() {
            let mut truth: Vec<Key> = store.execute(spec).unwrap().into_iter().map(|r| r.key).collect();
            let mut live = sub.result().keys();
            if spec.sort.is_empty() {
                live.sort();
                truth.sort();
            }
            if live != truth {
                divergences.push(format!("{name} on {spec}: live {live:?} truth {truth:?}"));
            }
        }
        if divergences.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "providers failed to converge:\n{}",
            divergences.join("\n")
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Final strict check with names for debuggability.
    for (name, sub, spec) in subs.iter_mut() {
        let truth: Vec<Key> = store.execute(spec).unwrap().into_iter().map(|r| r.key).collect();
        let mut live = sub.result().keys();
        let mut expect = truth.clone();
        if spec.sort.is_empty() {
            live.sort();
            expect.sort();
        }
        assert_eq!(live, expect, "{name} diverged on {spec}");
    }
    cluster.shutdown();
}

/// The cluster works with a completely different query engine plugged in
/// (§5.3): end-to-end through broker + cluster + app server with the
/// equality-only KV engine.
#[test]
fn pluggable_kv_engine_end_to_end() {
    use invalidb::query::KvQueryEngine;
    let store = Arc::new(Store::with_engine(Arc::new(KvQueryEngine)));
    let broker = Broker::new();
    let cfg = ClusterConfig { engine: Arc::new(KvQueryEngine), ..ClusterConfig::new(2, 2) };
    let cluster = Cluster::start(broker.clone(), cfg);
    let app = AppServer::start("kv", Arc::clone(&store), broker.clone(), AppServerConfig::default());

    let spec = QuerySpec::filter("kvdata", doc! { "color" => "green" });
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(5)).next(),
        Some(ClientEvent::Initial(_))
    ));
    app.insert("kvdata", Key::of(1i64), doc! { "color" => "green" }).unwrap();
    app.insert("kvdata", Key::of(2i64), doc! { "color" => "red" }).unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("kv engine matches") {
        ClientEvent::Change(c) => assert_eq!(c.item.key, Key::of(1i64)),
        other => panic!("unexpected {other:?}"),
    }
    // Queries beyond the engine's power are rejected cleanly at subscribe.
    let range = QuerySpec::filter("kvdata", doc! { "n" => doc! { "$gt" => 1i64 } });
    assert!(app.subscribe(&range).is_err());
    cluster.shutdown();
}

/// The store's oplog, indexes and the real-time path stay consistent when
/// the same collection takes concurrent traffic from multiple threads.
#[test]
fn concurrent_writers_with_live_subscription() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app = Arc::new(AppServer::start(
        "conc",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig::default(),
    ));

    let spec = QuerySpec::filter("c", doc! { "hot" => true });
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().unwrap();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let app = Arc::clone(&app);
            std::thread::spawn(move || {
                for i in 0..50i64 {
                    let key = Key::of(t * 1_000 + i);
                    app.insert("c", key, doc! { "hot" => i % 2 == 0 }).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // 4 threads x 25 matching inserts.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while sub.result().len() < 100 && std::time::Instant::now() < deadline {
        while sub.events().non_blocking().next().is_some() {}
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(sub.result().len(), 100);
    assert_eq!(store.execute(&spec).unwrap().len(), 100);
    cluster.shutdown();
}

/// A key re-inserted after a delete continues its version sequence past
/// the tombstone, and a live subscriber gets it as an add at that version:
/// the matching node does not drop it as stale. The records are in the
/// store before the cluster starts, so its first write of the key is the
/// re-insert.
#[test]
fn reinserted_key_reaches_a_live_subscriber_at_its_next_version() {
    let store = Arc::new(Store::new());
    for i in 0..10i64 {
        store.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
    }
    store.delete("t", Key::of(3i64)).unwrap();
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let app = AppServer::start("re", Arc::clone(&store), broker.clone(), AppServerConfig::default());
    let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("initial") {
        ClientEvent::Initial(items) => assert_eq!(items.len(), 9, "the deleted key is not in it"),
        other => panic!("unexpected {other:?}"),
    }
    let w = app.insert("t", Key::of(3i64), doc! { "n" => 3i64 }).unwrap();
    assert_eq!(w.version, 3, "the version continues past the tombstone");
    match sub.events().timeout(Duration::from_secs(5)).next().expect("add") {
        ClientEvent::Change(c) => {
            assert_eq!(c.match_type, invalidb::MatchType::Add);
            assert_eq!(c.item.version, 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}
