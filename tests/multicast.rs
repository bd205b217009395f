//! One notification per (write, query), addressed to many — end to end.
//!
//! The cluster matches a write against a query once, so the notify topic
//! carries one envelope per result transition however many subscriptions
//! share the query, and every subscriber still folds exactly the pull
//! result.

use invalidb::broker::{notify_topic, Broker, CLUSTER_TOPIC};
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::common::{ClusterMessage, SubscriptionRequest};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::query::normalize_spec;
use invalidb::store::Store;
use invalidb::{
    doc, Document, Key, NotificationKind, NotifyEnvelope, QuerySpec, SortDirection, SubscriptionId,
    TenantId, Version,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "app";

fn start(qp: usize, wp: usize) -> (Broker, Cluster, AppServer) {
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(qp, wp));
    // A slow host must not re-register a subscription mid-test: the extra
    // initial result would show up in the scripts compared below.
    let config =
        AppServerConfig { subscribe_retry_interval: Duration::from_secs(30), ..Default::default() };
    let app = AppServer::start(TENANT, Arc::new(Store::new()), broker.clone(), config);
    (broker, cluster, app)
}

fn subscribe(app: &AppServer, spec: &QuerySpec) -> Subscription {
    let mut sub = app.subscribe(spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(5)).next(),
        Some(ClientEvent::Initial(_))
    ));
    sub
}

/// Every envelope published on the notify topic so far (heartbeats are no
/// envelopes), waiting until the topic has been quiet for a while.
fn envelopes(raw: &invalidb::broker::Subscription, seen: &mut Vec<NotifyEnvelope>) {
    let mut quiet = 0;
    while quiet < 4 {
        match raw.recv_timeout(Duration::from_millis(100)) {
            Some(payload) => {
                let d = invalidb::json::payload_to_document(&payload).unwrap();
                if let Ok(envelope) = NotifyEnvelope::from_document(d) {
                    seen.push(envelope);
                    quiet = 0;
                }
            }
            None => quiet += 1,
        }
    }
}

fn folded(sub: &Subscription) -> Vec<(Key, Version)> {
    sub.result().entries().iter().map(|e| (e.key.clone(), e.version)).collect()
}

fn pulled(app: &AppServer, spec: &QuerySpec) -> Vec<(Key, Version)> {
    app.find(spec).unwrap().into_iter().map(|item| (item.key, item.version)).collect()
}

/// Drains the subscriptions until each folded result equals the pull
/// result (unsorted results compare as sets).
fn converge(app: &AppServer, subs: &mut [(Subscription, QuerySpec)]) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let mut diverged = Vec::new();
        for (sub, spec) in subs.iter_mut() {
            while sub.events().non_blocking().next().is_some() {}
            let (mut live, mut truth) = (folded(sub), pulled(app, spec));
            if spec.sort.is_empty() {
                live.sort();
                truth.sort();
            }
            if live != truth {
                diverged.push(format!("{spec}: live {live:?} truth {truth:?}"));
            }
        }
        if diverged.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "no convergence:\n{}", diverged.join("\n"));
        std::thread::sleep(Duration::from_millis(20));
    }
}

type Filter = fn(&Document) -> bool;

fn n_of(d: &Document) -> i64 {
    d.get("n").and_then(|v| v.as_i64()).unwrap_or(i64::MIN)
}

/// The queries under test with the predicate the model evaluates for them.
fn queries() -> Vec<(QuerySpec, Filter)> {
    vec![
        (QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 50i64 } }), |d| n_of(d) >= 50),
        (QuerySpec::filter("items", doc! { "n" => doc! { "$lt" => 20i64 } }), |d| n_of(d) < 20),
        (QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 30i64, "$lt" => 70i64 } }), |d| {
            (30..70).contains(&n_of(d))
        }),
        (QuerySpec::filter("items", doc! { "tag" => "x" }), |d| {
            d.get("tag").and_then(|v| v.as_str()) == Some("x")
        }),
    ]
}

/// Applies `count` seeded writes through the app server and returns how
/// many (write, query) pairs changed a result: the record matched before
/// or matches after.
fn write_phase(
    app: &AppServer,
    rng: &mut StdRng,
    model: &mut HashMap<i64, Document>,
    count: usize,
) -> usize {
    let filters: Vec<Filter> = queries().into_iter().map(|(_, f)| f).collect();
    let mut transitions = 0;
    for _ in 0..count {
        let key = rng.gen_range(0..12i64);
        let before = model.get(&key).cloned();
        let after = if before.is_some() && rng.gen_bool(0.2) {
            app.delete("items", Key::of(key)).unwrap();
            model.remove(&key);
            None
        } else {
            let tag = if rng.gen_bool(0.5) { "x" } else { "y" };
            let d = doc! { "n" => rng.gen_range(0..100i64), "tag" => tag };
            app.save("items", Key::of(key), d.clone()).unwrap();
            model.insert(key, d.clone());
            Some(d)
        };
        transitions += filters
            .iter()
            .filter(|matches| {
                before.as_ref().is_some_and(matches) || after.as_ref().is_some_and(matches)
            })
            .count();
    }
    transitions
}

fn changes(envelopes: &[NotifyEnvelope]) -> impl Iterator<Item = &NotifyEnvelope> {
    envelopes.iter().filter(|e| matches!(e.kind, NotificationKind::Change(_)))
}

#[test]
fn one_envelope_per_transition_however_many_subscribers_share_the_query() {
    let (broker, cluster, app) = start(2, 2);
    let raw = broker.subscribe(&notify_topic(TENANT));
    let mut rng = StdRng::seed_from_u64(15);
    let mut model = HashMap::new();
    write_phase(&app, &mut rng, &mut model, 10); // preload: non-empty initial results

    // Four subscribers share the first filter; the other filters have one.
    let queries = queries();
    let shared = queries[0].0.clone();
    let mut subs: Vec<(Subscription, QuerySpec)> = Vec::new();
    for _ in 0..4 {
        subs.push((subscribe(&app, &shared), shared.clone()));
    }
    for (spec, _) in &queries[1..] {
        subs.push((subscribe(&app, spec), spec.clone()));
    }
    // A fifth member of the shared group that nobody keeps alive: it is
    // registered straight on the cluster topic, so no keeper extends its
    // TTL and it lapses on its own.
    let lapsing = SubscriptionId(999_999);
    let request = ClusterMessage::Subscribe(SubscriptionRequest {
        tenant: TenantId::new(TENANT),
        subscription: lapsing,
        query_hash: normalize_spec(&shared).stable_hash(),
        spec: shared.clone(),
        initial: vec![],
        slack: 0,
        ttl_micros: 3_000_000,
        renewal: false,
    });
    broker.publish(CLUSTER_TOPIC, invalidb::json::WireCodec.encode(&request.to_document()));
    let mut seen = Vec::new();
    envelopes(&raw, &mut seen);
    // An initial result is for its subscriber alone.
    assert!(seen.iter().all(|e| e.subscriptions.len() == 1));
    let mut greeted: Vec<SubscriptionId> = seen.iter().map(|e| e.subscriptions[0]).collect();
    greeted.sort();
    greeted.dedup();
    let mut expected: Vec<SubscriptionId> = subs.iter().map(|(sub, _)| sub.id()).collect();
    expected.push(lapsing);
    expected.sort();
    assert_eq!(greeted, expected);

    // Phase 1: everyone is subscribed.
    let members: Vec<SubscriptionId> = subs[..4].iter().map(|(sub, _)| sub.id()).collect();
    let phase1 = write_phase(&app, &mut rng, &mut model, 60);
    converge(&app, &mut subs);
    let from = seen.len();
    envelopes(&raw, &mut seen);
    assert_eq!(changes(&seen[from..]).count(), phase1, "one envelope per (write, query) transition");
    let mut everyone = members.clone();
    everyone.push(lapsing);
    everyone.sort();
    let to_shared: Vec<&NotifyEnvelope> =
        changes(&seen[from..]).filter(|e| e.subscriptions.contains(&members[1])).collect();
    assert!(!to_shared.is_empty());
    for envelope in &to_shared {
        assert_eq!(envelope.subscriptions, everyone, "the whole group, in id order");
    }

    // One member unsubscribes mid-stream and the unattended one's TTL runs
    // out; only those two stop being addressed.
    let (left, _) = subs.remove(0);
    let frozen = folded(&left);
    app.unsubscribe(&left);
    std::thread::sleep(Duration::from_millis(3_600));
    let phase2 = write_phase(&app, &mut rng, &mut model, 60);
    converge(&app, &mut subs);
    let from = seen.len();
    envelopes(&raw, &mut seen);
    assert_eq!(changes(&seen[from..]).count(), phase2);
    let mut remaining = members[1..].to_vec();
    remaining.sort();
    let to_shared: Vec<&NotifyEnvelope> =
        changes(&seen[from..]).filter(|e| e.subscriptions.contains(&members[1])).collect();
    assert!(!to_shared.is_empty());
    for envelope in &to_shared {
        assert_eq!(envelope.subscriptions, remaining, "only the two departed members are gone");
    }
    let mut left = left;
    assert!(left.events().non_blocking().next().is_none(), "nothing after unsubscribe");
    assert_eq!(folded(&left), frozen);

    // The notifier counts notifications by addressee and envelopes by
    // publish; both agree with what the topic carried.
    let counters = cluster.metrics().counters;
    let addressed: usize = seen.iter().map(|e| e.subscriptions.len()).sum();
    assert_eq!(counters["notifier.published"], addressed as u64);
    assert_eq!(counters["notifier.envelopes"], seen.len() as u64);
    assert!(addressed > seen.len(), "sharing must have saved publishes");
    cluster.shutdown();
}

#[test]
fn shared_sorted_window_sends_every_subscriber_the_same_script() {
    let (broker, cluster, app) = start(1, 2);
    let raw = broker.subscribe(&notify_topic(TENANT));
    for i in 0..6i64 {
        app.save("players", Key::of(i), doc! { "score" => i * 10 }).unwrap();
    }
    let spec =
        QuerySpec::filter("players", doc! {}).sorted_by("score", SortDirection::Desc).with_limit(3);
    let mut subs: Vec<(Subscription, QuerySpec)> =
        (0..3).map(|_| (subscribe(&app, &spec), spec.clone())).collect();
    let mut ids: Vec<SubscriptionId> = subs.iter().map(|(sub, _)| sub.id()).collect();
    ids.sort();
    let mut seen = Vec::new();
    envelopes(&raw, &mut seen);
    let initials = seen.len();

    // Reorder the top three, push records in from below and out again.
    for (key, score) in [(0i64, 100i64), (5, 45), (1, 70), (0, 5), (2, 99), (4, 41), (3, 98), (1, 100)] {
        app.save("players", Key::of(key), doc! { "score" => score }).unwrap();
    }
    let mut scripts: Vec<Vec<String>> = vec![Vec::new(); subs.len()];
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        for ((sub, _), script) in subs.iter_mut().zip(&mut scripts) {
            while let Some(event) = sub.events().non_blocking().next() {
                match event {
                    ClientEvent::Change(c) => script.push(format!(
                        "{} {} v{} {:?}<-{:?}",
                        c.match_type, c.item.key, c.item.version, c.item.index, c.old_index
                    )),
                    other => panic!("slack of three must absorb this workload, got {other:?}"),
                }
            }
        }
        if subs.iter().all(|(sub, spec)| folded(sub) == pulled(&app, spec)) {
            break;
        }
        assert!(Instant::now() < deadline, "sorted results did not converge");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(scripts[0].len() >= 5, "workload must move the window: {:?}", scripts[0]);
    assert!(scripts[0].iter().any(|line| line.starts_with("changeIndex")));
    assert_eq!(scripts[0], scripts[1]);
    assert_eq!(scripts[0], scripts[2]);

    envelopes(&raw, &mut seen);
    let edits: Vec<&NotifyEnvelope> = changes(&seen[initials..]).collect();
    assert_eq!(edits.len(), scripts[0].len(), "one envelope per edit, not per subscriber");
    assert!(edits.iter().all(|e| e.subscriptions == ids));
    cluster.shutdown();
}
