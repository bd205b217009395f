//! Application-server integration tests against a real cluster.
// These tests wait on a real cluster and time the keeper against the wall
// clock; the crate's `Instant::now` ban is for the code under test.
#![allow(clippy::disallowed_methods)]

use invalidb_broker::{notify_topic, Broker};
use invalidb_client::{AppServer, AppServerConfig, ClientEvent};
use invalidb_common::{
    doc, ChangeItem, Key, MaintenanceError, MatchType, NotificationKind, NotifyEnvelope, QuerySpec,
    ResultItem, SortDirection, SubscriptionId, TenantId,
};
use invalidb_core::{Cluster, ClusterConfig};
use invalidb_json::WireCodec;
use invalidb_store::{Store, UpdateSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn setup(qp: usize, wp: usize) -> (Broker, Arc<Store>, Cluster, AppServer) {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(qp, wp));
    let app = AppServer::start("app", Arc::clone(&store), broker.clone(), AppServerConfig::default());
    (broker, store, cluster, app)
}

fn wait_for<T>(mut f: impl FnMut() -> Option<T>, timeout: Duration) -> Option<T> {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if let Some(v) = f() {
            return Some(v);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn push_and_pull_agree() {
    let (_broker, _store, cluster, app) = setup(2, 2);
    // Pre-existing data.
    for i in 0..10i64 {
        app.insert("nums", Key::of(i), doc! { "n" => i }).unwrap();
    }
    let spec = QuerySpec::filter("nums", doc! { "n" => doc! { "$gte" => 5i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("initial") {
        ClientEvent::Initial(items) => assert_eq!(items.len(), 5),
        other => panic!("expected initial, got {other:?}"),
    }
    // Pull result matches push initial result.
    let pulled = app.find(&spec).unwrap();
    assert_eq!(pulled.len(), 5);
    assert_eq!(sub.result().len(), 5);

    // A write through the app server pushes an incremental update.
    app.insert("nums", Key::of(100i64), doc! { "n" => 100i64 }).unwrap();
    let ev = sub.events().timeout(Duration::from_secs(5)).next().expect("push update");
    match ev {
        ClientEvent::Change(c) => {
            assert_eq!(c.match_type, MatchType::Add);
            assert_eq!(c.item.key, Key::of(100i64));
        }
        other => panic!("expected change, got {other:?}"),
    }
    assert_eq!(sub.result().len(), 6);
    // Pull agrees again.
    assert_eq!(app.find(&spec).unwrap().len(), 6);
    cluster.shutdown();
}

#[test]
fn sorted_subscription_maintains_order() {
    let (_broker, _store, cluster, app) = setup(1, 2);
    for (id, score) in [("a", 10i64), ("b", 30), ("c", 20)] {
        app.insert("players", Key::of(id), doc! { "score" => score }).unwrap();
    }
    let spec =
        QuerySpec::filter("players", doc! {}).sorted_by("score", SortDirection::Desc).with_limit(2);
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
    assert_eq!(sub.result().keys(), vec![Key::of("b"), Key::of("c")]);

    // "a" overtakes everyone.
    app.update(
        "players",
        Key::of("a"),
        &UpdateSpec::from_document(&doc! { "$set" => doc! { "score" => 99i64 } }).unwrap(),
    )
    .unwrap();
    wait_for(
        || {
            while sub.events().non_blocking().next().is_some() {}
            (sub.result().keys() == vec![Key::of("a"), Key::of("b")]).then_some(())
        },
        Duration::from_secs(5),
    )
    .expect("a enters at the top");
    cluster.shutdown();
}

/// Five sorted windows run out of slack at once. Each renews automatically,
/// and the renewals keep to the poll-frequency limit: with a burst of one
/// and ten tokens a second, at most `1 + 10·t` renewals can have happened
/// `t` seconds after the errors (the bound allows one more).
#[test]
fn renewal_after_maintenance_error_is_automatic_and_rate_limited() {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let config =
        AppServerConfig { renewal_burst: 1, renewals_per_sec: 10.0, ..AppServerConfig::default() };
    let app = AppServer::start("app", Arc::clone(&store), broker.clone(), config);
    let collections = ["t0", "t1", "t2", "t3", "t4"];
    for c in collections {
        for i in 0..10i64 {
            app.insert(c, Key::of(i), doc! { "n" => i }).unwrap();
        }
    }
    // slack defaults to 3; limit 2 → window of 5.
    let mut subs: Vec<_> = collections
        .iter()
        .map(|c| {
            let spec = QuerySpec::filter(*c, doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
            let mut sub = app.subscribe(&spec).unwrap();
            sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
            assert_eq!(sub.result().keys(), vec![Key::of(0i64), Key::of(1i64)]);
            sub
        })
        .collect();

    // Delete enough leading items of every window to exhaust its slack.
    let errors_forced = Instant::now();
    for c in collections {
        for i in 0..5i64 {
            app.delete(c, Key::of(i)).unwrap();
        }
    }
    // Each result converges to [5, 6] — via incremental updates, one
    // maintenance error and an automatic renewal.
    let mut saw_error = [false; 5];
    wait_for(
        || {
            let renewed = app.renewals_performed();
            let t = errors_forced.elapsed();
            assert!(
                renewed as f64 <= 2.0 + 10.0 * t.as_secs_f64(),
                "{renewed} renewals {t:?} after the errors"
            );
            let mut converged = true;
            for (sub, saw) in subs.iter_mut().zip(&mut saw_error) {
                while let Some(ev) = sub.events().non_blocking().next() {
                    *saw |= matches!(ev, ClientEvent::MaintenanceError(_));
                }
                converged &= sub.result().keys() == vec![Key::of(5i64), Key::of(6i64)];
            }
            (converged && renewed >= 5).then_some(())
        },
        Duration::from_secs(10),
    )
    .unwrap_or_else(|| {
        let keys: Vec<_> = subs.iter().map(|s| s.result().keys()).collect();
        panic!("{} renewals, results {keys:?}", app.renewals_performed())
    });
    assert!(saw_error.iter().all(|&saw| saw), "every client observed its renewal request");
    cluster.shutdown();
}

/// A renewal is published when its maintenance error arrives, not at the
/// next tick of a timer: twenty forced renewals on an idle stack wait a
/// median under 5 ms, a tenth of the keeper's housekeeping period.
#[test]
fn a_renewal_is_published_when_its_error_arrives() {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    // A burst large enough that no renewal waits for a token.
    let config = AppServerConfig { renewal_burst: 32, ..AppServerConfig::default() };
    let app = AppServer::start("app", Arc::clone(&store), broker.clone(), config);
    for i in 0..10i64 {
        app.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
    }
    let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");

    let error = WireCodec.encode(
        &NotifyEnvelope {
            tenant: TenantId::new("app"),
            subscriptions: vec![sub.id()],
            kind: NotificationKind::Error(MaintenanceError { reason: "forced".into() }),
            caused_by_write_at: 0,
            trace: None,
        }
        .as_ref()
        .to_document(),
    );
    for n in 1..=20 {
        broker.publish(&notify_topic("app"), error.clone());
        wait_for(|| (app.renewals_performed() >= n).then_some(()), Duration::from_secs(5))
            .unwrap_or_else(|| panic!("renewal {n} published"));
        while sub.events().non_blocking().next().is_some() {}
    }
    let waits = app.metrics().hists.get("appserver.renewal_wait_us").cloned().expect("renewal waits");
    assert_eq!(waits.count, 20);
    assert!(waits.p50 < 5_000, "median renewal wait {} µs", waits.p50);
    cluster.shutdown();
}

/// The keeper's input is its wake-up channel, whose senders the dispatcher
/// and the epoch watcher hold: dropping the server ends both, and the keeper
/// with them, even while it waits for a token. Two forced renewals with a
/// burst of one leave the second queued on a bucket that refills once in
/// a thousand seconds; the drop still returns at once.
#[test]
fn a_server_whose_keeper_waits_for_a_token_drops_promptly() {
    let broker = Broker::new();
    let config = AppServerConfig {
        renewal_burst: 1,
        renewals_per_sec: 0.001,
        subscribe_retry_interval: Duration::from_secs(3600),
        ..AppServerConfig::default()
    };
    let app = AppServer::start("app", Arc::new(Store::new()), broker.clone(), config);
    let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
    let sub = app.subscribe(&spec).unwrap();
    let error = WireCodec.encode(
        &NotifyEnvelope {
            tenant: TenantId::new("app"),
            subscriptions: vec![sub.id()],
            kind: NotificationKind::Error(MaintenanceError { reason: "forced".into() }),
            caused_by_write_at: 0,
            trace: None,
        }
        .as_ref()
        .to_document(),
    );
    broker.publish(&notify_topic("app"), error.clone());
    wait_for(|| (app.renewals_performed() == 1).then_some(()), Duration::from_secs(5))
        .expect("the first renewal takes the only token");
    broker.publish(&notify_topic("app"), error);
    let pending = || app.metrics().gauges.get("appserver.renewals_pending").copied();
    wait_for(|| (pending() == Some(1)).then_some(()), Duration::from_secs(5))
        .expect("the second renewal waits for a token");
    assert_eq!(app.renewals_performed(), 1);

    let (done, dropped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(app);
        let _ = done.send(());
    });
    dropped.recv_timeout(Duration::from_secs(10)).expect("the drop returned");
    drop(sub);
}

#[test]
fn heartbeat_loss_terminates_subscriptions() {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let config =
        AppServerConfig { heartbeat_timeout: Duration::from_millis(300), ..AppServerConfig::default() };
    let app = AppServer::start("app", Arc::clone(&store), broker.clone(), config);

    let spec = QuerySpec::filter("t", doc! {});
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");

    // Kill the cluster: heartbeats stop; the app server must signal loss.
    cluster.shutdown();
    let ev = wait_for(
        || match sub.events().timeout(Duration::from_millis(100)).next() {
            Some(ClientEvent::ConnectionLost) => Some(()),
            _ => None,
        },
        Duration::from_secs(10),
    );
    assert!(ev.is_some(), "subscription terminated with connection error");
    // The pull path (store) is completely unaffected — isolated failure
    // domain (§5).
    app.insert("t", Key::of(1i64), doc! { "x" => 1i64 }).unwrap();
    assert_eq!(app.find(&spec).unwrap().len(), 1);
}

#[test]
fn unsubscribe_stops_events() {
    let (_broker, _store, cluster, app) = setup(1, 1);
    let spec = QuerySpec::filter("t", doc! {});
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
    app.unsubscribe(&sub);
    std::thread::sleep(Duration::from_millis(200));
    app.insert("t", Key::of(1i64), doc! { "x" => 1i64 }).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(sub.events().non_blocking().next().is_none(), "no events after unsubscribe");
    cluster.shutdown();
}

#[test]
fn two_app_servers_share_one_cluster() {
    // Multi-tenancy: one cluster, two applications, isolated data.
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let store_a = Arc::new(Store::new());
    let store_b = Arc::new(Store::new());
    let app_a =
        AppServer::start("tenant-a", Arc::clone(&store_a), broker.clone(), AppServerConfig::default());
    let app_b =
        AppServer::start("tenant-b", Arc::clone(&store_b), broker.clone(), AppServerConfig::default());

    let spec = QuerySpec::filter("t", doc! {});
    let mut sub_a = app_a.subscribe(&spec).unwrap();
    let mut sub_b = app_b.subscribe(&spec).unwrap();
    sub_a.events().timeout(Duration::from_secs(5)).next().expect("initial a");
    sub_b.events().timeout(Duration::from_secs(5)).next().expect("initial b");

    app_a.insert("t", Key::of(1i64), doc! { "from" => "a" }).unwrap();
    match sub_a.events().timeout(Duration::from_secs(5)).next().expect("a notified") {
        ClientEvent::Change(c) => assert_eq!(c.match_type, MatchType::Add),
        other => panic!("unexpected {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(300));
    assert!(sub_b.events().non_blocking().next().is_none(), "tenant-b unaffected");
    cluster.shutdown();
}

#[test]
fn slack_grows_adaptively_with_renewals() {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let config = AppServerConfig { default_slack: 1, max_slack: 8, ..AppServerConfig::default() };
    let app = AppServer::start("adapt", Arc::clone(&store), broker.clone(), config);

    for i in 0..40i64 {
        app.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
    }
    let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
    assert_eq!(app.current_slack(&sub), Some(1));

    // Delete-heavy churn forces renewals; each renewal doubles the slack.
    for i in 0..30i64 {
        app.delete("t", Key::of(i)).unwrap();
    }
    wait_for(
        || {
            while sub.events().non_blocking().next().is_some() {}
            (sub.result().keys() == vec![Key::of(30i64), Key::of(31i64)]).then_some(())
        },
        Duration::from_secs(10),
    )
    .unwrap_or_else(|| panic!("converged, got {:?}", sub.result().keys()));
    let renewals = app.renewals_performed();
    assert!(renewals >= 1, "at least one renewal");
    let slack = app.current_slack(&sub).unwrap();
    assert!(slack > 1, "slack grew: {slack}");
    assert!(slack <= 8, "slack capped: {slack}");
    cluster.shutdown();
}

/// Every drop is counted: a torn envelope, bytes that are no payload, an
/// envelope in JSON text, a payload that is no envelope, an id without a
/// live subscription and a subscriber that went away each leave their mark, and none of them keeps
/// the live addressee of the same envelope from its event. A subscriber
/// that went away is cancelled, not kept alive.
#[test]
fn undeliverable_notifications_are_counted() {
    let (broker, _store, cluster, app) = setup(1, 1);
    let spec = QuerySpec::filter("nums", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut live = app.subscribe(&spec).unwrap();
    assert!(matches!(
        live.events().timeout(Duration::from_secs(5)).next(),
        Some(ClientEvent::Initial(_))
    ));
    let counter = |name: &str| app.metrics().counters.get(name).copied().unwrap_or(0);
    let topic = notify_topic("app");
    let envelope = |subscriptions: Vec<SubscriptionId>| {
        let envelope = NotifyEnvelope {
            tenant: TenantId::new("app"),
            subscriptions,
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::Add,
                item: ResultItem::new(Key::of("k"), 1, doc! { "n" => 1i64 }),
                old_index: None,
            }),
            caused_by_write_at: 0,
            trace: None,
        };
        envelope.as_ref().to_document()
    };

    let whole = WireCodec.encode(&envelope(vec![SubscriptionId(424_242), live.id()]));
    broker.publish(&topic, bytes::Bytes::copy_from_slice(&whole[..whole.len() / 2]));
    broker.publish(&topic, bytes::Bytes::from_static(b"no payload"));
    broker.publish(&topic, invalidb_json::to_bytes(&envelope(vec![live.id()])).into());
    broker.publish(&topic, WireCodec.encode(&doc! { "type" => "add" }));
    broker.publish(&topic, whole);
    // (A slow host may re-register the subscription and deliver a second
    // initial result first.)
    let change = wait_for(
        || match live.events().non_blocking().next() {
            Some(ClientEvent::Change(c)) => Some(c),
            _ => None,
        },
        Duration::from_secs(5),
    )
    .expect("the live addressee must still get its event");
    assert_eq!(change.item.key, Key::of("k"));
    assert_eq!(counter("appserver.notify_decode_errors"), 4);
    assert_eq!(counter("appserver.notify_unknown_subscription"), 1);
    assert_eq!(counter("appserver.notify_channel_closed"), 0);

    // The cluster's live query groups, as its cells last reported them.
    let active_queries = || {
        let gauges = cluster.metrics().gauges;
        gauges
            .iter()
            .filter(|(name, _)| name.starts_with("matching.") && name.ends_with(".active_queries"))
            .map(|(_, n)| *n)
            .sum::<u64>()
    };
    wait_for(|| (active_queries() == 1).then_some(()), Duration::from_secs(5))
        .expect("the subscription's query is live in the cluster");

    // A subscription dropped without `unsubscribe`: its closed channel is
    // counted once, and the subscription is cancelled, here and in the
    // cluster.
    let delivered = counter("appserver.events_delivered");
    let gone = live.id();
    drop(live);
    broker.publish(&topic, WireCodec.encode(&envelope(vec![gone])));
    wait_for(|| (counter("appserver.notify_channel_closed") == 1).then_some(()), Duration::from_secs(5))
        .expect("closed channel counted");
    broker.publish(&topic, WireCodec.encode(&envelope(vec![gone])));
    wait_for(
        || (counter("appserver.notify_unknown_subscription") == 2).then_some(()),
        Duration::from_secs(5),
    )
    .expect("a cancelled subscription is unknown to the dispatcher");
    assert_eq!(counter("appserver.notify_channel_closed"), 1, "counted once");
    assert_eq!(counter("appserver.events_delivered"), delivered, "nothing was delivered");
    wait_for(|| (active_queries() == 0).then_some(()), Duration::from_secs(5))
        .expect("the abandoned subscription's query leaves the cluster");
    cluster.shutdown();
}

#[test]
#[should_panic(expected = "invalid config `max_slack`")]
fn start_rejects_a_struct_literal_with_zero_max_slack() {
    let config = AppServerConfig { max_slack: 0, ..AppServerConfig::default() };
    AppServer::start("app", Arc::new(Store::new()), Broker::new(), config);
}
