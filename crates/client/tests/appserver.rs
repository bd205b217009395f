//! Application-server integration tests against a real cluster.

use invalidb_broker::{notify_topic, Broker};
use invalidb_client::{AppServer, AppServerConfig, ClientEvent};
use invalidb_common::{
    doc, ChangeItem, Key, MatchType, NotificationKind, NotifyEnvelope, QuerySpec, ResultItem,
    SortDirection, SubscriptionId, TenantId,
};
use invalidb_core::{Cluster, ClusterConfig};
use invalidb_json::WireCodec;
use invalidb_store::{Store, UpdateSpec};
use std::sync::Arc;
use std::time::Duration;

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

#[test]
fn renewal_after_maintenance_error_is_automatic_and_rate_limited() {
    let (_broker, _store, cluster, app) = setup(1, 1);
    for i in 0..10i64 {
        app.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
    }
    // slack defaults to 3; limit 2 → window of 5.
    let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
    assert_eq!(sub.result().keys(), vec![Key::of(0i64), Key::of(1i64)]);

    // Delete enough leading items to exhaust the slack and force a renewal.
    for i in 0..5i64 {
        app.delete("t", Key::of(i)).unwrap();
    }
    // Eventually the result converges to [5, 6] — via incremental updates,
    // one maintenance error, and an automatic renewal.
    let mut saw_error = false;
    wait_for(
        || {
            while let Some(ev) = sub.events().non_blocking().next() {
                if matches!(ev, ClientEvent::MaintenanceError(_)) {
                    saw_error = true;
                }
            }
            (sub.result().keys() == vec![Key::of(5i64), Key::of(6i64)]).then_some(())
        },
        Duration::from_secs(10),
    )
    .unwrap_or_else(|| panic!("converged result, got {:?}", sub.result().keys()));
    assert!(saw_error, "client observed the renewal request");
    assert!(app.renewals_performed() >= 1);
    cluster.shutdown();
}

#[test]
fn heartbeat_loss_terminates_subscriptions() {
    let broker = Broker::new();
    let store = Arc::new(Store::new());
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(1, 1));
    let config =
        AppServerConfig::builder().heartbeat_timeout(Duration::from_millis(300)).build().unwrap();
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
    let config = AppServerConfig::builder().slack(1).max_slack(8).build().unwrap();
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

#[test]
fn aggregate_queries_end_to_end() {
    use invalidb_common::{AggregateOp, Value};
    let (_broker, _store, cluster, app) = setup(2, 2);
    for (id, price) in [(1i64, 10i64), (2, 30), (3, 20)] {
        app.insert("orders", Key::of(id), doc! { "price" => price, "open" => true }).unwrap();
    }
    // Live SUM(price) over open orders.
    let spec =
        QuerySpec::filter("orders", doc! { "open" => true }).aggregated(AggregateOp::Sum, Some("price"));
    let mut sub = app.subscribe(&spec).unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("initial aggregate") {
        ClientEvent::Aggregate { value, count } => {
            assert_eq!(value, Value::Int(60));
            assert_eq!(count, 3);
        }
        other => panic!("expected aggregate, got {other:?}"),
    }
    // New matching order raises the sum.
    app.insert("orders", Key::of(4i64), doc! { "price" => 40i64, "open" => true }).unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("sum update") {
        ClientEvent::Aggregate { value, count } => {
            assert_eq!(value, Value::Int(100));
            assert_eq!(count, 4);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Closing an order (update-out of the filter) lowers it.
    app.update(
        "orders",
        Key::of(2i64),
        &UpdateSpec::from_document(&doc! { "$set" => doc! { "open" => false } }).unwrap(),
    )
    .unwrap();
    match sub.events().timeout(Duration::from_secs(5)).next().expect("sum drop") {
        ClientEvent::Aggregate { value, count } => {
            assert_eq!(value, Value::Int(70));
            assert_eq!(count, 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(sub.aggregate(), Some(&(Value::Int(70), 3)));

    // Irrelevant writes do not notify.
    app.insert("other", Key::of(1i64), doc! { "x" => 1i64 }).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(sub.events().non_blocking().next().is_none());

    // Combining aggregate with sort is rejected at subscribe.
    let bad = QuerySpec::filter("orders", doc! {})
        .sorted_by("price", SortDirection::Asc)
        .aggregated(AggregateOp::Count, None);
    assert!(app.subscribe(&bad).is_err());
    cluster.shutdown();
}

#[test]
fn coalesced_receive_collapses_hot_key_churn() {
    let (_broker, _store, cluster, app) = setup(1, 1);
    let spec = QuerySpec::filter("hot", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");

    // A hot key updated 20 times plus one cold key.
    app.insert("hot", Key::of("hk"), doc! { "n" => 0i64 }).unwrap();
    for i in 1..20i64 {
        app.save("hot", Key::of("hk"), doc! { "n" => i }).unwrap();
    }
    app.insert("hot", Key::of("cold"), doc! { "n" => 100i64 }).unwrap();
    std::thread::sleep(Duration::from_millis(400));

    let batch: Vec<ClientEvent> = sub.events().coalesced(Duration::from_millis(300)).collect();
    // 21 raw notifications collapse to two net events (hk add, cold add).
    assert_eq!(batch.len(), 2, "collapsed batch: {batch:?}");
    let hot = batch
        .iter()
        .find_map(|e| match e {
            ClientEvent::Change(c) if c.item.key == Key::of("hk") => Some(c),
            _ => None,
        })
        .expect("hot key event");
    assert_eq!(hot.match_type, MatchType::Add);
    assert_eq!(
        hot.item.doc.as_ref().unwrap().get("n"),
        Some(&invalidb_common::Value::Int(19)),
        "net effect carries the final content"
    );
    // The local result was maintained from the *uncollapsed* stream.
    assert_eq!(sub.result().len(), 2);
    cluster.shutdown();
}

/// Every drop is counted: a torn envelope, bytes that are no payload, an
/// envelope in JSON text, a payload that is no envelope, an id without a
/// live subscription and a subscriber that went away each leave their mark, and none of them keeps
/// the live addressee of the same envelope from its event.
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

    let delivered = counter("appserver.events_delivered");
    let gone = live.id();
    drop(live);
    broker.publish(&topic, WireCodec.encode(&envelope(vec![gone])));
    wait_for(|| (counter("appserver.notify_channel_closed") == 1).then_some(()), Duration::from_secs(5))
        .expect("closed channel counted");
    assert_eq!(counter("appserver.events_delivered"), delivered, "nothing was delivered");
    cluster.shutdown();
}
