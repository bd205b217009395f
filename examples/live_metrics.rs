//! Live metrics: real-time aggregate queries (this repository's extension
//! implementing the paper's §8.1 future work — aggregations as an
//! additional processing stage).
//!
//! A storefront keeps four live KPIs over its `orders` collection — open
//! order count, open revenue, average basket and largest order — each as a
//! push-based aggregate subscription. No polling, no recomputation: the
//! aggregation stage maintains the values incrementally from the filtering
//! stage's output.
//!
//! Run with: `cargo run --release --example live_metrics`

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::common::AggregateOp;
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::{Store, UpdateSpec};
use invalidb::{doc, Key, QuerySpec};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app = AppServer::start("shop", Arc::clone(&store), broker.clone(), AppServerConfig::default());

    let open = doc! { "status" => "open" };
    let metrics: Vec<(&str, QuerySpec)> = vec![
        ("open orders", QuerySpec::filter("orders", open.clone()).aggregated(AggregateOp::Count, None)),
        (
            "open revenue",
            QuerySpec::filter("orders", open.clone()).aggregated(AggregateOp::Sum, Some("total")),
        ),
        (
            "avg basket",
            QuerySpec::filter("orders", open.clone()).aggregated(AggregateOp::Avg, Some("total")),
        ),
        (
            "largest order",
            QuerySpec::filter("orders", open.clone()).aggregated(AggregateOp::Max, Some("total")),
        ),
    ];
    let mut subs: Vec<(&str, Subscription)> = metrics
        .iter()
        .map(|(name, spec)| {
            let mut sub = app.subscribe(spec).expect("subscribe");
            match sub.events().timeout(Duration::from_secs(5)).next() {
                Some(ClientEvent::Aggregate { .. }) => {}
                other => panic!("expected initial aggregate, got {other:?}"),
            }
            (*name, sub)
        })
        .collect();

    let dashboard = |subs: &mut Vec<(&str, Subscription)>, label: &str| {
        for (_, sub) in subs.iter_mut() {
            while sub.events().non_blocking().next().is_some() {}
        }
        println!("\n== {label} ==");
        for (name, sub) in subs.iter() {
            let (value, count) = sub.aggregate().expect("aggregate value");
            println!("  {name:<14} {value}   ({count} matching)");
        }
    };

    dashboard(&mut subs, "empty shop");

    for (id, total) in [(1i64, 40i64), (2, 100), (3, 25)] {
        app.insert("orders", Key::of(id), doc! { "status" => "open", "total" => total }).unwrap();
    }
    std::thread::sleep(Duration::from_millis(400));
    dashboard(&mut subs, "three orders placed (40 + 100 + 25)");

    // The biggest order ships: drops out of every open-order metric.
    app.update(
        "orders",
        Key::of(2i64),
        &UpdateSpec::from_document(&doc! { "$set" => doc! { "status" => "shipped" } }).unwrap(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    dashboard(&mut subs, "order #2 shipped");

    // Upsell on order #1.
    app.update(
        "orders",
        Key::of(1i64),
        &UpdateSpec::from_document(&doc! { "$inc" => doc! { "total" => 60i64 } }).unwrap(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    dashboard(&mut subs, "order #1 upsold (+60)");

    // Sanity: live values equal recomputation from the store.
    let pulled = app.find(&QuerySpec::filter("orders", open)).unwrap();
    let expect_sum: i64 =
        pulled.iter().map(|r| r.doc.as_ref().unwrap().get("total").unwrap().as_i64().unwrap()).sum();
    let (live_sum, live_count) = subs[1].1.aggregate().unwrap().clone();
    assert_eq!(live_count as usize, pulled.len());
    assert_eq!(live_sum, invalidb::Value::Int(expect_sum));
    println!("\nlive aggregates equal pull-side recomputation ✓");
    cluster.shutdown();
}
