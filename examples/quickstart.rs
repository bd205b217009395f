//! Quickstart: a complete InvaliDB deployment in one process.
//!
//! Starts the three decoupled components of the paper's architecture —
//! primary store, event layer, and the InvaliDB cluster — plus an
//! application server, then subscribes to a real-time query and watches
//! push notifications arrive as writes happen. Stage tracing is enabled
//! for every write, so the example ends with a per-stage latency
//! breakdown of the pipeline.
//!
//! Run with: `cargo run --release --example quickstart`

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::{Store, UpdateSpec};
use invalidb::{doc, Key, MetricsRegistry, QuerySpec};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), invalidb::Error> {
    // 1. The pull-based primary store (the "MongoDB" of the paper).
    let store = Arc::new(Store::new());

    // 2. The event layer: the only channel into the InvaliDB cluster.
    let broker = Broker::new();

    // One registry shared by cluster and app server: a single snapshot
    // covers the whole pipeline.
    let metrics = MetricsRegistry::new();

    // 3. The InvaliDB cluster: a 2x2 grid of matching nodes — two query
    //    partitions (scales #queries) x two write partitions (scales write
    //    throughput).
    //    A config is a plain struct; `validate` reports what `start` would
    //    panic on.
    let cluster_config = ClusterConfig { metrics: metrics.clone(), ..ClusterConfig::new(2, 2) };
    cluster_config.validate()?;
    let cluster = Cluster::start(broker.clone(), cluster_config);

    // 4. The application server: unified pull/push interface for clients.
    //    `trace_sample_every: 1` traces every write (production would
    //    sample, e.g. 1-in-1000).
    let config = AppServerConfig {
        trace_sample_every: 1,
        metrics: metrics.clone(),
        ..AppServerConfig::default()
    };
    config.validate()?;
    let app = AppServer::start("quickstart", Arc::clone(&store), broker.clone(), config);

    // Seed some data through the app server (writes forward after-images to
    // the cluster automatically).
    for (name, age) in [("ada", 36i64), ("grace", 45), ("edsger", 28)] {
        app.insert("users", Key::of(name), doc! { "name" => name, "age" => age })?;
    }

    // A pull-based query...
    let adults = QuerySpec::filter("users", doc! { "age" => doc! { "$gte" => 30i64 } });
    let result = app.find(&adults)?;
    println!("pull result: {} adults", result.len());

    // ...and the same query as a push-based real-time subscription.
    let mut sub = app.subscribe(&adults)?;
    match sub.events().timeout(Duration::from_secs(5)).next().expect("initial result") {
        ClientEvent::Initial(items) => {
            println!("push initial result ({} items):", items.len());
            for item in &items {
                println!("  {}", item.doc.as_ref().unwrap());
            }
        }
        other => panic!("unexpected event: {other:?}"),
    }

    // Writes now produce push notifications: an insert that matches...
    app.insert("users", Key::of("barbara"), doc! { "name" => "barbara", "age" => 33i64 })?;
    // ...an update that moves a user out of the result...
    app.update(
        "users",
        Key::of("ada"),
        &UpdateSpec::from_document(&doc! { "$set" => doc! { "age" => 29i64 } }).unwrap(),
    )?;
    // ...and a delete.
    app.delete("users", Key::of("grace"))?;

    for event in sub.events().timeout(Duration::from_secs(5)).take(3) {
        match event {
            ClientEvent::Change(c) => println!("notification: {} {}", c.match_type, c.item.key),
            other => println!("event: {other:?}"),
        }
    }
    println!("maintained result now has {} entries", sub.result().len());

    // Every notification carried a stage trace: where did the time go?
    if let Some(trace) = sub.last_trace() {
        println!("\nlast notification, stage by stage ({}us end to end):", trace.elapsed_micros());
        for (from, to, micros) in trace.breakdown() {
            println!("  {:>10} -> {:<11} {:>6}us", from.as_str(), to.as_str(), micros);
        }
    }

    // And the shared registry aggregated the whole run:
    println!("\n{}", app.metrics().to_text_table());

    // The cluster is an isolated failure domain: shutting it down leaves
    // the store and the pull path fully operational.
    cluster.shutdown();
    let still_works = app.find(&adults)?;
    println!("cluster stopped; pull query still returns {} rows", still_works.len());
    Ok(())
}
