//! Ordering stress: subscribe while a writer hammers matching keys.
//!
//! The initial result is published by the cluster's ingress before the
//! subscription is handed to any cell (a sorted query's by its sorting
//! partition, before any edit for it), and every notification for it is
//! published by a cell or partition that already has it — so on the notify
//! topic the initial result comes first, whichever of the cluster's threads
//! wins the CPU. And since a subscription and the
//! writes around it travel one FIFO from the ingress to each cell, the
//! result folded from the notifications equals the pull result whenever the
//! writer is held. Checked for unsorted and sorted-with-limit queries, on a
//! 1×1 and a 2×2 grid, in-process and through a TCP event layer.
//!
//! A second series shares each unsorted filter among several live
//! subscriptions, so most of them join a group that is already maintained
//! and must be caught up from their own initial result. A third does the
//! same for sorted windows: pairs of iterations subscribe the same sorted
//! query, so one of each pair joins a window that is already maintained.

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::net::{BrokerServer, BrokerServerConfig, RemoteBroker, RemoteBrokerConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec, SortDirection, Version};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

const TENANT: &str = "app";
const ITERATIONS: usize = 200;
/// Subscriptions live at a time.
const BATCH: usize = 25;
const KEYS: i64 = 40;

/// A deployment whose event layer is in-process or behind loopback TCP.
struct Stack {
    app: AppServer,
    cluster: Option<Cluster>,
    links: Vec<RemoteBroker>,
    server: Option<BrokerServer>,
}

/// Frames a TCP link may queue. The default (1024, drop-oldest) would shed
/// writes under the hammering writer — a loss the event layer is allowed
/// (§5.3) and this test is not about.
const LINK_QUEUE_FRAMES: usize = 1 << 16;

fn link(addr: &str, name: &str) -> RemoteBroker {
    let link = RemoteBroker::connect(
        addr.to_owned(),
        RemoteBrokerConfig {
            client_name: name.into(),
            queue_capacity: LINK_QUEUE_FRAMES,
            ..Default::default()
        },
    );
    assert!(link.wait_connected(Duration::from_secs(5)), "{name}: event layer reachable");
    link
}

fn start(grid: (usize, usize), tcp: bool) -> Stack {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    // No re-registration and no renewal back-pressure: a second initial
    // result may only come from a maintenance error.
    let app_config = AppServerConfig {
        subscribe_retry_interval: Duration::from_secs(60),
        renewal_burst: 10_000,
        renewals_per_sec: 10_000.0,
        ..Default::default()
    };
    let cluster_config = ClusterConfig::new(grid.0, grid.1);
    if !tcp {
        let cluster = Cluster::start(broker.clone(), cluster_config);
        let app = AppServer::start(TENANT, store, broker, app_config);
        return Stack { app, cluster: Some(cluster), links: Vec::new(), server: None };
    }
    let server_config =
        BrokerServerConfig { queue_capacity: LINK_QUEUE_FRAMES, ..BrokerServerConfig::default() };
    let server =
        BrokerServer::bind("127.0.0.1:0", broker.clone(), server_config).expect("bind event layer");
    let addr = server.local_addr().to_string();
    let cluster_link = link(&addr, "ordering-cluster");
    let cluster = Cluster::start(cluster_link.clone(), cluster_config);
    let app_link = link(&addr, "ordering-app");
    let app = AppServer::start(TENANT, store, app_link.clone(), app_config);
    // A topic subscription is live only once the server has seen it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.subscriber_count(invalidb::broker::CLUSTER_TOPIC) == 0
        || broker.subscriber_count(&invalidb::broker::notify_topic(TENANT)) == 0
    {
        assert!(Instant::now() < deadline, "event-layer subscriptions never became live");
        std::thread::sleep(Duration::from_millis(1));
    }
    Stack { app, cluster: Some(cluster), links: vec![cluster_link, app_link], server: Some(server) }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
        for link in &self.links {
            link.shutdown();
        }
        if let Some(server) = self.server.as_mut() {
            server.shutdown();
        }
    }
}

/// The `i`-th query: no two iterations share a normalized filter, so every
/// subscription starts a query of its own. Even iterations are unsorted
/// ranges, odd ones sorted windows.
fn query(i: usize) -> QuerySpec {
    let (lo, step) = ((i % 50) as i64, (i / 50) as i64);
    if i.is_multiple_of(2) {
        QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => lo, "$lt" => lo + 25 + step } })
    } else {
        QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => lo } })
            .sorted_by("n", SortDirection::Desc)
            .with_limit(3 + step as u64)
    }
}

fn folded(sub: &Subscription) -> Vec<(Key, Version)> {
    sub.result().entries().iter().map(|e| (e.key.clone(), e.version)).collect()
}

/// Waits until every folded result equals the pull result, versions
/// included (sorted results in order). Only called while the writer is held.
fn converge(app: &AppServer, subs: &mut [(Subscription, QuerySpec)], context: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut diverged = Vec::new();
        for (sub, spec) in subs.iter_mut() {
            while sub.events().non_blocking().next().is_some() {}
            let mut live = folded(sub);
            let mut truth: Vec<(Key, Version)> =
                app.find(spec).unwrap().into_iter().map(|item| (item.key, item.version)).collect();
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
        assert!(
            Instant::now() < deadline,
            "{context}: {} of {} never converged:\n{}",
            diverged.len(),
            subs.len(),
            diverged.join("\n")
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `i`-th query of the shared series: unsorted ranges, five distinct
/// filters, so each batch subscribes to every one of them five times.
fn shared_query(i: usize) -> QuerySpec {
    query((i % 5) * 2)
}

/// The `i`-th query of the shared sorted series: each sorted window of the
/// first series, subscribed twice in a row.
fn shared_sorted_query(i: usize) -> QuerySpec {
    query((i / 2) * 2 + 1)
}

fn stress(grid: (usize, usize), tcp: bool, seed: u64, query: fn(usize) -> QuerySpec) {
    let context = format!("grid {grid:?} tcp {tcp} seed {seed}");
    let stack = start(grid, tcp);
    let app = &stack.app;
    let stop = AtomicBool::new(false);
    // The writer holds the gate shared for every write; taking it
    // exclusively is how the checker gets quiescence.
    let gate = RwLock::new(());
    std::thread::scope(|scope| {
        // The writer: saves and deletes over a small key space, so every
        // query keeps gaining and losing members while it is being set up.
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            while !stop.load(Ordering::Relaxed) {
                let key = Key::of(rng.gen_range(0..KEYS));
                let writing = gate.read().unwrap();
                if rng.gen_bool(0.15) {
                    let _ = app.delete("items", key);
                } else {
                    let _ = app.save("items", key, doc! { "n" => rng.gen_range(0..100i64) });
                }
                drop(writing);
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        // Stops the writer however this closure is left: a failed assertion
        // must not leave the scope waiting for a thread that never ends.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop = StopOnDrop(&stop);
        let mut subs: Vec<(Subscription, QuerySpec)> = Vec::with_capacity(BATCH);
        for i in 0..ITERATIONS {
            let spec = query(i);
            let mut sub = app.subscribe(&spec).expect("subscribe");
            let first = sub.events().timeout(Duration::from_secs(10)).next();
            assert!(
                matches!(first, Some(ClientEvent::Initial(_))),
                "{context}: first event of subscription {i} ({spec}) must be its initial \
                 result, got {first:?}"
            );
            subs.push((sub, spec));
            // A batch at a time, so the load of the live subscriptions stays
            // within what a debug build absorbs: hold the writer, compare
            // every folded result with the pull result, let them go.
            if subs.len() == BATCH {
                let quiet = gate.write().unwrap();
                converge(app, &mut subs, &context);
                for (sub, _) in subs.drain(..) {
                    app.unsubscribe(&sub);
                }
                drop(quiet);
            }
        }
    });
}

#[test]
fn initial_result_first_and_convergence_on_1x1_in_process() {
    stress((1, 1), false, 11, query);
}

#[test]
fn initial_result_first_and_convergence_on_2x2_in_process() {
    stress((2, 2), false, 12, query);
}

#[test]
fn initial_result_first_and_convergence_on_1x1_over_tcp() {
    stress((1, 1), true, 13, query);
}

#[test]
fn initial_result_first_and_convergence_on_2x2_over_tcp() {
    stress((2, 2), true, 14, query);
}

#[test]
fn shared_filters_converge_on_1x1_in_process() {
    stress((1, 1), false, 21, shared_query);
}

#[test]
fn shared_filters_converge_on_2x2_in_process() {
    stress((2, 2), false, 22, shared_query);
}

#[test]
fn shared_filters_converge_on_1x1_over_tcp() {
    stress((1, 1), true, 23, shared_query);
}

#[test]
fn shared_filters_converge_on_2x2_over_tcp() {
    stress((2, 2), true, 24, shared_query);
}

#[test]
fn shared_sorted_windows_converge_on_1x1_in_process() {
    stress((1, 1), false, 31, shared_sorted_query);
}

#[test]
fn shared_sorted_windows_converge_on_2x2_in_process() {
    stress((2, 2), false, 32, shared_sorted_query);
}

#[test]
fn shared_sorted_windows_converge_on_1x1_over_tcp() {
    stress((1, 1), true, 33, shared_sorted_query);
}

#[test]
fn shared_sorted_windows_converge_on_2x2_over_tcp() {
    stress((2, 2), true, 34, shared_sorted_query);
}
