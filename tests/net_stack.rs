//! Full-stack integration over real TCP: store + cluster behind a
//! `BrokerServer`, app server connected through a `RemoteBroker` — with a
//! chaos proxy in the middle.
//!
//! The contract being tested mirrors the paper's deployment model: the
//! event layer is best-effort (Redis pub/sub semantics, §5.3), and the
//! layers above it — write-stream retention (§5.1), maintenance errors +
//! renewal (§5.2), heartbeat supervision — turn that into bounded
//! staleness and eventual convergence.

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::net::{
    BrokerServer, BrokerServerConfig, ChaosProxy, ChaosProxyConfig, RemoteBroker, RemoteBrokerConfig,
};
use invalidb::store::Store;
use invalidb::{doc, Key, MetricsRegistry, QuerySpec, SortDirection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One "cluster host": store, cluster, and the event layer served on TCP.
struct ClusterHost {
    store: Arc<Store>,
    cluster: invalidb::core::Cluster,
    server: BrokerServer,
}

fn cluster_host() -> ClusterHost {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let server = BrokerServer::bind("127.0.0.1:0", broker, BrokerServerConfig::default())
        .expect("bind event-layer server");
    ClusterHost { store, cluster, server }
}

const CLIENT: &str = "net-stack-test";

fn remote(addr: &str, metrics: &MetricsRegistry) -> RemoteBroker {
    let client = RemoteBroker::connect(
        addr.to_string(),
        RemoteBrokerConfig {
            client_name: CLIENT.into(),
            metrics: metrics.clone(),
            ..Default::default()
        },
    );
    assert!(client.wait_connected(Duration::from_secs(5)), "event layer reachable");
    client
}

/// A counter of the test client's link, read off its registry.
fn link_counter(metrics: &MetricsRegistry, name: &str) -> u64 {
    metrics.snapshot().counters[&format!("net.client.{CLIENT}.{name}")]
}

/// Drains pending events and compares each live result against the
/// store's pull truth. Returns the divergences (empty = converged).
fn divergences(store: &Store, subs: &mut [(Subscription, QuerySpec)]) -> Vec<String> {
    for (sub, _) in subs.iter_mut() {
        while sub.events().non_blocking().next().is_some() {}
    }
    let mut out = Vec::new();
    for (sub, spec) in subs.iter_mut() {
        let mut truth: Vec<Key> = store.execute(spec).unwrap().into_iter().map(|r| r.key).collect();
        let mut live = sub.result().keys();
        if spec.sort.is_empty() {
            live.sort();
            truth.sort();
        }
        if live != truth {
            out.push(format!("{spec}: live {live:?} truth {truth:?}"));
        }
    }
    out
}

/// Polls [`divergences`] until every live result agrees with the pull
/// truth (or the deadline passes).
fn assert_converges(
    store: &Store,
    subs: &mut [(Subscription, QuerySpec)],
    deadline: Duration,
    context: &str,
) {
    let deadline = Instant::now() + deadline;
    loop {
        let diverged = divergences(store, subs);
        if diverged.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "no convergence ({context}):\n{}", diverged.join("\n"));
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn random_write(app: &AppServer, rng: &mut StdRng) {
    let key = Key::of(rng.gen_range(0..30i64));
    match rng.gen_range(0..4) {
        0..=1 => {
            let _ = app.save("items", key, doc! { "n" => rng.gen_range(0..100i64) });
        }
        2 => {
            let _ = app.save("items", key, doc! { "n" => rng.gen_range(-50..0i64) });
        }
        _ => {
            let _ = app.delete("items", key);
        }
    }
}

/// Subscribe → write → notify across TCP, through a proxy injecting
/// per-chunk latency. Latency alone must not cost a single notification,
/// nor make a single envelope or frame undecodable.
#[test]
fn subscribe_write_notify_across_tcp_with_chaos() {
    let host = cluster_host();
    let proxy = ChaosProxy::start(
        host.server.local_addr().to_string(),
        ChaosProxyConfig {
            seed: 7,
            latency: Some((Duration::from_micros(100), Duration::from_millis(3))),
            ..ChaosProxyConfig::default()
        },
    )
    .expect("start chaos proxy");
    let metrics = MetricsRegistry::new();
    let link = remote(&proxy.local_addr().to_string(), &metrics);
    let app =
        AppServer::start("netstack", Arc::clone(&host.store), link.clone(), AppServerConfig::default());

    let unsorted = QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 50i64 } });
    let sorted = QuerySpec::filter("items", doc! {}).sorted_by("n", SortDirection::Desc).with_limit(5);
    let mut subs = Vec::new();
    for spec in [&unsorted, &sorted] {
        let mut sub = app.subscribe(spec).unwrap();
        assert!(
            matches!(
                sub.events().timeout(Duration::from_secs(10)).next(),
                Some(ClientEvent::Initial(_))
            ),
            "initial result arrives over TCP"
        );
        subs.push((sub, spec.clone()));
    }

    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..200 {
        random_write(&app, &mut rng);
        if i % 40 == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    assert_converges(&host.store, &mut subs, Duration::from_secs(20), "latency chaos");
    assert_eq!(host.cluster.decode_errors(), 0, "cluster envelope decode errors");
    assert_eq!(link_counter(&metrics, "decode_errors"), 0, "client frame errors");
    link.shutdown();
}

/// The acceptance scenario: a forced disconnect mid-stream, recovered by
/// the supervisor's reconnect + resubscription replay, converging to the
/// pull truth once the writes lost to the at-most-once gap are re-driven.
#[test]
fn forced_disconnect_recovers_via_replay() {
    let host = cluster_host();
    let proxy = ChaosProxy::start(
        host.server.local_addr().to_string(),
        ChaosProxyConfig {
            seed: 11,
            latency: Some((Duration::from_micros(50), Duration::from_millis(1))),
            ..ChaosProxyConfig::default()
        },
    )
    .expect("start chaos proxy");
    let metrics = MetricsRegistry::new();
    let link = remote(&proxy.local_addr().to_string(), &metrics);
    let app = AppServer::start(
        "netstack-dc",
        Arc::clone(&host.store),
        link.clone(),
        AppServerConfig::default(),
    );

    let spec = QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(10)).next(),
        Some(ClientEvent::Initial(_))
    ));
    let mut subs = vec![(sub, spec)];

    let mut rng = StdRng::seed_from_u64(2020);
    for _ in 0..100 {
        random_write(&app, &mut rng);
    }

    // Kill the TCP connection out from under the app server, mid-stream,
    // and keep writing into the gap. Envelopes published while the link
    // is down are lost — at-most-once, exactly like Redis pub/sub.
    let reconnects_before = link_counter(&metrics, "reconnects");
    link.kick();
    proxy.reset_all();
    for _ in 0..50 {
        random_write(&app, &mut rng);
    }

    // The supervisor reconnects and replays its SUBSCRIBEs; notifications
    // flow again without the app server doing anything.
    let deadline = Instant::now() + Duration::from_secs(10);
    while link_counter(&metrics, "reconnects") <= reconnects_before {
        assert!(Instant::now() < deadline, "supervisor should reconnect");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(link.wait_connected(Duration::from_secs(10)));

    for _ in 0..100 {
        random_write(&app, &mut rng);
    }

    // Re-drive the current state of every key over the healthy link: the
    // after-images carry full documents and fresh versions, so this
    // repairs whatever the disconnect swallowed (the role the cluster's
    // write-stream retention plays for short gaps, §5.1). Two subtleties:
    //
    // * a delete swallowed by the gap leaves a ghost key in the live
    //   result that no surviving document can repair (deleting an absent
    //   key is NotFound, so nothing is published) — absent keys are
    //   re-driven as a fresh save+delete pair, whose versions continue
    //   past the tombstone;
    // * the supervisor's SUBSCRIBE replay is itself asynchronous, so a
    //   repair notification published before the broker re-established
    //   the topic pump is lost like any other envelope — hence the
    //   re-drive is retried until the live results converge.
    let everything = QuerySpec::filter("items", doc! {});
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut present = std::collections::HashSet::new();
        for item in host.store.execute(&everything).unwrap() {
            present.insert(item.key.clone());
            if let Some(doc) = item.doc {
                let _ = app.save("items", item.key, doc);
            }
        }
        for k in 0..30i64 {
            let key = Key::of(k);
            if !present.contains(&key) {
                let _ = app.save("items", key.clone(), doc! { "n" => -1i64 });
                let _ = app.delete("items", key);
            }
        }
        let settle = Instant::now() + Duration::from_secs(5);
        let mut converged = false;
        while Instant::now() < settle {
            if divergences(&host.store, &mut subs).is_empty() {
                converged = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no convergence (post-disconnect) after repeated re-drives:\n{}",
            divergences(&host.store, &mut subs).join("\n")
        );
    }
    assert!(link_counter(&metrics, "reconnects") >= 2, "metrics record the reconnect");
    link.shutdown();
}

/// Regression for the mixed-version flake: a reconnect mid-stream (the
/// client's heartbeat supervisor fires under CPU starvation, or the link
/// drops) loses in-flight publishes and notifications at-most-once. The
/// keeper's link-generation watch must repair that **on its own** — ring
/// replay plus subscription renewal — so live results converge without
/// the application re-driving a single write.
#[test]
fn reconnect_repair_restores_convergence_without_redrive() {
    let host = cluster_host();
    let proxy = ChaosProxy::start(
        host.server.local_addr().to_string(),
        ChaosProxyConfig { seed: 31, ..ChaosProxyConfig::default() },
    )
    .expect("start chaos proxy");
    let metrics = MetricsRegistry::new();
    let link = remote(&proxy.local_addr().to_string(), &metrics);
    let app = AppServer::start(
        "netstack-regen",
        Arc::clone(&host.store),
        link.clone(),
        AppServerConfig::default(),
    );

    let spec = QuerySpec::filter("items", doc! { "n" => doc! { "$gte" => 0i64 } });
    let mut sub = app.subscribe(&spec).unwrap();
    assert!(matches!(
        sub.events().timeout(Duration::from_secs(10)).next(),
        Some(ClientEvent::Initial(_))
    ));
    let mut subs = vec![(sub, spec)];

    let mut rng = StdRng::seed_from_u64(3030);
    for _ in 0..60 {
        random_write(&app, &mut rng);
    }
    assert_converges(&host.store, &mut subs, Duration::from_secs(20), "pre-disconnect");

    // Sever the link and write into the gap. These publishes are lost on
    // the wire (at-most-once) but retained in the app server's write ring.
    let reconnects_before = link_counter(&metrics, "reconnects");
    let replays_before = app.reconnect_replays();
    link.kick();
    proxy.reset_all();
    for _ in 0..40 {
        random_write(&app, &mut rng);
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while link_counter(&metrics, "reconnects") <= reconnects_before {
        assert!(Instant::now() < deadline, "supervisor should reconnect");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(link.wait_connected(Duration::from_secs(10)));

    // No re-drive: the generation watch alone must replay the ring and
    // renew the subscription until the live result matches the pull truth.
    assert_converges(&host.store, &mut subs, Duration::from_secs(30), "generation-watch repair");
    let deadline = Instant::now() + Duration::from_secs(5);
    while app.reconnect_replays() <= replays_before {
        assert!(Instant::now() < deadline, "keeper should record the generation-triggered replay");
        std::thread::sleep(Duration::from_millis(10));
    }
    link.shutdown();
}

/// Truncated frames (a torn tail followed by a reset) are contained: the
/// decoder holds the partial frame, the supervisor reconnects, and
/// traffic keeps flowing — no panic, no wedge.
#[test]
fn truncated_frames_are_survived() {
    let host = cluster_host();
    let proxy = ChaosProxy::start(
        host.server.local_addr().to_string(),
        ChaosProxyConfig { seed: 13, truncate_probability: 0.2, ..ChaosProxyConfig::default() },
    )
    .expect("start chaos proxy");

    // Subscriber on a clean link; publisher through the truncating proxy.
    let clean = remote(&host.server.local_addr().to_string(), &MetricsRegistry::new());
    let sub = clean.subscribe("lossy");
    let ack_deadline = Instant::now() + Duration::from_secs(10);
    while clean.last_acked() < 1 {
        assert!(Instant::now() < ack_deadline, "clean subscribe should be acked");
        std::thread::sleep(Duration::from_millis(5));
    }

    let lossy_metrics = MetricsRegistry::new();
    let lossy = remote(&proxy.local_addr().to_string(), &lossy_metrics);
    let mut received = 0u32;
    for i in 0..200u32 {
        lossy.publish("lossy", invalidb::broker::Bytes::from(i.to_be_bytes().to_vec()));
        std::thread::sleep(Duration::from_millis(2));
        while sub.try_recv().is_some() {
            received += 1;
        }
    }
    let settle = Instant::now() + Duration::from_secs(2);
    while Instant::now() < settle {
        if sub.try_recv().is_some() {
            received += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    assert!(received > 0, "some publishes survive the lossy link");
    let reconnects = link_counter(&lossy_metrics, "reconnects");
    assert!(reconnects >= 2, "truncation forces reconnects (got {reconnects})");
    clean.shutdown();
    lossy.shutdown();
}
