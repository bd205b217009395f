//! Kill a matching worker process mid-stream and prove the cluster heals:
//! the epoch bumps, orphaned cells land on survivors, and a subscription
//! registered before the crash keeps delivering — exactly one notification
//! per fresh write, none lost, none duplicated.
//!
//! Topology (2×2 grid, four OS processes):
//!
//! * this test: event layer (`BrokerServer`), [`Coordinator`], store,
//!   app server, and the subscribing client;
//! * three `invalidb-workerd` children on the wire. The first joiner gets
//!   all four cells (placement is stable); SIGKILLing it orphans the whole
//!   grid, and the two survivors split it two cells each — which also
//!   exercises the shuffle path, since rows end up spanning workers.

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::cluster::{Coordinator, CoordinatorConfig};
use invalidb::common::GridShape;
use invalidb::net::{BrokerServer, BrokerServerConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec};
use std::collections::HashMap;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn_workerd(name: &str, coordinator: &str, event: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_invalidb-workerd"))
        .args(["--coordinator", coordinator, "--event", event, "--name", name])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn invalidb-workerd")
}

struct Reaper(Vec<(String, Child)>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn sigkill_failover_loses_no_subscriptions() {
    // ----- in-test control plane: event layer + coordinator -------------
    let broker = Broker::new();
    let event_server = BrokerServer::bind("127.0.0.1:0", broker.clone(), BrokerServerConfig::default())
        .expect("bind event layer");
    let event_addr = event_server.local_addr().to_string();
    let mut coord_config = CoordinatorConfig::new(GridShape::new(2, 2));
    coord_config.heartbeat_timeout = Duration::from_millis(600);
    let coordinator =
        Coordinator::bind("127.0.0.1:0", broker.clone(), coord_config).expect("bind coordinator");
    let coord_addr = coordinator.local_addr().to_string();

    // ----- three worker processes ---------------------------------------
    // The first joiner takes the whole grid (stable placement); spawn it
    // alone first so the victim is deterministic.
    let mut children =
        Reaper(vec![("victim".to_string(), spawn_workerd("victim", &coord_addr, &event_addr))]);
    assert!(coordinator.wait_assigned(Duration::from_secs(30)), "initial assignment");
    for name in ["survivor-a", "survivor-b"] {
        children.0.push((name.to_string(), spawn_workerd(name, &coord_addr, &event_addr)));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while coordinator.workers_alive() < 3 {
        assert!(Instant::now() < deadline, "all three workers should join");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(coordinator.assignment().cells_of("victim").len(), 4, "victim owns the grid");

    // ----- app server + subscription ------------------------------------
    let store = Arc::new(Store::new());
    let app = Arc::new(AppServer::start(
        "failover",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig {
            write_replay_buffer: 2048,
            renewals_per_sec: 100.0,
            ..AppServerConfig::default()
        },
    ));
    let spec = QuerySpec::filter("readings", doc! { "hot" => true });
    let mut sub = app.subscribe(&spec).expect("subscribe");
    match sub.events().timeout(Duration::from_secs(10)).next() {
        Some(ClientEvent::Initial(_)) => {}
        other => panic!("expected initial result, got {other:?}"),
    }
    app.insert("readings", Key::of("pre"), doc! { "hot" => true, "seq" => 0i64 }).unwrap();
    let got_pre = sub
        .events()
        .timeout(Duration::from_secs(10))
        .any(|e| matches!(&e, ClientEvent::Change(c) if c.item.key == Key::of("pre")));
    assert!(got_pre, "pre-kill write must notify");

    // ----- sustained writes while we pull the rug ------------------------
    let writer_stop = Arc::new(AtomicBool::new(false));
    let writer_seq = Arc::new(AtomicU64::new(0));
    let writer = {
        let app = Arc::clone(&app);
        let stop = Arc::clone(&writer_stop);
        let seq = Arc::clone(&writer_seq);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let n = seq.fetch_add(1, Ordering::Relaxed);
                app.insert(
                    "readings",
                    Key::of(format!("bg{n}")),
                    doc! { "hot" => true, "seq" => n as i64 },
                )
                .unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let epoch_before = coordinator.epoch();
    let (_, victim) = children.0.iter_mut().find(|(name, _)| name == "victim").unwrap();
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");

    // ----- convergence ----------------------------------------------------
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let table = coordinator.assignment();
        if coordinator.workers_alive() == 2 && table.unassigned() == 0 && table.epoch > epoch_before {
            break;
        }
        assert!(Instant::now() < deadline, "failover did not converge: {}", table.render());
        std::thread::sleep(Duration::from_millis(20));
    }
    let table = coordinator.assignment();
    assert_eq!(table.cells_of("victim").len(), 0, "{}", table.render());
    assert_eq!(
        table.cells_of("survivor-a").len() + table.cells_of("survivor-b").len(),
        4,
        "{}",
        table.render()
    );

    // Let in-flight repair (write replay + renewals) settle, then stop the
    // background writer and drain everything it produced.
    writer_stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let mut quiet = Instant::now();
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while quiet.elapsed() < Duration::from_secs(2) {
        assert!(Instant::now() < drain_deadline, "event stream never went quiet");
        if sub.events().timeout(Duration::from_millis(200)).next().is_some() {
            quiet = Instant::now();
        }
    }

    // ----- the verdict: fresh writes notify exactly once ------------------
    const PROBES: usize = 8;
    for i in 0..PROBES {
        app.insert(
            "readings",
            Key::of(format!("probe{i}")),
            doc! { "hot" => true, "probe" => i as i64 },
        )
        .unwrap();
    }
    let written = Instant::now();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let deadline = written + Duration::from_secs(15);
    while seen.len() < PROBES && Instant::now() < deadline {
        for event in sub.events().timeout(Duration::from_millis(250)) {
            if let ClientEvent::Change(c) = &event {
                let key = format!("{}", c.item.key);
                if key.contains("probe") {
                    *seen.entry(key).or_insert(0) += 1;
                }
            }
        }
    }
    // A probe missing from the window is a recovery slower than it or a
    // lost subscription: listening 15 s longer tells which.
    let mut late: Vec<String> = Vec::new();
    if seen.len() < PROBES {
        let mut missing: Vec<String> = (0..PROBES)
            .map(|i| format!("probe{i}"))
            .filter(|k| !seen.keys().any(|s| s.contains(k)))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(15);
        while !missing.is_empty() && Instant::now() < deadline {
            for event in sub.events().timeout(Duration::from_millis(250)) {
                if let ClientEvent::Change(c) = &event {
                    let key = format!("{}", c.item.key);
                    if let Some(at) = missing.iter().position(|probe| key.contains(probe.as_str())) {
                        let probe = missing.remove(at);
                        late.push(format!("{probe} late ({} ms)", written.elapsed().as_millis()));
                    }
                }
            }
        }
        late.extend(missing.into_iter().map(|probe| format!("{probe} never")));
    }
    assert_eq!(seen.len(), PROBES, "lost subscriptions: only {seen:?} notified; {late:?}");
    // A grace window to catch duplicates trailing in.
    let dup_deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < dup_deadline {
        for event in sub.events().timeout(Duration::from_millis(200)) {
            if let ClientEvent::Change(c) = &event {
                let key = format!("{}", c.item.key);
                if key.contains("probe") {
                    *seen.entry(key).or_insert(0) += 1;
                }
            }
        }
    }
    for (key, count) in &seen {
        assert_eq!(*count, 1, "duplicate notification for {key}: {seen:?}");
    }

    assert!(app.epoch_replays() >= 1, "app server should have replayed its write ring");
    drop(sub);
    coordinator.shutdown();
}
