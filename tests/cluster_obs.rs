//! Cluster-wide observability, proven on a real 4-process topology (this
//! test + three `invalidb-workerd` children on the wire):
//!
//! * a sampled write produces **one trace spanning processes** — the
//!   filtering-stage stamp is annotated with the workerd's name and its
//!   assignment epoch;
//! * the coordinator's admin endpoint serves `/cluster` (membership,
//!   health, assignment table) and a **federated `/metrics`** where each
//!   worker's series carry a `worker="..."` label;
//! * the per-tenant notification-staleness SLO histogram fills on the app
//!   server;
//! * after SIGKILLing the worker that owns the grid, the coordinator
//!   records a finite `cluster.failover_mttr_ms` once the survivors have
//!   rebuilt and caught up.
//!
//! A second test drives the coordinator's hangup path with hand-rolled
//! workers, so the MTTR's start is known exactly.

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::cluster::{Coordinator, CoordinatorConfig};
use invalidb::common::{GridShape, Stage};
use invalidb::net::{BrokerServer, BrokerServerConfig, Frame};
use invalidb::obs::{from_prometheus_federated, to_prometheus, MetricsRegistry};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
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

/// Minimal HTTP/1.0 GET against the admin endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

#[test]
fn cluster_observability_end_to_end() {
    // ----- control plane: event layer + coordinator with admin ----------
    let broker = Broker::new();
    let event_server = BrokerServer::bind("127.0.0.1:0", broker.clone(), BrokerServerConfig::default())
        .expect("bind event layer");
    let event_addr = event_server.local_addr().to_string();
    let coord_registry = MetricsRegistry::new();
    let mut coord_config = CoordinatorConfig::new(GridShape::new(2, 2));
    coord_config.heartbeat_timeout = Duration::from_millis(600);
    coord_config.metrics = coord_registry.clone();
    coord_config.admin_addr = Some("127.0.0.1:0".to_string());
    let coordinator =
        Coordinator::bind("127.0.0.1:0", broker.clone(), coord_config).expect("bind coordinator");
    let coord_addr = coordinator.local_addr().to_string();
    let admin = coordinator.admin_addr().expect("coordinator admin endpoint bound");

    // ----- three worker processes: victim owns the whole grid -----------
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

    // ----- app server with every write traced ---------------------------
    let store = Arc::new(Store::new());
    let app_registry = MetricsRegistry::new();
    let app = AppServer::start(
        "obs",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig {
            write_replay_buffer: 2048,
            renewals_per_sec: 100.0,
            trace_sample_every: 1,
            metrics: app_registry.clone(),
            ..AppServerConfig::default()
        },
    );
    let spec = QuerySpec::filter("readings", doc! { "hot" => true });
    let mut sub = app.subscribe(&spec).expect("subscribe");
    match sub.events().timeout(Duration::from_secs(10)).next() {
        Some(ClientEvent::Initial(_)) => {}
        other => panic!("expected initial result, got {other:?}"),
    }

    // ----- 1) cross-process trace carries a worker-stamped stage --------
    app.insert("readings", Key::of("traced"), doc! { "hot" => true }).unwrap();
    let notified = sub
        .events()
        .timeout(Duration::from_secs(10))
        .any(|e| matches!(&e, ClientEvent::Change(c) if c.item.key == Key::of("traced")));
    assert!(notified, "traced write must notify");
    let trace = sub.last_trace().expect("sampled trace delivered with the event").clone();
    let worker_stamp = trace
        .stamps
        .iter()
        .find(|s| s.stage == Stage::Matching && s.worker.is_some())
        .unwrap_or_else(|| panic!("no worker-stamped matching stage in {trace:?}"));
    assert_eq!(worker_stamp.worker.as_deref(), Some("victim"), "{trace:?}");
    assert!(worker_stamp.epoch.unwrap_or(0) >= 1, "stamp carries the assignment epoch");
    // The trace spans app server and workerd; delivery closes it.
    assert_eq!(trace.stamps.first().map(|s| s.stage), Some(Stage::AppServer));
    assert_eq!(trace.stamps.last().map(|s| s.stage), Some(Stage::Delivery));

    // ----- 2) per-tenant staleness SLO histogram fills ------------------
    let snap = app_registry.snapshot();
    let slo = snap.hists.get("slo.obs.staleness_us").expect("staleness histogram recorded");
    assert!(slo.count >= 1 && slo.p99 > 0, "staleness quantiles populated: {slo:?}");
    assert!(
        to_prometheus(&snap).contains("slo.obs.staleness_us"),
        "staleness histogram exported to Prometheus"
    );

    // ----- 3) /cluster reports every member -----------------------------
    let (status, members) = http_get(admin, "/cluster");
    assert_eq!(status, 200);
    for name in ["victim", "survivor-a", "survivor-b"] {
        assert!(members.contains(&format!("\"name\":\"{name}\"")), "missing {name}: {members}");
    }
    assert!(members.contains("\"unassigned\":0"), "{members}");

    // ----- 4) federated /metrics carries worker-labeled series ----------
    let deadline = Instant::now() + Duration::from_secs(30);
    let federated = loop {
        let (status, text) = http_get(admin, "/metrics");
        assert_eq!(status, 200);
        if text.contains("worker=\"victim\"")
            && text.contains("worker=\"survivor-a\"")
            && text.contains("worker=\"survivor-b\"")
        {
            break text;
        }
        assert!(Instant::now() < deadline, "federated series never appeared:\n{text}");
        std::thread::sleep(Duration::from_millis(100));
    };
    let parts = from_prometheus_federated(&federated).expect("parse federated exposition");
    let victim = parts.get("victim").expect("victim snapshot federated");
    assert_eq!(victim.gauges.get("worker.cells_hosted").copied(), Some(4));
    let coord_part = parts.get("").expect("coordinator's own series are unlabeled");
    assert!(coord_part.gauges.contains_key("cluster.epoch"));

    // ----- 5) SIGKILL the grid owner, read a finite MTTR ----------------
    let epoch_before = coordinator.epoch();
    let (_, victim_child) = children.0.iter_mut().find(|(name, _)| name == "victim").unwrap();
    victim_child.kill().expect("SIGKILL victim");
    victim_child.wait().expect("reap victim");

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let table = coordinator.assignment();
        if coordinator.workers_alive() == 2 && table.unassigned() == 0 && table.epoch > epoch_before {
            break;
        }
        assert!(Instant::now() < deadline, "failover did not converge: {}", table.render());
        std::thread::sleep(Duration::from_millis(20));
    }
    // Recovery is complete (and MTTR recorded) once the survivors report
    // cells at the new epoch and the subscription replay catches them up.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mttr_ms = loop {
        if let Some(&v) = coord_registry.snapshot().gauges.get("cluster.failover_mttr_ms") {
            break v;
        }
        assert!(Instant::now() < deadline, "cluster.failover_mttr_ms never recorded");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        mttr_ms > 0 && mttr_ms < 60_000,
        "MTTR should be a finite, plausible number, got {mttr_ms} ms"
    );
    let (_, members) = http_get(admin, "/cluster");
    assert!(members.contains("\"failover_in_progress\":false"), "{members}");

    drop(sub);
    coordinator.shutdown();
}

/// A worker that hangs up is gone as of its last heartbeat, as a silent one
/// is: the failover clock starts there, not at the hangup, and a recovery
/// is never recorded as 0 ms.
#[test]
fn hangup_failover_is_timed_from_the_last_heartbeat() {
    const SILENCE: Duration = Duration::from_millis(150);
    let registry = MetricsRegistry::new();
    let mut config = CoordinatorConfig::new(GridShape::new(1, 1));
    // Long enough that only the hangup can evict the victim.
    config.heartbeat_timeout = Duration::from_secs(60);
    config.metrics = registry.clone();
    let coordinator = Coordinator::bind("127.0.0.1:0", Broker::new(), config).expect("bind coordinator");
    let join = |name: &str| {
        let mut stream = TcpStream::connect(coordinator.local_addr()).expect("connect coordinator");
        let frame = Frame::JoinCluster { worker: name.to_string(), weight: 1 };
        stream.write_all(&frame.encode()).expect("join");
        stream
    };

    // The first to join hosts the only cell; its join is its last sign of
    // life.
    let victim = join("victim");
    assert!(coordinator.wait_assigned(Duration::from_secs(10)), "initial assignment");
    let mut survivor = join("survivor");
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.workers_alive() < 2 {
        assert!(Instant::now() < deadline, "the survivor should join");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(coordinator.assignment().cells_of("victim").len(), 1, "victim hosts the cell");

    std::thread::sleep(SILENCE);
    let epoch_before = coordinator.epoch();
    drop(victim);
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.epoch() == epoch_before {
        assert!(Instant::now() < deadline, "the hangup should move the cell");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The survivor reports its new cell at once, which completes recovery.
    let report = Frame::CellState {
        worker: "survivor".to_string(),
        epoch: coordinator.epoch(),
        cell: 0,
        active_queries: 0,
        retained_writes: 0,
    };
    survivor.write_all(&report.encode()).expect("report cell state");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mttr_ms = loop {
        if let Some(&v) = registry.snapshot().gauges.get("cluster.failover_mttr_ms") {
            break v;
        }
        assert!(Instant::now() < deadline, "cluster.failover_mttr_ms never recorded");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        mttr_ms >= SILENCE.as_millis() as u64 && mttr_ms < 60_000,
        "MTTR runs from the victim's last heartbeat, at least {SILENCE:?} before its hangup; got {mttr_ms} ms"
    );
    coordinator.shutdown();
}
