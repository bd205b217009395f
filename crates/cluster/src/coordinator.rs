//! The cluster coordinator: membership, heartbeat supervision, and
//! epoch-numbered cell assignment.
//!
//! Workers dial the coordinator's frame port, register with
//! `JoinCluster`, and prove liveness with `WorkerHeartbeat` frames. Every
//! membership change — join, leave, missed heartbeats — bumps the epoch,
//! recomputes the assignment table through the pluggable [`Placement`]
//! strategy (stable: survivors keep their cells), broadcasts the new
//! `Assign` frame to every connected worker, announces the epoch on
//! [`EPOCH_TOPIC`] so application servers can replay buffered writes, and
//! silently re-registers every cached subscription (`renewal: true`) so
//! replacement workers rebuild matching state without clients seeing a
//! stale initial result.

use crate::assignment::{AssignmentTable, Placement, RoundRobin, WorkerInfo};
use invalidb_broker::{BrokerHandle, CLUSTER_TOPIC, EPOCH_TOPIC};
use invalidb_common::{doc, ClusterMessage, Document, GridShape, Value};
use invalidb_json::WireCodec;
use invalidb_net::frame::{Decoder, Frame};
use invalidb_obs::{
    to_prometheus_federated, AdminConfig, AdminServer, FlightEventKind, HealthMonitor, HealthPolicy,
    HealthStatus, MetricsRegistry, MetricsSnapshot,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Coordinator tuning knobs.
#[derive(Clone)]
pub struct CoordinatorConfig {
    /// Shape of the grid to assign.
    pub grid: GridShape,
    /// A worker silent for longer than this is declared dead and its cells
    /// are reassigned.
    pub heartbeat_timeout: Duration,
    /// How often the supervisor scans for missed heartbeats.
    pub supervise_interval: Duration,
    /// Placement strategy for orphaned cells.
    pub placement: Arc<dyn Placement>,
    /// Metrics registry (gauges `cluster.workers_alive`, `cluster.epoch`,
    /// `cluster.cells_unassigned` live here, and the hosted admin endpoint
    /// derives `/healthz` from it).
    pub metrics: MetricsRegistry,
    /// Optional admin endpoint bind address (e.g. `127.0.0.1:0`).
    pub admin_addr: Option<String>,
}

impl CoordinatorConfig {
    /// Defaults: 2 s heartbeat timeout, 100 ms supervision, weighted
    /// round-robin placement, no admin endpoint.
    pub fn new(grid: GridShape) -> CoordinatorConfig {
        CoordinatorConfig {
            grid,
            heartbeat_timeout: Duration::from_secs(2),
            supervise_interval: Duration::from_millis(100),
            placement: Arc::new(RoundRobin),
            metrics: MetricsRegistry::new(),
            admin_addr: None,
        }
    }
}

struct WorkerConn {
    weight: u32,
    last_heartbeat: Instant,
    /// Write half of the worker's control connection, for Assign pushes.
    stream: Arc<Mutex<TcpStream>>,
    /// Highest epoch this worker has been caught up to with a subscription
    /// replay *after* it reported hosting cells at that epoch (see the
    /// `CellState` arm of the connection loop).
    caught_up_epoch: u64,
    /// Epoch the worker last announced in a heartbeat.
    heartbeat_epoch: u64,
    /// Latest federated metrics snapshot (`MetricsReport`), with the epoch
    /// the worker reported it under. `None` until the first report.
    snapshot: Option<(u64, MetricsSnapshot)>,
    /// Per-worker health state machine, fed by `MetricsReport` snapshots.
    health: HealthMonitor,
    /// Status from the last evaluated snapshot.
    health_status: HealthStatus,
}

impl WorkerConn {
    fn new(weight: u32, stream: Arc<Mutex<TcpStream>>) -> WorkerConn {
        WorkerConn {
            weight,
            last_heartbeat: Instant::now(),
            stream,
            caught_up_epoch: 0,
            heartbeat_epoch: 0,
            snapshot: None,
            health: HealthMonitor::new(HealthPolicy::default()),
            health_status: HealthStatus::default(),
        }
    }
}

struct State {
    table: AssignmentTable,
    workers: HashMap<String, WorkerConn>,
    /// Cached Subscribe envelopes by (tenant, subscription id) — replayed
    /// with `renewal: true` after every reassignment so replacement workers
    /// rebuild matching state.
    subscriptions: HashMap<(invalidb_common::TenantId, u64), invalidb_common::SubscriptionRequest>,
    /// When cells were last orphaned (worker death/hangup) and recovery is
    /// still incomplete. Cleared — and `cluster.failover_mttr_ms` recorded
    /// — once every cell is assigned and every owner has been caught up at
    /// the current epoch.
    failover_since: Option<Instant>,
}

struct Inner {
    config: CoordinatorConfig,
    broker: BrokerHandle,
    state: Mutex<State>,
    running: AtomicBool,
}

/// A running coordinator. Dropping it stops all supervision threads.
pub struct Coordinator {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    admin: Option<AdminServer>,
    threads: Vec<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the coordinator's frame port and starts the accept,
    /// supervision, and subscription-cache threads. `broker` is the event
    /// layer shared with workers and application servers.
    pub fn bind(
        addr: impl ToSocketAddrs,
        broker: impl Into<BrokerHandle>,
        config: CoordinatorConfig,
    ) -> std::io::Result<Coordinator> {
        let broker: BrokerHandle = broker.into();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                table: AssignmentTable::new(config.grid),
                workers: HashMap::new(),
                subscriptions: HashMap::new(),
                failover_since: None,
            }),
            config,
            broker,
            running: AtomicBool::new(true),
        });
        publish_gauges(&inner, &inner.state.lock());
        // The coordinator's admin endpoint adds two cluster-wide views on
        // top of the built-ins: `/cluster` (membership, health, and the
        // assignment table as JSON) and a federated `/metrics` that shadows
        // the built-in with per-worker labeled series.
        let admin = inner.config.admin_addr.as_deref().and_then(|addr| {
            let cluster_inner = Arc::clone(&inner);
            let metrics_inner = Arc::clone(&inner);
            let admin_config = AdminConfig::default()
                .with_route("/cluster", move || (200, "application/json", cluster_json(&cluster_inner)))
                .with_route("/metrics", move || {
                    let local = metrics_inner.config.metrics.snapshot();
                    let workers: Vec<(String, MetricsSnapshot)> = {
                        let state = metrics_inner.state.lock();
                        state
                            .workers
                            .iter()
                            .filter_map(|(name, w)| {
                                w.snapshot.as_ref().map(|(_, snap)| (name.clone(), snap.clone()))
                            })
                            .collect()
                    };
                    (
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        to_prometheus_federated(&local, &workers),
                    )
                });
            match AdminServer::bind(addr, inner.config.metrics.clone(), admin_config) {
                Ok(server) => Some(server),
                Err(_) => {
                    inner.config.metrics.inc("admin.bind_errors");
                    None
                }
            }
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("coord-accept".into())
                    .spawn(move || accept_loop(listener, inner))
                    .expect("spawn accept thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("coord-supervise".into())
                    .spawn(move || supervise_loop(inner))
                    .expect("spawn supervisor thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("coord-subcache".into())
                    .spawn(move || subscription_cache_loop(inner))
                    .expect("spawn subscription cache thread"),
            );
        }
        Ok(Coordinator { inner, local_addr, admin, threads })
    }

    /// Where the coordinator's frame port listens.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the hosted admin endpoint listens, if one is running.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// Current assignment epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.state.lock().table.epoch
    }

    /// Number of workers currently considered alive.
    pub fn workers_alive(&self) -> usize {
        self.inner.state.lock().workers.len()
    }

    /// A snapshot of the current assignment table.
    pub fn assignment(&self) -> AssignmentTable {
        self.inner.state.lock().table.clone()
    }

    /// Blocks until every cell is assigned (or the timeout passes);
    /// returns whether the grid is fully assigned.
    pub fn wait_assigned(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inner.state.lock().table.unassigned() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops the coordinator; worker connections are closed.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.inner.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(mut admin) = self.admin.take() {
            admin.shutdown();
        }
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        {
            let state = self.inner.state.lock();
            for worker in state.workers.values() {
                let _ = worker.stream.lock().shutdown(Shutdown::Both);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

fn publish_gauges(inner: &Inner, state: &State) {
    let m = &inner.config.metrics;
    m.set_gauge("cluster.workers_alive", state.workers.len() as u64);
    m.set_gauge("cluster.epoch", state.table.epoch);
    m.set_gauge("cluster.cells_unassigned", state.table.unassigned() as u64);
}

/// Renders the `/cluster` admin document: epoch, grid shape, assignment
/// table, failover state, and per-worker membership/health rows.
fn cluster_json(inner: &Inner) -> String {
    let state = inner.state.lock();
    // BTreeMap for deterministic row order in the rendered JSON.
    let rows: BTreeMap<&String, &WorkerConn> = state.workers.iter().collect();
    let workers: Vec<Value> = rows
        .into_iter()
        .map(|(name, w)| {
            let mut d = Document::with_capacity(8);
            d.insert("name", name.as_str());
            d.insert("weight", w.weight as i64);
            d.insert("heartbeat_epoch", w.heartbeat_epoch as i64);
            d.insert("caught_up_epoch", w.caught_up_epoch as i64);
            d.insert("last_heartbeat_ms", w.last_heartbeat.elapsed().as_millis() as i64);
            d.insert("health", w.health_status.as_str());
            d.insert(
                "cells",
                Value::Array(
                    state.table.cells_of(name).into_iter().map(|c| (c as i64).into()).collect(),
                ),
            );
            match &w.snapshot {
                Some((epoch, _)) => d.insert("metrics_epoch", *epoch as i64),
                None => d.insert("metrics_epoch", Value::Null),
            };
            Value::Object(d)
        })
        .collect();
    let assignment: Vec<Value> = state
        .table
        .cells
        .iter()
        .map(|owner| match owner {
            Some(w) => Value::String(w.clone()),
            None => Value::Null,
        })
        .collect();
    let doc = doc! {
        "epoch" => state.table.epoch as i64,
        "grid" => Value::Object(doc! {
            "query_partitions" => state.table.grid.query_partitions as i64,
            "write_partitions" => state.table.grid.write_partitions as i64,
        }),
        "unassigned" => state.table.unassigned() as i64,
        "cached_subscriptions" => state.subscriptions.len() as i64,
        "failover_in_progress" => state.failover_since.is_some(),
        "workers" => Value::Array(workers),
        "assignment" => Value::Array(assignment),
    };
    invalidb_json::to_string(&doc)
}

/// Closes the failover timeline once the grid has actually recovered:
/// every cell assigned *and* every owner caught up (subscription replay
/// delivered after it reported cells) at the current epoch. Records
/// `cluster.failover_mttr_ms` — SIGKILL-to-recovered as one number — as
/// both a gauge (last recovery) and a histogram (all recoveries).
fn maybe_complete_failover(inner: &Inner, state: &mut State) {
    let Some(since) = state.failover_since else { return };
    if state.table.unassigned() != 0 {
        return;
    }
    let epoch = state.table.epoch;
    let caught_up = state
        .table
        .cells
        .iter()
        .flatten()
        .all(|owner| state.workers.get(owner).map(|w| w.caught_up_epoch >= epoch).unwrap_or(false));
    if !caught_up {
        return;
    }
    let mttr_ms = since.elapsed().as_millis() as u64;
    state.failover_since = None;
    let m = &inner.config.metrics;
    m.set_gauge("cluster.failover_mttr_ms", mttr_ms);
    m.record("cluster.failover_mttr_ms", mttr_ms);
    m.flight().record_cluster(
        FlightEventKind::Failover,
        format!("recovered in {mttr_ms} ms at epoch {epoch}"),
        "coordinator",
        epoch,
    );
}

/// Recomputes placement after a membership change, broadcasts the table,
/// announces the epoch, and replays cached subscriptions. Caller must have
/// already updated `state.workers` / evicted dead owners.
fn reassign(inner: &Inner, state: &mut State, cause: &str, cause_worker: &str) {
    state.table.epoch += 1;
    let workers: Vec<WorkerInfo> = state
        .workers
        .iter()
        .map(|(name, w)| WorkerInfo { name: name.clone(), weight: w.weight })
        .collect();
    let before: Vec<Option<String>> = state.table.cells.clone();
    inner.config.placement.place(inner.config.grid, &workers, &mut state.table.cells);
    let moved = before.iter().zip(&state.table.cells).filter(|(a, b)| a != b).count();
    publish_gauges(inner, state);
    inner.config.metrics.flight().record_cluster(
        FlightEventKind::Failover,
        format!(
            "epoch {} ({cause}): {moved} cells reassigned, {} unassigned",
            state.table.epoch,
            state.table.unassigned()
        ),
        cause_worker,
        state.table.epoch,
    );

    // Push the new table to every live worker.
    let assign = Frame::Assign {
        epoch: state.table.epoch,
        query_partitions: inner.config.grid.query_partitions as u32,
        write_partitions: inner.config.grid.write_partitions as u32,
        cells: state.table.assigned_cells(),
    };
    let wire = assign.encode();
    for worker in state.workers.values() {
        let _ = worker.stream.lock().write_all(&wire);
    }

    // Tell application servers the epoch moved so they can replay their
    // recent-write buffers and renew subscriptions against the store.
    let notice = doc! {
        "epoch" => state.table.epoch as i64,
        "reassigned" => moved as i64,
    };
    inner.broker.publish(EPOCH_TOPIC, WireCodec.encode(&notice));

    // Silent re-registration: replacement workers rebuild matching state
    // from the cached subscription (plus retention replay); `renewal: true`
    // suppresses the stale initial result at the notifier.
    replay_subscriptions(inner, state);
}

/// Publishes every cached subscription with `renewal: true`. Called at
/// reassignment time and again when a worker first reports cells at the
/// current epoch — the second pass closes the race where a replacement
/// worker's rebuilt topology subscribes to the cluster topic *after* the
/// reassignment-time replay was published.
fn replay_subscriptions(inner: &Inner, state: &State) {
    let mut replayed = 0usize;
    for req in state.subscriptions.values() {
        let mut req = req.clone();
        req.renewal = true;
        let payload = WireCodec.encode(&ClusterMessage::Subscribe(req).to_document());
        inner.broker.publish(CLUSTER_TOPIC, payload);
        replayed += 1;
    }
    if replayed > 0 {
        inner.config.metrics.add("cluster.subscriptions_replayed", replayed as u64);
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    while inner.running.load(Ordering::SeqCst) {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if !inner.running.load(Ordering::SeqCst) {
            break;
        }
        let inner = Arc::clone(&inner);
        let _ = thread::Builder::new()
            .name(format!("coord-conn-{peer}"))
            .spawn(move || connection_loop(stream, inner));
    }
}

/// One worker control connection: JoinCluster registration, heartbeat,
/// cell-state and metrics-report ingestion.
fn connection_loop(mut stream: TcpStream, inner: Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let write_half = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    // The worker this connection registered as, for cleanup on hangup.
    let mut registered: Option<String> = None;

    'outer: while inner.running.load(Ordering::SeqCst) {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        decoder.feed(&buf[..n]);
        loop {
            let frame = match decoder.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    inner.config.metrics.inc("cluster.decode_errors");
                    break 'outer;
                }
            };
            match frame {
                Frame::JoinCluster { worker, weight } => {
                    let mut state = inner.state.lock();
                    state
                        .workers
                        .insert(worker.clone(), WorkerConn::new(weight, Arc::clone(&write_half)));
                    registered = Some(worker.clone());
                    inner.config.metrics.flight().record_cluster(
                        FlightEventKind::WorkerJoin,
                        format!("{worker} weight={weight}"),
                        worker.as_str(),
                        state.table.epoch,
                    );
                    reassign(&inner, &mut state, &format!("join {worker}"), &worker);
                }
                Frame::WorkerHeartbeat { worker, epoch, .. } => {
                    let mut state = inner.state.lock();
                    if let Some(w) = state.workers.get_mut(&worker) {
                        w.last_heartbeat = Instant::now();
                        w.heartbeat_epoch = epoch;
                    }
                }
                Frame::CellState { worker, epoch, cell, active_queries, retained_writes } => {
                    let m = &inner.config.metrics;
                    m.set_gauge(&format!("cluster.{worker}.cell{cell}.active_queries"), active_queries);
                    m.set_gauge(
                        &format!("cluster.{worker}.cell{cell}.retained_writes"),
                        retained_writes,
                    );
                    // First report at the current epoch: the worker's
                    // rebuilt topology is live, so catch it up with a
                    // subscription replay (idempotent for everyone else).
                    let mut state = inner.state.lock();
                    if epoch == state.table.epoch {
                        if let Some(w) = state.workers.get_mut(&worker) {
                            if w.caught_up_epoch < epoch {
                                w.caught_up_epoch = epoch;
                                replay_subscriptions(&inner, &state);
                            }
                        }
                        // A catch-up may be the last step of a failover:
                        // close the MTTR timeline if everything recovered.
                        maybe_complete_failover(&inner, &mut state);
                    }
                }
                Frame::MetricsReport { worker, epoch, snapshot } => {
                    let m = &inner.config.metrics;
                    m.inc("cluster.metrics_reports");
                    let parsed =
                        std::str::from_utf8(&snapshot).ok().and_then(MetricsSnapshot::from_json);
                    let Some(snap) = parsed else {
                        m.inc("cluster.metrics_decode_errors");
                        continue;
                    };
                    let mut state = inner.state.lock();
                    if let Some(w) = state.workers.get_mut(&worker) {
                        // Per-worker health, derived from the federated
                        // snapshot with the same policy the worker's own
                        // admin endpoint would use.
                        let report = w.health.evaluate(&snap);
                        if report.status != w.health_status {
                            m.flight().record_cluster(
                                FlightEventKind::HealthTransition,
                                format!(
                                    "worker {worker}: {} -> {}",
                                    w.health_status.as_str(),
                                    report.status.as_str()
                                ),
                                worker.as_str(),
                                epoch,
                            );
                            w.health_status = report.status;
                        }
                        m.set_gauge(&format!("cluster.{worker}.health"), report.status.as_gauge());
                        w.snapshot = Some((epoch, snap));
                    }
                }
                Frame::Heartbeat { nonce } => {
                    let _ = write_half.lock().write_all(&Frame::Heartbeat { nonce }.encode());
                }
                // Broker traffic does not belong on the coordinator port.
                Frame::Subscribe { .. }
                | Frame::Unsubscribe { .. }
                | Frame::Publish { .. }
                | Frame::Ack { .. }
                | Frame::Assign { .. } => {}
            }
        }
    }

    // Connection gone: treat as an immediate leave (faster than waiting
    // for the heartbeat timeout).
    if let Some(worker) = registered {
        let mut state = inner.state.lock();
        // Only evict if this connection is still the registered one (the
        // worker may have reconnected on a fresh socket).
        let same_conn =
            state.workers.get(&worker).map(|w| Arc::ptr_eq(&w.stream, &write_half)).unwrap_or(false);
        if same_conn && inner.running.load(Ordering::SeqCst) {
            state.workers.remove(&worker);
            let orphaned = state.table.evict(&worker);
            if orphaned > 0 {
                // Start (or keep) the failover clock: cells just lost
                // their host; MTTR runs until the grid is rebuilt.
                state.failover_since.get_or_insert_with(Instant::now);
            }
            inner.config.metrics.flight().record_cluster(
                FlightEventKind::WorkerLeave,
                format!("{worker} hangup, {orphaned} cells"),
                worker.as_str(),
                state.table.epoch,
            );
            reassign(&inner, &mut state, &format!("hangup {worker}"), &worker);
            maybe_complete_failover(&inner, &mut state);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Declares workers dead after `heartbeat_timeout` of silence.
fn supervise_loop(inner: Arc<Inner>) {
    while inner.running.load(Ordering::SeqCst) {
        thread::sleep(inner.config.supervise_interval);
        let mut state = inner.state.lock();
        let timeout = inner.config.heartbeat_timeout;
        let dead: Vec<String> = state
            .workers
            .iter()
            .filter(|(_, w)| w.last_heartbeat.elapsed() > timeout)
            .map(|(name, _)| name.clone())
            .collect();
        if dead.is_empty() {
            continue;
        }
        for worker in &dead {
            // MTTR starts when the worker went silent, not when the
            // timeout fired — detection latency is part of recovery time.
            let mut last_seen = Instant::now();
            if let Some(conn) = state.workers.remove(worker) {
                last_seen = conn.last_heartbeat;
                let _ = conn.stream.lock().shutdown(Shutdown::Both);
            }
            let orphaned = state.table.evict(worker);
            if orphaned > 0 {
                let since = state.failover_since.get_or_insert(last_seen);
                *since = (*since).min(last_seen);
            }
            inner.config.metrics.flight().record_cluster(
                FlightEventKind::WorkerLeave,
                format!("{worker} missed heartbeats ({timeout:?}), {orphaned} cells"),
                worker.as_str(),
                state.table.epoch,
            );
        }
        let cause_workers = dead.join(",");
        reassign(&inner, &mut state, &format!("heartbeat timeout: {cause_workers}"), &cause_workers);
    }
}

/// Caches Subscribe envelopes off the cluster topic for failover replay.
fn subscription_cache_loop(inner: Arc<Inner>) {
    let sub = inner.broker.subscribe(CLUSTER_TOPIC);
    while inner.running.load(Ordering::SeqCst) {
        let payload = match sub.recv_timeout(Duration::from_millis(250)) {
            Some(payload) => payload,
            None => continue,
        };
        let Some(msg) = invalidb_json::payload_to_document(&payload)
            .ok()
            .and_then(|d| ClusterMessage::from_document(&d).ok())
        else {
            continue;
        };
        match msg {
            // Our own renewal replays are skipped (they would only write
            // back what is already cached); app-server renewals carry
            // `renewal: false` and a fresh bootstrap result, so they
            // refresh the cache — last write wins.
            ClusterMessage::Subscribe(req) if !req.renewal => {
                let mut state = inner.state.lock();
                state.subscriptions.insert((req.tenant.clone(), req.subscription.0), req);
                let count = state.subscriptions.len() as u64;
                inner.config.metrics.set_gauge("cluster.cached_subscriptions", count);
            }
            ClusterMessage::Unsubscribe { tenant, subscription, .. } => {
                let mut state = inner.state.lock();
                state.subscriptions.remove(&(tenant, subscription.0));
                let count = state.subscriptions.len() as u64;
                inner.config.metrics.set_gauge("cluster.cached_subscriptions", count);
            }
            _ => {}
        }
    }
}
