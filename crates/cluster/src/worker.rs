//! The remote worker runtime: hosts assigned grid cells as an
//! [`invalidb_core::Cluster`] over a [`CellSet`] and keeps a control
//! connection to the coordinator.
//!
//! Lifecycle: dial the coordinator → `JoinCluster` → heartbeat loop. Each
//! `Assign` frame that changes the owned cell set tears down the hosted
//! topology and rebuilds it for the new cells; state is then restored by the coordinator's silent
//! subscription replay plus app-server write replay (retention-guarded, so
//! survivors drop duplicates). Connection loss triggers exponential-backoff
//! redial and a fresh `JoinCluster` — membership is lease-like, not sticky.

use invalidb_broker::BrokerHandle;
use invalidb_common::GridShape;
use invalidb_core::{CellSet, Cluster, ClusterConfig, WorkerIdentity};
use invalidb_net::frame::{Decoder, Frame};
use invalidb_obs::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Worker tuning knobs.
#[derive(Clone)]
pub struct WorkerConfig {
    /// Unique worker name, registered with the coordinator.
    pub name: String,
    /// Relative capacity weight (see
    /// [`crate::assignment::WorkerInfo::weight`]).
    pub weight: u32,
    /// Interval between `WorkerHeartbeat` frames. Must be well below the
    /// coordinator's heartbeat timeout.
    pub heartbeat_interval: Duration,
    /// Interval between `CellState` reports.
    pub cell_state_interval: Duration,
    /// Base configuration for the hosted topology; its grid dimensions are
    /// overwritten by each `Assign` frame.
    pub cluster: ClusterConfig,
    /// Metrics registry for worker-side gauges.
    pub metrics: MetricsRegistry,
}

impl WorkerConfig {
    /// Defaults: weight 1, 250 ms heartbeats, 1 s cell-state reports.
    pub fn new(name: impl Into<String>, cluster: ClusterConfig) -> WorkerConfig {
        WorkerConfig {
            name: name.into(),
            weight: 1,
            heartbeat_interval: Duration::from_millis(250),
            cell_state_interval: Duration::from_secs(1),
            metrics: cluster.metrics.clone(),
            cluster,
        }
    }
}

struct WorkerInner {
    config: WorkerConfig,
    broker: BrokerHandle,
    coordinator_addr: String,
    running: AtomicBool,
    /// Shared with the hosted topology's [`WorkerIdentity`], so trace
    /// stamps always carry the epoch in force at match time.
    epoch: Arc<AtomicU64>,
    /// Owned cells under the current epoch (empty before first Assign).
    cells: Mutex<BTreeSet<usize>>,
    /// Grid shape of the last accepted Assign (for cell-index → coordinate
    /// translation when reporting `CellState` load numbers).
    grid: Mutex<Option<GridShape>>,
    /// The hosted topology, rebuilt whenever the owned set changes.
    hosted: Mutex<Option<Cluster>>,
    assigned: AtomicBool,
}

/// A running remote worker. Dropping it stops the control loop and the
/// hosted topology.
pub struct Worker {
    inner: Arc<WorkerInner>,
    thread: Option<JoinHandle<()>>,
}

impl Worker {
    /// Starts a worker that dials `coordinator_addr` and hosts its assigned
    /// cells against `broker` (the shared event layer).
    pub fn connect(
        coordinator_addr: impl Into<String>,
        broker: impl Into<BrokerHandle>,
        config: WorkerConfig,
    ) -> Worker {
        let inner = Arc::new(WorkerInner {
            config,
            broker: broker.into(),
            coordinator_addr: coordinator_addr.into(),
            running: AtomicBool::new(true),
            epoch: Arc::new(AtomicU64::new(0)),
            cells: Mutex::new(BTreeSet::new()),
            grid: Mutex::new(None),
            hosted: Mutex::new(None),
            assigned: AtomicBool::new(false),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name(format!("worker-{}", inner.config.name))
                .spawn(move || control_loop(inner))
                .expect("spawn worker control thread")
        };
        Worker { inner, thread: Some(thread) }
    }

    /// The epoch of the last accepted `Assign`.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// The cells this worker currently hosts, ascending.
    pub fn cells(&self) -> Vec<usize> {
        self.inner.cells.lock().iter().copied().collect()
    }

    /// Blocks until the worker has accepted at least one `Assign` frame
    /// (or the timeout passes); returns whether it is assigned.
    pub fn wait_assigned(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.inner.assigned.load(Ordering::SeqCst) {
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// Stops the worker and the hosted topology.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.inner.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(cluster) = self.inner.hosted.lock().take() {
            cluster.shutdown();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

fn control_loop(inner: Arc<WorkerInner>) {
    let mut backoff = Duration::from_millis(50);
    while inner.running.load(Ordering::SeqCst) {
        match TcpStream::connect(&inner.coordinator_addr) {
            Ok(stream) => {
                inner.config.metrics.set_gauge("worker.coordinator_connected", 1);
                backoff = Duration::from_millis(50);
                session(&inner, stream);
                inner.config.metrics.set_gauge("worker.coordinator_connected", 0);
            }
            Err(_) => {
                inner.config.metrics.inc("worker.connect_errors");
            }
        }
        if !inner.running.load(Ordering::SeqCst) {
            break;
        }
        thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
}

/// One control-connection session: register, heartbeat, host assignments.
fn session(inner: &Arc<WorkerInner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let join = Frame::JoinCluster { worker: inner.config.name.clone(), weight: inner.config.weight };
    if stream.write_all(&join.encode()).is_err() {
        return;
    }

    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut last_heartbeat = Instant::now() - inner.config.heartbeat_interval;
    let mut last_cell_state = Instant::now();
    let mut nonce = 0u64;

    while inner.running.load(Ordering::SeqCst) {
        if last_heartbeat.elapsed() >= inner.config.heartbeat_interval {
            last_heartbeat = Instant::now();
            nonce += 1;
            let beat = Frame::WorkerHeartbeat {
                worker: inner.config.name.clone(),
                epoch: inner.epoch.load(Ordering::SeqCst),
                nonce,
            };
            if stream.write_all(&beat.encode()).is_err() {
                return;
            }
        }
        if last_cell_state.elapsed() >= inner.config.cell_state_interval {
            last_cell_state = Instant::now();
            let epoch = inner.epoch.load(Ordering::SeqCst);
            let cells: Vec<usize> = inner.cells.lock().iter().copied().collect();
            // Real load numbers: the hosted topology refreshes per-cell
            // `matching.<qp>x<wp>.*` gauges on tick into the shared
            // registry; translate cell indices back to grid coordinates
            // and read them off a snapshot.
            let grid = *inner.grid.lock();
            let snap = inner.config.metrics.snapshot();
            for cell in cells {
                let (active_queries, retained_writes) = match grid {
                    Some(g) => {
                        let c = g.coord_of(cell);
                        let prefix = format!("matching.{}x{}", c.qp, c.wp);
                        (
                            snap.gauges.get(&format!("{prefix}.active_queries")).copied().unwrap_or(0),
                            snap.gauges.get(&format!("{prefix}.retained_writes")).copied().unwrap_or(0),
                        )
                    }
                    None => (0, 0),
                };
                let report = Frame::CellState {
                    worker: inner.config.name.clone(),
                    epoch,
                    cell: cell as u32,
                    active_queries,
                    retained_writes,
                };
                if stream.write_all(&report.encode()).is_err() {
                    return;
                }
            }
            // Metrics federation: ship the full snapshot so the
            // coordinator can expose per-worker labeled series.
            let report = Frame::MetricsReport {
                worker: inner.config.name.clone(),
                epoch,
                snapshot: snap.to_json().into_bytes().into(),
            };
            if stream.write_all(&report.encode()).is_err() {
                return;
            }
            inner.config.metrics.inc("worker.metrics_reports");
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next() {
                Ok(Some(Frame::Assign { epoch, query_partitions, write_partitions, cells })) => {
                    handle_assign(inner, epoch, query_partitions, write_partitions, cells);
                    // Report the new cell set immediately: the coordinator
                    // uses the first CellState at a fresh epoch to catch
                    // this worker up with a subscription replay.
                    last_cell_state = Instant::now() - inner.config.cell_state_interval;
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    inner.config.metrics.inc("worker.decode_errors");
                    return;
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_assign(
    inner: &Arc<WorkerInner>,
    epoch: u64,
    query_partitions: u32,
    write_partitions: u32,
    cells: Vec<(u32, String)>,
) {
    if epoch <= inner.epoch.load(Ordering::SeqCst) && inner.assigned.load(Ordering::SeqCst) {
        // Stale or duplicate table: epochs only move forward.
        return;
    }
    let mine: BTreeSet<usize> =
        cells.iter().filter(|(_, w)| *w == inner.config.name).map(|(c, _)| *c as usize).collect();
    inner.epoch.store(epoch, Ordering::SeqCst);
    *inner.grid.lock() = Some(GridShape::new(query_partitions as usize, write_partitions as usize));
    inner.config.metrics.set_gauge("worker.epoch", epoch);
    inner.config.metrics.set_gauge("worker.cells_hosted", mine.len() as u64);

    let changed = {
        let mut owned = inner.cells.lock();
        let changed = *owned != mine;
        *owned = mine.clone();
        changed
    };
    // Rebuild only when the owned set actually changed: an epoch bump that
    // reassigns *other* workers' cells must not wipe local matching state.
    if changed {
        let mut config = inner.config.cluster.clone();
        config.query_partitions = query_partitions as usize;
        config.write_partitions = write_partitions as usize;
        // Hosted cells stamp sampled traces with this worker's name and
        // the *live* epoch (the Arc is shared with the control loop).
        config.worker_identity =
            Some(WorkerIdentity::new(inner.config.name.as_str(), Arc::clone(&inner.epoch)));
        let grid = invalidb_common::GridShape::new(config.query_partitions, config.write_partitions);
        let host = CellSet::new(grid, mine.iter().copied());
        let next = if mine.is_empty() {
            None
        } else {
            Some(Cluster::start_with_host(inner.broker.clone(), config, host))
        };
        let prev = {
            let mut hosted = inner.hosted.lock();
            std::mem::replace(&mut *hosted, next)
        };
        if let Some(prev) = prev {
            prev.shutdown();
        }
        inner.config.metrics.inc("worker.rebuilds");
    }
    inner.assigned.store(true, Ordering::SeqCst);
}
