//! Cluster assembly: the ingress, the matching grid and the sorting and
//! aggregation stages as hand-wired tasks between two event-layer topics.
//!
//! ```text
//!  event layer ──► ingress ──┬──► cell (qp, wp) ──► event layer   (unsorted: encode + publish)
//!  "invalidb.cluster"        │         │
//!                            │         ▼
//!                            └──► sorting / aggregation partition ──► event layer
//! ```
//!
//! A queue stands only where the paper has a boundary: in front of a cell
//! (the QP × WP grid is what partitions the work) and in front of a
//! sorting/aggregation partition (keyed by query hash, a different key than
//! the cell's). Everything else — decode and partition hashing in the
//! ingress; index probe, predicate evaluation, notify encode and publish in
//! the cell — is a function call on the thread that has the message.
//!
//! Which cells run here is a [`CellSet`]: the classic in-process
//! deployment hosts [`CellSet::all`], while a multi-process worker hosts
//! its assigned subset — only those cells exist here, and staged
//! (sorted/aggregate) output from cells whose query-partition row lives on
//! another worker is published by the cell to the row's shuffle topic
//! instead of an in-process queue.

use crate::aggregation::AggregationNode;
use crate::config::{ClusterConfig, WorkerIdentity};
use crate::event::{Event, FilterChange};
use crate::links::StageLinks;
use crate::matching::{MatchingNode, StagedOut};
use crate::notifier::Publisher;
use crate::sorting::SortingNode;
use crossbeam::channel::{bounded, Receiver, Sender};
use invalidb_broker::{shuffle_topic, BrokerHandle, Bytes, Subscription, CLUSTER_TOPIC};
use invalidb_common::{ClusterMessage, GridCoord, GridShape, Stage, SystemClock, TenantInterner};
use invalidb_obs::{
    AdminConfig, AdminServer, FlightRecorder, MetricsRegistry, MetricsSnapshot, SlowQueryLog,
};
use invalidb_stream::{task, Task};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The matching-grid cells this process hosts, by task index (row-major,
/// see [`GridShape::task_index`]).
///
/// The 2-D grid (§5.1) is position-addressed: cell `(qp, wp)` sees every
/// (query, write) pair for its partitions regardless of where it runs. A
/// `CellSet` tells the assembly which cells are local, so the same code
/// serves both the single-process grid ([`CellSet::all`]) and a remote
/// worker hosting an assigned subset.
#[derive(Debug, Clone)]
pub struct CellSet {
    grid: GridShape,
    cells: BTreeSet<usize>,
}

impl CellSet {
    /// The given cells of a grid. Out-of-range indices are rejected.
    pub fn new(grid: GridShape, cells: impl IntoIterator<Item = usize>) -> CellSet {
        let cells: BTreeSet<usize> = cells.into_iter().collect();
        assert!(
            cells.iter().all(|&t| t < grid.nodes()),
            "cell index out of range for {}x{} grid",
            grid.query_partitions,
            grid.write_partitions
        );
        CellSet { grid, cells }
    }

    /// Every cell of the grid: the single-process deployment.
    pub fn all(grid: GridShape) -> CellSet {
        CellSet { grid, cells: (0..grid.nodes()).collect() }
    }

    /// True when the matching cell with this task index runs here.
    fn owns_cell(&self, task: usize) -> bool {
        self.cells.contains(&task)
    }

    /// True when query-partition row `qp` is *anchored* here: the row owner
    /// hosts the row's sorting/aggregation state and emits its initial
    /// results. By convention the owner of cell `(qp, 0)` owns the row.
    fn owns_row(&self, qp: usize) -> bool {
        qp < self.grid.query_partitions && self.owns_cell(self.grid.task_index(GridCoord { qp, wp: 0 }))
    }

    /// True when every cell of the grid is hosted here (no shuffle needed).
    fn is_complete(&self) -> bool {
        self.cells.len() == self.grid.nodes()
    }
}

/// A running InvaliDB cluster.
///
/// The cluster is reachable *only* through the event layer: publish
/// [`ClusterMessage`]s (JSON documents) to [`CLUSTER_TOPIC`]; notifications
/// arrive on per-tenant `invalidb.notify.<tenant>` topics. Dropping the
/// handle shuts the cluster down — application servers and the database are
/// unaffected (isolated failure domain, §5).
pub struct Cluster {
    shutdown: Arc<AtomicBool>,
    /// The pipeline threads, front to back: ingress (and shuffle ingress),
    /// cells, stage partitions. Joined in this order on shutdown.
    threads: Vec<JoinHandle<()>>,
    grid: GridShape,
    decode_errors: Arc<AtomicU64>,
    registry: MetricsRegistry,
    admin: Option<AdminServer>,
}

/// How long the ingress blocks on the event layer before it looks at the
/// shutdown flag and the heartbeat deadline again.
const INGRESS_POLL: Duration = Duration::from_millis(10);

impl Cluster {
    /// Starts a cluster with the given configuration, attached to an event
    /// layer — an in-process [`invalidb_broker::Broker`], a
    /// [`BrokerHandle`], or any other [`invalidb_broker::EventLayer`]
    /// implementation (e.g. `invalidb-net`'s TCP-backed `RemoteBroker`).
    pub fn start(broker: impl Into<BrokerHandle>, config: ClusterConfig) -> Cluster {
        let grid = GridShape::new(config.query_partitions, config.write_partitions);
        Cluster::start_with_host(broker, config, CellSet::all(grid))
    }

    /// Starts a cluster hosting only the cells of `host`.
    ///
    /// With [`CellSet::all`] this is exactly [`Cluster::start`]. With a
    /// subset only the owned cells are spawned and fed, initial results
    /// and the sorting/aggregation stages serve only owned rows, and staged
    /// output from owned cells whose row is anchored elsewhere leaves
    /// through the per-row shuffle topic
    /// ([`invalidb_broker::shuffle_topic`]).
    pub fn start_with_host(
        broker: impl Into<BrokerHandle>,
        config: ClusterConfig,
        host: CellSet,
    ) -> Cluster {
        let broker: BrokerHandle = broker.into();
        let grid = GridShape::new(config.query_partitions, config.write_partitions);
        let clock = Arc::new(SystemClock::new());
        let decode_errors = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let publisher = Publisher::new(broker.clone(), &config, clock.clone());
        let metrics = &config.metrics;
        let tick_interval = config.tick_interval;
        let queues = |n: usize| -> (Vec<Sender<Event>>, Vec<Receiver<Event>>) {
            (0..n).map(|_| bounded(config.queue_capacity)).unzip()
        };
        let mut threads = Vec::new();

        // The queues: one per stage partition, one per owned cell.
        let (sorting, sorting_rx) = queues(config.sorting_tasks.max(1));
        let (aggregation, aggregation_rx) = queues(config.aggregation_tasks.max(1));
        let links = StageLinks { sorting, aggregation };
        let mut cells: Vec<Option<Sender<Event>>> = vec![None; grid.nodes()];
        let mut cells_rx = Vec::new();
        for task in (0..grid.nodes()).filter(|&task| host.owns_cell(task)) {
            let (tx, rx) = bounded(config.queue_capacity);
            cells[task] = Some(tx);
            cells_rx.push((task, rx));
        }

        // Ingress: decodes event-layer payloads, answers subscriptions with
        // their initial result, and hands every event straight to the cells
        // and stage partitions that own it.
        let ingress = Ingress {
            subscription: broker.subscribe(CLUSTER_TOPIC),
            grid,
            host: host.clone(),
            cells,
            links: links.clone(),
            publisher: publisher.clone(),
            tenants: TenantInterner::default(),
            identity: config.worker_identity.clone(),
            decode_errors: Arc::clone(&decode_errors),
            decode_error_count: metrics.counter("ingress.decode_errors"),
            traced_writes: metrics.counter("ingress.traced_writes"),
            processed: metrics.counter("cluster.ingress.processed"),
            emitted: metrics.counter("cluster.ingress.emitted"),
            ticks: metrics.counter("cluster.ingress.ticks"),
        };
        // The ingress has no queue of its own (it reads the event layer);
        // the gauge is exported, at 0, so every component has one.
        metrics.gauge("cluster.ingress.queue_depth");
        {
            let shutdown = Arc::clone(&shutdown);
            threads.push(spawn("ingress".into(), move || ingress.run(&shutdown, tick_interval)));
        }

        // Shuffle ingress (subset hosts only): staged output published by
        // *other* workers' cells for rows anchored here.
        let shuffled: Vec<Subscription> = (0..grid.query_partitions)
            .filter(|&qp| !host.is_complete() && host.owns_row(qp))
            .map(|qp| broker.subscribe(&shuffle_topic(qp)))
            .collect();
        if !shuffled.is_empty() {
            let shuffle = ShuffleIngress {
                subscriptions: shuffled,
                links: links.clone(),
                decode_errors: Arc::clone(&decode_errors),
                metrics: metrics.clone(),
            };
            let shutdown = Arc::clone(&shutdown);
            threads.push(spawn("shuffle-ingress".into(), move || shuffle.run(&shutdown)));
        }

        // The owned cells of the QP × WP matching grid (filtering stage).
        for (task, rx) in cells_rx {
            let GridCoord { qp, wp } = grid.coord_of(task);
            let staged = if host.owns_row(qp) {
                StagedOut::Local(links.clone())
            } else {
                StagedOut::Shuffle {
                    broker: broker.clone(),
                    topic: shuffle_topic(qp),
                    published: metrics.counter("shuffle.egress"),
                }
            };
            let node =
                MatchingNode::new(task, grid, config.clone(), clock.clone(), publisher.clone(), staged);
            threads.push(spawn_task(
                format!("cell-{qp}x{wp}"),
                rx,
                node,
                tick_interval,
                metrics,
                "matching",
            ));
        }

        // Sorting stage, partitioned by query.
        for (task, rx) in sorting_rx.into_iter().enumerate() {
            let node = SortingNode::new(task, config.clone(), clock.clone(), publisher.clone());
            threads.push(spawn_task(
                format!("sorting-{task}"),
                rx,
                node,
                tick_interval,
                metrics,
                "sorting",
            ));
        }

        // Aggregation stage (extension, §8.1), partitioned by query.
        for (task, rx) in aggregation_rx.into_iter().enumerate() {
            let node = AggregationNode::new(clock.clone(), publisher.clone());
            let name = format!("aggregation-{task}");
            threads.push(spawn_task(name, rx, node, tick_interval, metrics, "aggregation"));
        }

        let registry = config.metrics.clone();
        // Optional admin plane. A failed bind does not abort the cluster
        // (the pipeline is the product; the admin endpoint is a window into
        // it) but is recorded so it cannot go unnoticed.
        let admin = config.admin_addr.as_deref().and_then(|addr| {
            match AdminServer::bind(addr, registry.clone(), AdminConfig::default()) {
                Ok(server) => Some(server),
                Err(_) => {
                    registry.inc("admin.bind_errors");
                    None
                }
            }
        });
        Cluster { shutdown, threads, grid, decode_errors, registry, admin }
    }

    /// The grid shape this cluster runs.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Names of the pipeline threads, front to back: `ingress`
    /// (`shuffle-ingress` on subset hosts), one `cell-<qp>x<wp>` per hosted
    /// cell, then the `sorting-<n>` and `aggregation-<n>` partitions.
    pub fn pipeline_threads(&self) -> Vec<String> {
        self.threads.iter().map(|t| t.thread().name().unwrap_or_default().to_owned()).collect()
    }

    /// A point-in-time snapshot of every cluster metric: per-stage latency
    /// histograms (when tracing is enabled), matched/filtered/dropped
    /// counters, per-partition gauges, and the per-component
    /// `cluster.<component>.{processed,emitted,ticks,queue_depth}` series of
    /// the `ingress`, `matching`, `sorting` and `aggregation` tasks.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The live registry this cluster reports into (shared with whatever
    /// was passed via [`ClusterConfig::builder`]'s `metrics` setter).
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone()
    }

    /// Count of event-layer payloads that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// The slow-query log: per-query cost accounting fed by the matching
    /// and sorting stages. `top(k)` returns the heaviest queries.
    pub fn slow_queries(&self) -> SlowQueryLog {
        self.registry.slow_queries()
    }

    /// The flight recorder: a bounded ring of recent structured pipeline
    /// events (reconnects, drops, decode errors, health transitions).
    pub fn flight(&self) -> FlightRecorder {
        self.registry.flight()
    }

    /// Where the admin endpoint actually listens (useful with a `:0` bind),
    /// or `None` when [`ClusterConfig::admin_addr`] was unset or the bind
    /// failed (counted as `admin.bind_errors`).
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// The hosted admin server, when one is running.
    pub fn admin(&self) -> Option<&AdminServer> {
        self.admin.as_ref()
    }

    /// Stops the cluster, draining in-flight work.
    pub fn shutdown(mut self) {
        if let Some(mut admin) = self.admin.take() {
            admin.shutdown();
        }
        self.stop();
    }

    /// Stops the ingress; every task downstream then drains its queue and
    /// ends when its senders are gone.
    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(body).expect("spawn pipeline thread")
}

/// Runs one stage task on its own thread, reporting under
/// `cluster.<component>`: [`task::run`] resolves `processed`, `ticks` and
/// `queue_depth`; `emitted` is created here so every component exports the
/// same four series (only the ingress hands events on and counts it).
fn spawn_task(
    name: String,
    rx: Receiver<Event>,
    mut node: impl Task<Event> + Send + 'static,
    tick_interval: Duration,
    metrics: &MetricsRegistry,
    component: &str,
) -> JoinHandle<()> {
    let prefix = format!("cluster.{component}");
    metrics.counter(&format!("{prefix}.emitted"));
    let metrics = metrics.clone();
    spawn(name, move || task::run(&rx, &mut node, tick_interval, &metrics, &prefix))
}

/// The front of the pipeline: one thread between the event layer and the
/// cells.
struct Ingress {
    subscription: Subscription,
    grid: GridShape,
    host: CellSet,
    /// Input queue per grid cell, by task index; `None` where the cell is
    /// hosted elsewhere.
    cells: Vec<Option<Sender<Event>>>,
    links: StageLinks,
    publisher: Publisher,
    /// The tenants seen on the write stream: every after-image of a tenant
    /// shares one id instead of carrying its own copy of the name.
    tenants: TenantInterner,
    /// Worker identity for trace stamps in multi-process deployments.
    identity: Option<WorkerIdentity>,
    decode_errors: Arc<AtomicU64>,
    decode_error_count: Arc<AtomicU64>,
    traced_writes: Arc<AtomicU64>,
    /// `cluster.ingress.{processed,emitted,ticks}`.
    processed: Arc<AtomicU64>,
    emitted: Arc<AtomicU64>,
    ticks: Arc<AtomicU64>,
}

impl Ingress {
    fn run(mut self, shutdown: &AtomicBool, tick_interval: Duration) {
        let poll = tick_interval.min(INGRESS_POLL);
        // Heartbeats are due on a deadline of their own: neither a write
        // firehose nor a busy cell may stretch their cadence.
        let mut last_heartbeat_check = Instant::now();
        while !shutdown.load(Ordering::Relaxed) {
            if let Some(payload) = self.subscription.recv_timeout(poll) {
                self.accept(&payload);
                for _ in 1..task::TURN {
                    match self.subscription.try_recv() {
                        Some(payload) => self.accept(&payload),
                        None => break,
                    }
                }
            }
            if last_heartbeat_check.elapsed() >= tick_interval {
                last_heartbeat_check = Instant::now();
                self.ticks.fetch_add(1, Ordering::Relaxed);
                self.publisher.heartbeat();
            }
        }
    }

    /// Decodes one payload and routes it. Binary write envelopes take the
    /// zero-copy lazy path (only the `key`/`doc`/`trace` subtrees are
    /// materialized); everything else goes through the eager decoder with
    /// identical error accounting.
    fn accept(&mut self, payload: &Bytes) {
        let tenants = &mut self.tenants;
        let decoded = crate::ingest::decode_cluster_payload_with(payload, |name| tenants.intern(name));
        let Some(mut msg) = decoded else {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
            self.decode_error_count.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Sampled traces get their ingestion stamp the moment the envelope
        // is decoded off the event layer.
        if let ClusterMessage::Write(img) = &mut msg {
            if let Some(trace) = img.trace.as_mut() {
                match &self.identity {
                    Some(id) => id.stamp(trace, Stage::Ingestion),
                    None => trace.stamp(Stage::Ingestion),
                }
                self.traced_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
        self.route(msg.into());
    }

    /// Two-dimensional routing (§5.1): a write goes to the hosted cells of
    /// its write partition's column, a query to the hosted cells of its
    /// query partition's row — and, where the row is anchored here, to the
    /// stage partition that owns it.
    fn route(&self, event: Event) {
        match &event {
            Event::Write(img) => {
                for task in self.grid.column_tasks(self.grid.write_partition(&img.key)) {
                    self.to_cell(task, &event);
                }
            }
            Event::Subscribe(req) => {
                let qp = self.grid.query_partition(req.query_hash);
                // Only the row owner answers: the same subscription reaches
                // every worker with a cell in the row. The initial result is
                // on the notify topic before any cell or stage partition
                // has the request, so no change notification overtakes it.
                // The stage partition comes before the cells, so it knows
                // the query before any of their filter changes arrives.
                if self.host.owns_row(qp) {
                    self.publisher.initial_result(req);
                    if req.spec.needs_sorting_stage() {
                        self.links.to_sorting(req.query_hash, event.clone());
                    }
                    if req.spec.needs_aggregation_stage() {
                        self.links.to_aggregation(req.query_hash, event.clone());
                    }
                }
                self.to_row(qp, &event);
            }
            Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. } => {
                let qp = self.grid.query_partition(*query_hash);
                if self.host.owns_row(qp) {
                    self.links.to_sorting(*query_hash, event.clone());
                    self.links.to_aggregation(*query_hash, event.clone());
                }
                self.to_row(qp, &event);
            }
            // Not a message of the cluster topic.
            Event::FilterChange(_) => {}
        }
    }

    fn to_row(&self, qp: usize, event: &Event) {
        for task in self.grid.row_tasks(qp) {
            self.to_cell(task, event);
        }
    }

    fn to_cell(&self, task: usize, event: &Event) {
        if let Some(cell) = &self.cells[task] {
            // Blocking send: the cell's bounded queue is the backpressure.
            if cell.send(event.clone()).is_ok() {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Receives staged output published by other workers for rows anchored
/// here and hands it to the local stage partitions.
struct ShuffleIngress {
    subscriptions: Vec<Subscription>,
    links: StageLinks,
    decode_errors: Arc<AtomicU64>,
    metrics: MetricsRegistry,
}

impl ShuffleIngress {
    fn run(self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Relaxed) {
            let mut idle = true;
            for sub in &self.subscriptions {
                while let Some(payload) = sub.try_recv() {
                    idle = false;
                    self.accept(&payload);
                }
            }
            if idle {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn accept(&self, payload: &Bytes) {
        let change = invalidb_json::payload_to_document(payload)
            .ok()
            .and_then(|d| FilterChange::from_document(&d).ok());
        match change {
            Some(fc) => {
                self.metrics.inc("shuffle.ingress");
                // The change does not say which stage its query lives in;
                // the one that does not know the query ignores it.
                let hash = fc.query_hash;
                let event = Event::FilterChange(Arc::new(fc));
                self.links.to_sorting(hash, event.clone());
                self.links.to_aggregation(hash, event);
            }
            None => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                self.metrics.inc("shuffle.decode_errors");
            }
        }
    }
}
