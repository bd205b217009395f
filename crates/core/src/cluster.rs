//! Cluster assembly: the ingress, the matching grid and the sorting stage
//! as hand-wired tasks between two event-layer topics.
//!
//! ```text
//!  event layer ──► ingress ──┬──► cell (qp, wp) ──► event layer   (unsorted: encode + publish)
//!  "invalidb.cluster"        │         │
//!                            │         ▼
//!                            └──► sorting partition ──► event layer
//! ```
//!
//! A queue stands only where the paper has a boundary: in front of a cell
//! (the QP × WP grid is what partitions the work) and in front of a
//! sorting partition (keyed by query hash, a different key than the
//! cell's). Everything else — decode and partition hashing in the
//! ingress; index probe, predicate evaluation, notify encode and publish in
//! the cell — is a function call on the thread that has the message.
//!
//! Which cells run here is a [`CellSet`]: the classic in-process
//! deployment hosts [`CellSet::all`], while a multi-process worker hosts
//! its assigned subset — only those cells exist here, and staged
//! (sorted) output from cells whose query-partition row lives on
//! another worker is published by the cell to the row's shuffle topic
//! instead of an in-process queue.

use crate::config::{ClusterConfig, WorkerIdentity};
use crate::event::{Event, FilterChange, WriteEvent};
use crate::links::StageLinks;
use crate::matching::{MatchingNode, StagedOut};
use crate::notifier::Publisher;
use crate::sorting::SortingNode;
use crossbeam::channel::{bounded, Receiver, Sender};
use invalidb_broker::{shuffle_topic, BrokerHandle, Bytes, Subscription, CLUSTER_TOPIC};
use invalidb_common::{GridCoord, GridShape, Stage, SystemClock, TenantInterner, Timestamp};
use invalidb_obs::{
    AdminConfig, AdminServer, FlightRecorder, MetricsRegistry, MetricsSnapshot, SlowQueryLog,
};
use invalidb_stream::{task, Task};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// hosts the row's sorting state and emits its initial
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
/// [`invalidb_common::ClusterMessage`]s (JSON documents) to [`CLUSTER_TOPIC`]; notifications
/// arrive on per-tenant `invalidb.notify.<tenant>` topics. Dropping the
/// handle shuts the cluster down — application servers and the database are
/// unaffected (isolated failure domain, §5).
pub struct Cluster {
    /// The event-layer subscriptions the ingress tasks read: the cluster
    /// topic's, then each anchored row's shuffle topic's. Dropping one ends
    /// the task that reads it.
    inputs: Vec<Subscription>,
    /// The pipeline threads, front to back: ingress (and shuffle ingress),
    /// cells, sorting partitions. Joined in this order on shutdown.
    threads: Vec<JoinHandle<()>>,
    grid: GridShape,
    decode_errors: Arc<AtomicU64>,
    registry: MetricsRegistry,
    admin: Option<AdminServer>,
}

impl Cluster {
    /// Starts a cluster with the given configuration, attached to an event
    /// layer — an in-process [`invalidb_broker::Broker`], a
    /// [`BrokerHandle`], or any other [`invalidb_broker::EventLayer`]
    /// implementation (e.g. `invalidb-net`'s TCP-backed `RemoteBroker`).
    ///
    /// Panics with the [`ClusterConfig::validate`] error on an invalid
    /// config.
    pub fn start(broker: impl Into<BrokerHandle>, config: ClusterConfig) -> Cluster {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let grid = GridShape::new(config.query_partitions, config.write_partitions);
        Cluster::start_with_host(broker, config, CellSet::all(grid))
    }

    /// Starts a cluster hosting only the cells of `host`.
    ///
    /// With [`CellSet::all`] this is exactly [`Cluster::start`]. With a
    /// subset only the owned cells are spawned and fed, initial results
    /// and the sorting stage serves only owned rows, and staged
    /// output from owned cells whose row is anchored elsewhere leaves
    /// through the per-row shuffle topic
    /// ([`invalidb_broker::shuffle_topic`]).
    ///
    /// Panics with the [`ClusterConfig::validate`] error on an invalid
    /// config.
    pub fn start_with_host(
        broker: impl Into<BrokerHandle>,
        config: ClusterConfig,
        host: CellSet,
    ) -> Cluster {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let broker: BrokerHandle = broker.into();
        let grid = GridShape::new(config.query_partitions, config.write_partitions);
        let clock = Arc::new(SystemClock::new());
        let decode_errors = Arc::new(AtomicU64::new(0));
        let publisher = Publisher::new(broker.clone(), &config, clock.clone());
        let metrics = &config.metrics;
        let queues = |n: usize| -> (Vec<Sender<Event>>, Vec<Receiver<Event>>) {
            (0..n).map(|_| bounded(config.queue_capacity)).unzip()
        };
        let mut threads = Vec::new();

        // The queues: one per sorting partition, one per owned cell.
        let (sorting, sorting_rx) = queues(config.sorting_tasks);
        let links = StageLinks { sorting };
        let mut cells: Vec<Option<Sender<Event>>> = vec![None; grid.nodes()];
        let mut cells_rx = Vec::new();
        for task in (0..grid.nodes()).filter(|&task| host.owns_cell(task)) {
            let (tx, rx) = bounded(config.queue_capacity);
            cells[task] = Some(tx);
            cells_rx.push((task, rx));
        }

        // Ingress: decodes event-layer payloads, answers subscriptions with
        // their initial result, and hands every event straight to the cells
        // and sorting partitions that own it. Its queue is its subscription.
        let input = broker.subscribe(CLUSTER_TOPIC);
        let ingress =
            Ingress::new(host.clone(), cells, links.clone(), publisher.clone(), &config, &decode_errors);
        let rx = input.receiver().clone();
        threads.push(spawn_task("ingress".into(), rx, ingress, &clock, metrics, "ingress"));
        let mut inputs = vec![input];

        // Shuffle ingress (subset hosts only), one per row anchored here:
        // staged output published by *other* workers' cells for the row.
        if !host.is_complete() {
            let shuffle = ShuffleIngress {
                links: links.clone(),
                decode_errors: Arc::clone(&decode_errors),
                ingested: metrics.counter("shuffle.ingress"),
                emitted: metrics.counter("cluster.shuffle.emitted"),
                decode_error_count: metrics.counter("shuffle.decode_errors"),
            };
            for qp in (0..grid.query_partitions).filter(|&qp| host.owns_row(qp)) {
                let input = broker.subscribe(&shuffle_topic(qp));
                let (name, rx) = ("shuffle-ingress".into(), input.receiver().clone());
                threads.push(spawn_task(name, rx, shuffle.clone(), &clock, metrics, "shuffle"));
                inputs.push(input);
            }
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
            threads.push(spawn_task(format!("cell-{qp}x{wp}"), rx, node, &clock, metrics, "matching"));
        }

        // Sorting stage, partitioned by query.
        for (task, rx) in sorting_rx.into_iter().enumerate() {
            let node = SortingNode::new(task, config.clone(), clock.clone(), publisher.clone());
            threads.push(spawn_task(format!("sorting-{task}"), rx, node, &clock, metrics, "sorting"));
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
        Cluster { inputs, threads, grid, decode_errors, registry, admin }
    }

    /// The grid shape this cluster runs.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Names of the pipeline threads, front to back: `ingress` (and one
    /// `shuffle-ingress` per anchored row on subset hosts), one
    /// `cell-<qp>x<wp>` per hosted cell, then the `sorting-<n>` partitions.
    pub fn pipeline_threads(&self) -> Vec<String> {
        self.threads.iter().map(|t| t.thread().name().unwrap_or_default().to_owned()).collect()
    }

    /// A point-in-time snapshot of every cluster metric: per-stage latency
    /// histograms (when tracing is enabled), matched/filtered/dropped
    /// counters, per-partition gauges, the per-component
    /// `cluster.<component>.{processed,ticks,queue_depth}` series of the
    /// `ingress`, `matching` and `sorting` tasks (and `shuffle` on subset
    /// hosts that anchor a row), and `cluster.{ingress,shuffle}.emitted`,
    /// the events those two hand on.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The live registry this cluster reports into (shared with whatever
    /// was passed as [`ClusterConfig::metrics`]).
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone()
    }

    /// Count of event-layer payloads that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// The slow-query log: per-query evaluation and change counts from the
    /// filtering stage. `top(k)` returns the most evaluated queries.
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

    /// Stops the ingress at once: dropping its subscription ends it, and
    /// what it has not taken yet is discarded. Every task downstream then
    /// drains its queue and ends when its senders are gone.
    fn stop(&mut self) {
        for input in self.inputs.drain(..) {
            let backlog = input.receiver().clone();
            drop(input);
            backlog.try_iter().for_each(drop);
        }
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

/// Runs one pipeline task on its own thread and on `clock`, reporting the
/// [`task::Series`] `processed`, `ticks` and `queue_depth` under
/// `cluster.<component>`, all three created before the thread starts.
fn spawn_task<M: Send + 'static>(
    name: String,
    rx: Receiver<M>,
    mut node: impl Task<M> + Send + 'static,
    clock: &Arc<SystemClock>,
    metrics: &MetricsRegistry,
    component: &str,
) -> JoinHandle<()> {
    let series = task::Series::new(metrics, &format!("cluster.{component}"));
    let clock = Arc::clone(clock);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || task::run(&rx, &mut node, &*clock, &series))
        .expect("spawn pipeline thread")
}

/// The front of the pipeline: one task between the event layer and the
/// cells. Its tick drives the heartbeats, on a deadline of its own: neither
/// a write firehose nor a busy cell may stretch their cadence.
pub(crate) struct Ingress {
    grid: GridShape,
    host: CellSet,
    /// Input queue per grid cell, by task index; `None` where the cell is
    /// hosted elsewhere.
    cells: Vec<Option<Sender<Event>>>,
    links: StageLinks,
    publisher: Publisher,
    /// The tenants seen on the cluster topic: every message of a tenant
    /// shares one id instead of carrying its own copy of the name.
    tenants: TenantInterner,
    /// Worker identity for trace stamps in multi-process deployments.
    identity: Option<WorkerIdentity>,
    decode_errors: Arc<AtomicU64>,
    decode_error_count: Arc<AtomicU64>,
    traced_writes: Arc<AtomicU64>,
    /// `cluster.ingress.emitted`: events handed to a cell or a sorting
    /// partition.
    emitted: Arc<AtomicU64>,
    /// [`ClusterConfig::tick_interval`].
    tick_interval: Duration,
}

impl Ingress {
    pub(crate) fn new(
        host: CellSet,
        cells: Vec<Option<Sender<Event>>>,
        links: StageLinks,
        publisher: Publisher,
        config: &ClusterConfig,
        decode_errors: &Arc<AtomicU64>,
    ) -> Self {
        let metrics = &config.metrics;
        Ingress {
            grid: host.grid,
            host,
            cells,
            links,
            publisher,
            tenants: TenantInterner::default(),
            identity: config.worker_identity.clone(),
            decode_errors: Arc::clone(decode_errors),
            decode_error_count: metrics.counter("ingress.decode_errors"),
            traced_writes: metrics.counter("ingress.traced_writes"),
            emitted: metrics.counter("cluster.ingress.emitted"),
            tick_interval: config.tick_interval,
        }
    }

    /// Two-dimensional routing (§5.1): a write goes to the hosted cells of
    /// its write partition's column, a query to the hosted cells of its
    /// query partition's row — and, where the row is anchored here, to the
    /// sorting partition that owns it.
    fn route(&self, event: Event) {
        match &event {
            Event::Write(write) => {
                for task in self.grid.column_tasks(self.grid.write_partition(&write.header.key)) {
                    self.to_cell(task, &event);
                }
            }
            Event::Subscribe(req) => {
                let qp = self.grid.query_partition(req.query_hash);
                // Only the row owner answers: the same subscription reaches
                // every worker with a cell in the row. The initial result is
                // on the notify topic before any cell or sorting partition
                // has the request, so no change notification overtakes it —
                // but a sorted query's is its sorting partition's to
                // publish, on the thread that publishes the query's edits:
                // a renewer's old window may still address it until then.
                // The sorting partition comes before the cells, so it knows
                // the query before any of their filter changes arrives.
                if self.host.owns_row(qp) {
                    if req.spec.needs_sorting_stage() {
                        self.links.to_sorting(req.query_hash, event.clone());
                        self.emitted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.publisher.initial_result(req);
                    }
                }
                self.to_row(qp, &event);
            }
            Event::Unsubscribe { query_hash, .. } | Event::ExtendTtl { query_hash, .. } => {
                let qp = self.grid.query_partition(*query_hash);
                if self.host.owns_row(qp) {
                    self.links.to_sorting(*query_hash, event.clone());
                    self.emitted.fetch_add(1, Ordering::Relaxed);
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
            let _ = cell.send(event.clone());
            self.emitted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Task<Bytes> for Ingress {
    /// Decodes one payload with the cluster topic's typed decoder
    /// ([`crate::ingest`]) and routes it; a malformed one, a repeated field
    /// included, is counted as a decode error.
    fn handle(&mut self, payload: Bytes) {
        let tenants = &mut self.tenants;
        let decoded = crate::ingest::decode_event_with(payload, |name| tenants.intern(name));
        let Some(mut event) = decoded else {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
            self.decode_error_count.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Sampled traces get their ingestion stamp the moment the envelope
        // is decoded off the event layer.
        if let Event::Write(WriteEvent { trace: Some(trace), .. }) = &mut event {
            match &self.identity {
                Some(id) => id.stamp(trace, Stage::Ingestion),
                None => trace.stamp(Stage::Ingestion),
            }
            self.traced_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.route(event);
    }

    fn tick(&mut self, now: Timestamp) -> Timestamp {
        self.publisher.heartbeat();
        now.after(self.tick_interval)
    }
}

/// Receives the staged output other workers publish for one row anchored
/// here and hands it to the local sorting partitions.
#[derive(Clone)]
struct ShuffleIngress {
    links: StageLinks,
    decode_errors: Arc<AtomicU64>,
    /// `shuffle.ingress`: changes handed on.
    ingested: Arc<AtomicU64>,
    /// `cluster.shuffle.emitted`: events handed to a sorting partition.
    emitted: Arc<AtomicU64>,
    /// `shuffle.decode_errors`.
    decode_error_count: Arc<AtomicU64>,
}

impl Task<Bytes> for ShuffleIngress {
    fn handle(&mut self, payload: Bytes) {
        match FilterChange::decode(&payload) {
            Some(fc) => {
                self.ingested.fetch_add(1, Ordering::Relaxed);
                self.links.to_sorting(fc.query_hash, Event::FilterChange(fc));
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                self.decode_error_count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_broker::{notify_topic, Broker};
    use invalidb_common::{
        doc, AfterImage, Clock, ClusterMessage, Key, MatchType, MockClock, NotificationKind,
        NotifyEnvelope, QuerySpec, SubscriptionId, SubscriptionRequest, TenantId, Value,
    };
    use invalidb_json::{payload_to_document, WireCodec};

    fn payload(message: &ClusterMessage) -> Bytes {
        let mut w = WireCodec.writer();
        message.write_to(&mut w);
        w.finish()
    }

    /// The ingress without its thread, on one thread with its cell: a
    /// subscribe and a write handed to it reach the cell's queue, the cell
    /// turns them into a change on the notify topic, and a tick publishes
    /// the tenant's heartbeat.
    #[test]
    fn an_ingress_is_driven_by_handle_and_tick_alone() {
        let config = ClusterConfig::new(1, 1);
        let clock = MockClock::new();
        let broker = Broker::new();
        let notify = broker.subscribe(&notify_topic("app"));
        let publisher = Publisher::new(broker.into(), &config, Arc::new(clock.clone()));
        let grid = GridShape::new(1, 1);
        let (cell, cell_rx) = bounded(8);
        let (gone, _) = bounded(1);
        let links = StageLinks { sorting: vec![gone] };
        let decode_errors = Arc::new(AtomicU64::new(0));
        let mut ingress = Ingress::new(
            CellSet::all(grid),
            vec![Some(cell)],
            links.clone(),
            publisher.clone(),
            &config,
            &decode_errors,
        );
        let staged = StagedOut::Local(links);
        let mut node =
            MatchingNode::new(0, grid, config.clone(), Arc::new(clock.clone()), publisher, staged);

        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        ingress.handle(payload(&ClusterMessage::Subscribe(SubscriptionRequest {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(1),
            query_hash: spec.stable_hash(),
            spec,
            initial: vec![],
            slack: 0,
            ttl_micros: 60_000_000,
            renewal: false,
        })));
        ingress.handle(payload(&ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("app"),
            collection: "t".into(),
            key: Key::of("a"),
            version: 1,
            doc: Some(doc! { "n" => 15i64 }),
            written_at: 42,
            trace: None,
        })));
        for event in cell_rx.try_iter() {
            node.handle(event);
        }
        let kinds: Vec<NotificationKind> = notify
            .receiver()
            .try_iter()
            .map(|p| NotifyEnvelope::from_document(payload_to_document(&p).unwrap()).unwrap().kind)
            .collect();
        assert!(
            matches!(&kinds[..], [NotificationKind::InitialResult { .. }, NotificationKind::Change(c)]
                if c.match_type == MatchType::Add),
            "{kinds:?}"
        );

        clock.advance(config.heartbeat_interval);
        ingress.tick(clock.now());
        let beat = payload_to_document(&notify.try_recv().expect("a heartbeat")).unwrap();
        assert_eq!(beat.get("type").and_then(Value::as_str), Some("heartbeat"));
        assert_eq!(decode_errors.load(Ordering::Relaxed), 0);
    }
}
