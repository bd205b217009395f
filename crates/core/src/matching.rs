//! The matching node — one cell of the QP × WP filtering-stage grid (§5.1).
//!
//! A matching node at grid coordinate `(qp, wp)` holds the queries of query
//! partition `qp` and sees the after-images of write partition `wp`. For
//! every incoming after-image it evaluates all of its queries, compares the
//! new matching status against the former one, and emits the transition:
//!
//! * unsorted filter queries are self-maintainable — the node encodes one
//!   change notification per (write, query), addressed to all of the
//!   query's subscriptions, and publishes it itself;
//! * sorted queries emit [`FilterChange`]s to the sorting stage, and only
//!   for items that match or just ceased matching — everything else is
//!   filtered out here, slashing downstream throughput (§5.2).
//!
//! A cell runs to completion: index probe, predicate evaluation, notify
//! encode and event-layer publish are function calls on the cell's thread.
//!
//! The node also implements **write-stream retention** and **staleness
//! avoidance**: received after-images are buffered for a configurable time
//! and replayed against newly subscribed queries (fixing the
//! write-subscription race), and any write older than the newest seen
//! version of the same record is dropped (§5.1).
//!
//! All of that state is kept per **scope** — one (tenant, collection) —
//! found per write by borrowed lookup. Inside a
//! scope a record is its [`Key`] and a query its [`QueryHash`]: no map is
//! keyed by a tuple that would have to be assembled, and so copied, per
//! write.

use crate::config::{ClusterConfig, WorkerIdentity};
use crate::event::{Event, FilterChange, FilterChangeKind};
use crate::links::StageLinks;
use crate::notifier::Publisher;
use crate::query_index::QueryIndex;
use crate::subscribers::Subscribers;
use invalidb_broker::BrokerHandle;
use invalidb_common::trace::now_micros;
use invalidb_common::{
    AfterImage, Clock, EnvelopeRef, GridCoord, GridShape, ItemRef, Key, KindRef, MatchType, QueryHash,
    Stage, SubscriptionId, SubscriptionRequest, TenantId, Timestamp, TraceContext, Version,
};
use invalidb_json::WireCodec;
use invalidb_obs::SlowQueryScratch;
use invalidb_query::{PreparedAtom, PreparedQuery};
use invalidb_stream::Task;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Shared predicate evaluation (SharedDB-style): atomic predicate results
/// are memoized for the write being evaluated, keyed by the atom's
/// hash-consed identity. A predicate shared by a thousand conjunctive
/// queries is evaluated once per write, not a thousand times.
#[derive(Default)]
struct PredCache {
    /// Predicate hash → result for the current write.
    map: HashMap<u64, bool>,
    hits: u64,
}

impl PredCache {
    /// Starts a new write: the previous write's results no longer apply.
    /// Capacity is retained, so the steady state allocates nothing.
    fn begin_write(&mut self) {
        self.map.clear();
    }

    /// The conjunction of `atoms` over `doc`, memoized per atom. Exactly
    /// equivalent to `prepared.matches(doc)` by the
    /// [`invalidb_query::PreparedQuery::conjuncts`] contract.
    fn eval_all(&mut self, atoms: &[PreparedAtom], doc: &invalidb_common::Document) -> bool {
        atoms.iter().all(|a| match self.map.entry(a.hash().0) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(a.matches(doc)),
        })
    }

    fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }
}

/// One active query on this node (shared by all its subscriptions). Its
/// tenant and collection are those of the [`Scope`] it lives in.
struct QueryGroup {
    /// Human-readable rendering of the query spec, captured at subscribe
    /// time for the slow-query log.
    spec_display: String,
    prepared: Arc<dyn PreparedQuery>,
    /// Which downstream stages consume this query's transitions; neither
    /// for self-maintainable filter queries.
    to_sorting: bool,
    to_aggregation: bool,
    /// This node's partition of the currently matching keys (filtering-stage
    /// result state). For sorted queries this is the *matching status* of
    /// keys within the bootstrap horizon, not the client-visible result.
    result: HashMap<Key, Version>,
    subscriptions: Subscribers,
}

/// Everything a cell keeps for one (tenant, collection). Writes, queries,
/// versions and retained after-images of different scopes never meet, so
/// nothing in here names the tenant or the collection.
#[derive(Default)]
struct Scope {
    queries: HashMap<QueryHash, QueryGroup>,
    /// Multi-query index: maps a write to the candidate queries instead of
    /// evaluating all of them (thesis's multi-query optimization).
    index: QueryIndex<QueryHash>,
    /// Inverted result membership: which queries currently contain a key.
    /// Needed alongside the index because an update can move a record *out*
    /// of a query's range — the new value no longer stabs that query.
    containing: HashMap<Key, Vec<QueryHash>>,
    /// Retained after-images, oldest first (§5.1 write-stream retention).
    /// A new query replays this ring and no other.
    retention: VecDeque<(Timestamp, Arc<AfterImage>)>,
    /// Newest seen version per record (staleness avoidance).
    latest_versions: HashMap<Key, Version>,
}

impl Scope {
    /// Nothing left that a later event could need: no query to match, no
    /// write to replay (and so no version to be stale against).
    fn is_idle(&self) -> bool {
        self.queries.is_empty() && self.retention.is_empty()
    }

    /// Staleness avoidance and retention for one incoming write: `false`
    /// for a write that is not newer than what the scope has seen.
    fn admit(&mut self, img: &Arc<AfterImage>, now: Timestamp) -> bool {
        // Updated in place: a key is copied the first time it is seen.
        match self.latest_versions.get_mut(&img.key) {
            Some(seen) if img.version <= *seen => return false,
            Some(seen) => *seen = img.version,
            None => {
                self.latest_versions.insert(img.key.clone(), img.version);
            }
        }
        self.retention.push_back((now, Arc::clone(img)));
        true
    }

    /// Drops retained writes older than `horizon`; returns how many.
    fn trim_retention(&mut self, now: Timestamp, horizon: std::time::Duration) -> usize {
        let mut trimmed = 0;
        while self.retention.front().is_some_and(|(t, _)| now.since(*t) > horizon) {
            let (_, img) = self.retention.pop_front().expect("peeked");
            trimmed += 1;
            // Forget latest-version entries only when they refer to the
            // trimmed write (a newer one may have refreshed the record).
            if self.latest_versions.get(&img.key) == Some(&img.version) {
                self.latest_versions.remove(&img.key);
            }
        }
        trimmed
    }
}

/// The cell's scopes, by tenant and then collection — both probed with
/// what a message already holds (`&TenantId`, `&str`).
type Scopes = HashMap<TenantId, HashMap<String, Scope>>;

/// The scope of (tenant, collection), created on first sight — the only
/// time the two names are copied.
fn scope_or_new<'a>(scopes: &'a mut Scopes, tenant: &TenantId, collection: &str) -> &'a mut Scope {
    if !scopes.contains_key(tenant) {
        scopes.insert(tenant.clone(), HashMap::new());
    }
    let collections = scopes.get_mut(tenant).expect("just ensured");
    if !collections.contains_key(collection) {
        collections.insert(collection.to_owned(), Scope::default());
    }
    collections.get_mut(collection).expect("just ensured")
}

/// Maintains the inverted result-membership map after a transition.
fn note_transition(
    containing: &mut HashMap<Key, Vec<QueryHash>>,
    key: &Key,
    hash: QueryHash,
    kind: FilterChangeKind,
) {
    match kind {
        FilterChangeKind::Add => match containing.get_mut(key) {
            Some(holders) => {
                if !holders.contains(&hash) {
                    holders.push(hash);
                }
            }
            None => {
                containing.insert(key.clone(), vec![hash]);
            }
        },
        FilterChangeKind::Remove => forget_holder(containing, key, hash),
        FilterChangeKind::Change => {}
    }
}

fn forget_holder(containing: &mut HashMap<Key, Vec<QueryHash>>, key: &Key, hash: QueryHash) {
    if let Some(holders) = containing.get_mut(key) {
        holders.retain(|h| *h != hash);
        if holders.is_empty() {
            containing.remove(key);
        }
    }
}

/// Takes a query group whose last subscription is gone out of its scope's
/// index and out of the holder list of every key it held — O(|result|), once
/// per group, so `containing` only ever names live groups.
fn retire(
    index: &mut QueryIndex<QueryHash>,
    containing: &mut HashMap<Key, Vec<QueryHash>>,
    hash: QueryHash,
    group: &QueryGroup,
) {
    index.remove(hash);
    for key in group.result.keys() {
        forget_holder(containing, key, hash);
    }
}

/// Where a cell's staged (sorted/aggregate) transitions go.
pub(crate) enum StagedOut {
    /// The cell's row is anchored in this process: straight onto the stage
    /// partition's queue.
    Local(StageLinks),
    /// The row is anchored on another worker: through the event layer, on
    /// the row's shuffle topic.
    Shuffle {
        /// The event layer.
        broker: BrokerHandle,
        /// `invalidb.shuffle.q<row>`.
        topic: String,
        /// `shuffle.egress`.
        published: Arc<AtomicU64>,
    },
}

/// What a transition needs on its way out of the cell.
struct Outputs {
    publisher: Publisher,
    staged: StagedOut,
    identity: Option<WorkerIdentity>,
    /// `matching.matched` / `matching.filtered`, resolved once.
    matched: Arc<AtomicU64>,
    filtered: Arc<AtomicU64>,
}

impl Outputs {
    /// Passes a staged query's transition downstream.
    fn forward(&self, group: &QueryGroup, change: FilterChange) {
        match &self.staged {
            StagedOut::Local(links) => {
                let hash = change.query_hash;
                let event = Event::FilterChange(Arc::new(change));
                if group.to_sorting {
                    links.to_sorting(hash, event.clone());
                }
                if group.to_aggregation {
                    links.to_aggregation(hash, event);
                }
            }
            StagedOut::Shuffle { broker, topic, published } => {
                broker.publish(topic, WireCodec.encode(&change.to_document()));
                published.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }
}

/// What evaluating a write needs beside the scope it belongs to, bundled so
/// the write path borrows one field of the node next to its scopes.
struct Evaluator {
    out: Outputs,
    /// Locally accumulated slow-query charges, flushed to the shared log
    /// on tick so the per-evaluation hot path never takes its lock.
    slow_scratch: SlowQueryScratch,
    /// Shared predicate evaluation cache (cleared per write).
    pred_cache: PredCache,
    /// Reused candidate buffer for the index probe.
    candidates: Vec<QueryHash>,
    /// Whether writes find their queries through the scope's index.
    indexed: bool,
}

impl Evaluator {
    /// One admitted write against its scope's queries: the candidates are
    /// what the index proposes for the after-image plus the queries whose
    /// result currently holds the record (an update can move it out of
    /// their range, a delete has no document to probe with).
    fn match_write(&mut self, scope: &mut Scope, tenant: &TenantId, img: &Arc<AfterImage>) {
        let Scope { queries, index, containing, .. } = scope;
        if queries.is_empty() {
            return;
        }
        self.pred_cache.begin_write();
        if !self.indexed {
            // Force-scan reference: every query of the scope is evaluated.
            for (hash, group) in queries.iter_mut() {
                self.match_against(containing, group, *hash, tenant, img);
            }
            return;
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        match &img.doc {
            Some(doc) => index.candidates(doc, &mut candidates),
            None => {
                candidates.clear();
                candidates.extend_from_slice(index.scan_candidates());
            }
        }
        if let Some(holders) = containing.get(&img.key) {
            candidates.extend_from_slice(holders);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for hash in &candidates {
            // Index and holder lists name live groups only (see `retire`).
            let Some(group) = queries.get_mut(hash) else { continue };
            self.match_against(containing, group, *hash, tenant, img);
        }
        self.candidates = candidates;
    }

    /// Evaluates one write against one query and records the transition in
    /// the scope's result membership, charging the wall-clock cost to this
    /// node's local slow-query scratch (flushed to the shared log on tick)
    /// so operators can see which query eats the grid.
    fn match_against(
        &mut self,
        containing: &mut HashMap<Key, Vec<QueryHash>>,
        group: &mut QueryGroup,
        hash: QueryHash,
        tenant: &TenantId,
        img: &Arc<AfterImage>,
    ) {
        let started = std::time::Instant::now();
        if let Some(kind) = self.evaluate(group, hash, tenant, img) {
            note_transition(containing, &img.key, hash, kind);
        }
        self.slow_scratch.charge(
            tenant.as_str(),
            hash.0,
            || group.spec_display.clone(),
            started.elapsed().as_micros() as u64,
        );
    }

    /// Core filtering-stage transition logic. Returns the transition kind
    /// (None when the write was irrelevant or stale for this query).
    fn evaluate(
        &mut self,
        group: &mut QueryGroup,
        hash: QueryHash,
        tenant: &TenantId,
        img: &Arc<AfterImage>,
    ) -> Option<FilterChangeKind> {
        let out = &self.out;
        let held = group.result.get_mut(&img.key);
        if held.as_ref().is_some_and(|old| img.version <= **old) {
            return None; // stale relative to what this query already reflects
        }
        // Shared predicate evaluation: conjunctive queries resolve each
        // atom through the per-write memo (identical result to
        // `prepared.matches` by the `conjuncts` contract); queries that
        // opt out of decomposition evaluate whole.
        let cache = &mut self.pred_cache;
        let matches_now = img.doc.as_ref().is_some_and(|d| match group.prepared.conjuncts() {
            Some(atoms) => cache.eval_all(atoms, d),
            None => group.prepared.matches(d),
        });
        // The result is updated in place: a key is copied when it enters.
        let kind = match (held, matches_now) {
            (None, true) => {
                group.result.insert(img.key.clone(), img.version);
                FilterChangeKind::Add
            }
            (Some(version), true) => {
                *version = img.version;
                FilterChangeKind::Change
            }
            (Some(_), false) => {
                group.result.remove(&img.key);
                FilterChangeKind::Remove
            }
            (None, false) => {
                out.filtered.fetch_add(1, AtomicOrdering::Relaxed);
                return None; // irrelevant write: filtered out
            }
        };
        out.matched.fetch_add(1, AtomicOrdering::Relaxed);
        // Stamp the filtering stage on sampled traces; the clone touches
        // only traced writes, so the unsampled fast path stays allocation
        // free. On a workerd host the stamp also names the worker and its
        // assignment epoch, so a cross-process trace identifies the cell.
        let trace: Option<TraceContext> = img.trace.clone().map(|mut t| {
            match &out.identity {
                Some(id) => id.stamp(&mut t, Stage::Matching),
                None => t.stamp(Stage::Matching),
            }
            t
        });
        if group.to_sorting || group.to_aggregation {
            // Sorted/aggregate queries: pass the transition downstream.
            let change = FilterChange {
                tenant: tenant.clone(),
                query_hash: hash,
                kind,
                key: img.key.clone(),
                version: img.version,
                doc: img.doc.clone(),
                written_at: img.written_at,
                trace,
            };
            out.forward(group, change);
        } else {
            // Self-maintainable queries: one notification for the whole
            // group, serialized straight from the write and published from
            // this thread.
            let match_type = match kind {
                FilterChangeKind::Add => MatchType::Add,
                FilterChangeKind::Change => MatchType::Change,
                FilterChangeKind::Remove => MatchType::Remove,
            };
            out.publisher.publish(EnvelopeRef {
                tenant,
                subscriptions: group.subscriptions.ids(),
                kind: KindRef::Change {
                    match_type,
                    item: ItemRef {
                        key: &img.key,
                        version: img.version,
                        doc: img.doc.as_ref(),
                        index: None,
                    },
                    old_index: None,
                },
                caused_by_write_at: img.written_at,
                trace: trace.as_ref(),
            });
        }
        Some(kind)
    }
}

/// One matching cell: a [`Task`] on its own thread.
pub struct MatchingNode {
    coord: GridCoord,
    grid: GridShape,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    scopes: Scopes,
    eval: Evaluator,
    /// Query groups and retained after-images over all scopes.
    active_queries: usize,
    retained_writes: usize,
    /// Observability: dropped stale writes.
    stale_dropped: u64,
    /// Peak ingestion lag (write origin timestamp to matching evaluation)
    /// since the last tick, microseconds. Published as a gauge on tick.
    ingest_lag_us: u64,
    /// Cluster-shared `matching.index.*` series, resolved once so the tick
    /// path never touches the registry maps. Gauges are maintained by
    /// publishing this cell's delta since the last tick — the registry
    /// value is the sum over all cells of the process.
    metric_indexed: Arc<AtomicU64>,
    metric_scanned: Arc<AtomicU64>,
    metric_eq_hits: Arc<AtomicU64>,
    metric_pred_hits: Arc<AtomicU64>,
    last_indexed: u64,
    last_scanned: u64,
    /// `matching.dropped_stale` and this cell's `matching.<qp>x<wp>.*`
    /// gauges, resolved once as well.
    metric_dropped_stale: Arc<AtomicU64>,
    gauge_active_queries: Arc<AtomicU64>,
    gauge_retained_writes: Arc<AtomicU64>,
    gauge_ingest_lag_us: Arc<AtomicU64>,
}

impl MatchingNode {
    /// Creates the cell with task index `task` in the grid. Notifications
    /// leave through `publisher`, staged transitions through `staged`.
    pub(crate) fn new(
        task: usize,
        grid: GridShape,
        config: ClusterConfig,
        clock: Arc<dyn Clock>,
        publisher: Publisher,
        staged: StagedOut,
    ) -> Self {
        let metrics = &config.metrics;
        let metric_indexed = metrics.gauge("matching.index.indexed_queries");
        let metric_scanned = metrics.gauge("matching.index.scanned_queries");
        let metric_eq_hits = metrics.counter("matching.index.eq_lane_hits");
        let metric_pred_hits = metrics.counter("matching.index.pred_cache_hits");
        let coord = grid.coord_of(task);
        let cell = format!("matching.{}x{}", coord.qp, coord.wp);
        Self {
            coord,
            grid,
            eval: Evaluator {
                out: Outputs {
                    publisher,
                    staged,
                    identity: config.worker_identity.clone(),
                    matched: metrics.counter("matching.matched"),
                    filtered: metrics.counter("matching.filtered"),
                },
                slow_scratch: SlowQueryScratch::new(),
                pred_cache: PredCache::default(),
                candidates: Vec::new(),
                indexed: config.multi_query_index,
            },
            metric_dropped_stale: metrics.counter("matching.dropped_stale"),
            gauge_active_queries: metrics.gauge(&format!("{cell}.active_queries")),
            gauge_retained_writes: metrics.gauge(&format!("{cell}.retained_writes")),
            gauge_ingest_lag_us: metrics.gauge(&format!("{cell}.ingest_lag_us")),
            config,
            clock,
            scopes: HashMap::new(),
            active_queries: 0,
            retained_writes: 0,
            stale_dropped: 0,
            ingest_lag_us: 0,
            metric_indexed,
            metric_scanned,
            metric_eq_hits,
            metric_pred_hits,
            last_indexed: 0,
            last_scanned: 0,
        }
    }

    /// A 1×1 cell outside any cluster, for whoever wants to drive one
    /// synchronously through [`Task::handle`] and [`Task::tick`] (tests,
    /// per-stage measurements): notifications leave through `publisher` as
    /// in a cluster; there is no stage partition behind the cell, so the
    /// transitions of sorted and aggregate queries go nowhere.
    pub fn solo(config: ClusterConfig, clock: Arc<dyn Clock>, publisher: Publisher) -> Self {
        // A queue whose receiver is gone: what a stage partition looks like
        // after shutdown, and sends to it are dropped the same way.
        let (gone, _) = crossbeam::channel::bounded(1);
        let nowhere = StageLinks { sorting: vec![gone.clone()], aggregation: vec![gone] };
        Self::new(0, GridShape::new(1, 1), config, clock, publisher, StagedOut::Local(nowhere))
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let hash = req.query_hash;
        let known = self
            .scopes
            .get_mut(&req.tenant)
            .and_then(|collections| collections.get_mut(req.spec.collection.as_str()))
            .and_then(|scope| scope.queries.get_mut(&hash));
        if let Some(group) = known {
            group.subscriptions.insert(req.subscription, expires_at);
            return;
        }
        let prepared = match self.config.engine.prepare(&req.spec) {
            Ok(p) => p,
            Err(e) => {
                // Unparseable query: report an error notification so the
                // subscription does not dangle silently.
                self.eval.out.publisher.publish(EnvelopeRef {
                    tenant: &req.tenant,
                    subscriptions: &[req.subscription],
                    kind: KindRef::Error(&format!("query rejected: {e}")),
                    caused_by_write_at: 0,
                    trace: None,
                });
                return;
            }
        };
        // Seed this node's result slice: only keys of *our* write partition
        // ("every node receives only a partition of the result", §5.1).
        let mut result = HashMap::new();
        for item in &req.initial {
            if self.grid.write_partition(&item.key) == self.coord.wp {
                result.insert(item.key.clone(), item.version);
            }
        }
        let mut group = QueryGroup {
            spec_display: req.spec.to_string(),
            prepared,
            to_sorting: req.spec.needs_sorting_stage(),
            to_aggregation: req.spec.needs_aggregation_stage(),
            result,
            subscriptions: Subscribers::of(req.subscription, expires_at),
        };
        let Scope { queries, index, containing, retention, .. } =
            scope_or_new(&mut self.scopes, &req.tenant, &req.spec.collection);
        if self.eval.indexed {
            index.insert(hash, &req.spec.filter);
        }
        for key in group.result.keys() {
            note_transition(containing, key, hash, FilterChangeKind::Add);
        }
        // Replay the scope's retained writes against the new query: closes
        // the write-subscription race (§5.1). Writes already reflected in
        // the initial result are skipped by the version guard.
        for (_, img) in retention.iter() {
            self.eval.pred_cache.begin_write();
            self.eval.match_against(containing, &mut group, hash, &req.tenant, img);
        }
        queries.insert(hash, group);
        self.active_queries += 1;
    }

    /// One after-image: staleness avoidance, retention, then evaluation
    /// against the queries of its scope.
    fn handle_write(&mut self, img: &Arc<AfterImage>) {
        let now = self.clock.now();
        let scope = scope_or_new(&mut self.scopes, &img.tenant, &img.collection);
        if !scope.admit(img, now) {
            self.stale_dropped += 1;
            self.metric_dropped_stale.fetch_add(1, AtomicOrdering::Relaxed);
            return;
        }
        self.retained_writes += 1;
        // Ingestion lag: how far behind the write's origin timestamp this
        // cell is running. Tracked as a peak here, published on tick.
        let lag = now_micros().saturating_sub(img.written_at);
        self.ingest_lag_us = self.ingest_lag_us.max(lag);
        self.eval.match_write(scope, &img.tenant, img);
    }

    /// The group of a query known only by tenant and hash, as cancellations
    /// and TTL extensions name it, with the scope it lives in. A hash covers
    /// the collection, so at most one of the tenant's scopes has it; a
    /// tenant has few collections, so they are simply asked in turn.
    fn scope_of_query(&mut self, tenant: &TenantId, query_hash: QueryHash) -> Option<&mut Scope> {
        self.scopes.get_mut(tenant)?.values_mut().find(|scope| scope.queries.contains_key(&query_hash))
    }

    fn handle_unsubscribe(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
    ) {
        let Some(scope) = self.scope_of_query(tenant, query_hash) else { return };
        let Entry::Occupied(mut group) = scope.queries.entry(query_hash) else { return };
        group.get_mut().subscriptions.remove(subscription);
        if group.get().subscriptions.is_empty() {
            // Deactivated queries stop consuming resources (§5).
            retire(&mut scope.index, &mut scope.containing, query_hash, &group.remove());
            self.active_queries -= 1;
        }
    }

    fn handle_extend_ttl(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
        ttl_micros: u64,
    ) {
        let now = self.clock.now();
        if let Some(group) =
            self.scope_of_query(tenant, query_hash).and_then(|scope| scope.queries.get_mut(&query_hash))
        {
            group.subscriptions.extend_ttl(subscription, now, ttl_micros);
        }
    }

    fn expire(&mut self) {
        let now = self.clock.now();
        let horizon = self.config.retention;
        for scope in self.scopes.values_mut().flat_map(HashMap::values_mut) {
            // TTL enforcement: drop expired subscriptions, then empty groups.
            let Scope { queries, index, containing, .. } = scope;
            queries.retain(|hash, group| {
                group.subscriptions.expire(now);
                let keep = !group.subscriptions.is_empty();
                if !keep {
                    retire(index, containing, *hash, group);
                    self.active_queries -= 1;
                }
                keep
            });
            self.retained_writes -= scope.trim_retention(now, horizon);
        }
        // A scope goes with its last query and its last retained write.
        self.scopes.retain(|_, collections| {
            collections.retain(|_, scope| !scope.is_idle());
            !collections.is_empty()
        });
    }

    /// Number of active query groups (tests/metrics).
    pub fn active_queries(&self) -> usize {
        self.active_queries
    }

    /// Number of retained after-images (tests/metrics).
    pub fn retained_writes(&self) -> usize {
        self.retained_writes
    }

    /// Count of writes dropped by staleness avoidance.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }
}

impl Task<Event> for MatchingNode {
    fn handle(&mut self, event: Event) {
        match event {
            Event::Write(img) => self.handle_write(&img),
            Event::Subscribe(req) => self.handle_subscribe(&req),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            // Filter changes are not addressed to the filtering stage.
            Event::FilterChange(_) => {}
        }
    }

    fn tick(&mut self) {
        self.expire();
        self.eval.slow_scratch.flush(&self.config.metrics.slow_queries());
        // Per-partition gauges, refreshed once per tick so the hot write
        // path never touches them.
        self.gauge_active_queries.store(self.active_queries as u64, AtomicOrdering::Relaxed);
        self.gauge_retained_writes.store(self.retained_writes as u64, AtomicOrdering::Relaxed);
        self.gauge_ingest_lag_us.store(self.ingest_lag_us, AtomicOrdering::Relaxed);
        self.ingest_lag_us = 0;
        // Cluster-shared index/sharing series. The gauges are summed over
        // all cells, so each cell publishes its delta since the last tick;
        // the hit counters are drained.
        let mut indexed = 0u64;
        let mut scanned = 0u64;
        let mut eq_hits = 0u64;
        for scope in self.scopes.values_mut().flat_map(HashMap::values_mut) {
            indexed += scope.index.indexed_len() as u64;
            scanned += scope.index.scan_len() as u64;
            eq_hits += scope.index.take_eq_lane_hits();
        }
        publish_gauge_delta(&self.metric_indexed, &mut self.last_indexed, indexed);
        publish_gauge_delta(&self.metric_scanned, &mut self.last_scanned, scanned);
        if eq_hits > 0 {
            self.metric_eq_hits.fetch_add(eq_hits, AtomicOrdering::Relaxed);
        }
        let pred_hits = self.eval.pred_cache.take_hits();
        if pred_hits > 0 {
            self.metric_pred_hits.fetch_add(pred_hits, AtomicOrdering::Relaxed);
        }
    }
}

/// Moves a cluster-shared gauge by this publisher's delta since its last
/// publication: the gauge value stays the sum over all publishers.
pub(crate) fn publish_gauge_delta(gauge: &AtomicU64, last: &mut u64, now: u64) {
    if now >= *last {
        let delta = now - *last;
        if delta > 0 {
            gauge.fetch_add(delta, AtomicOrdering::Relaxed);
        }
    } else {
        gauge.fetch_sub(*last - now, AtomicOrdering::Relaxed);
    }
    *last = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::testing::{Wire, TENANT};
    use crossbeam::channel::{unbounded, Receiver};
    use invalidb_common::{
        doc, MockClock, Notification, NotificationKind, QuerySpec, ResultItem, SortDirection,
    };
    use std::time::Duration;

    /// One cell driven synchronously: what it publishes is read back off
    /// the notify topic, what it stages off the sorting partition's queue.
    struct Harness {
        node: MatchingNode,
        wire: Wire,
        staged: Receiver<Event>,
        clock: MockClock,
    }

    fn harness(config: ClusterConfig) -> Harness {
        let clock = MockClock::new();
        let wire = Wire::new(&config, &clock);
        let (tx, staged) = unbounded();
        let links = StageLinks { sorting: vec![tx.clone()], aggregation: vec![tx] };
        let node = MatchingNode::new(
            0,
            GridShape::new(1, 1),
            config,
            Arc::new(clock.clone()),
            wire.publisher.clone(),
            StagedOut::Local(links),
        );
        Harness { node, wire, staged, clock }
    }

    impl Harness {
        fn send(&mut self, event: Event) {
            self.node.handle(event);
        }

        fn notifications(&self) -> Vec<Notification> {
            self.wire.notifications()
        }

        fn filter_changes(&self) -> Vec<FilterChange> {
            self.staged
                .try_iter()
                .filter_map(|e| match e {
                    Event::FilterChange(fc) => Some((*fc).clone()),
                    _ => None,
                })
                .collect()
        }
    }

    fn subscribe_event(spec: QuerySpec, sub: u64, initial: Vec<ResultItem>) -> Event {
        Event::Subscribe(Arc::new(SubscriptionRequest {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec,
            initial,
            slack: 2,
            ttl_micros: 60_000_000,
            renewal: false,
        }))
    }

    fn write_to(tenant: &str, collection: &str, key: Key, version: Version, n: i64) -> Event {
        Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new(tenant),
            collection: collection.into(),
            key,
            version,
            doc: Some(doc! { "n" => n }),
            written_at: 42,
            trace: None,
        }))
    }

    fn write_event(key: Key, version: Version, doc: Option<invalidb_common::Document>) -> Event {
        Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new(TENANT),
            collection: "t".into(),
            key,
            version,
            doc,
            written_at: 42,
            trace: None,
        }))
    }

    #[test]
    fn unsorted_query_lifecycle() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        // add: matching insert
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 15i64 })));
        // filtered: non-matching insert
        h.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 5i64 })));
        // change: still matching
        h.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 20i64 })));
        // remove: update out of the result
        h.send(write_event(Key::of("a"), 3, Some(doc! { "n" => 1i64 })));
        let notes = h.notifications();
        let kinds: Vec<MatchType> = notes
            .iter()
            .filter_map(|n| match &n.kind {
                NotificationKind::Change(c) => Some(c.match_type),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![MatchType::Add, MatchType::Change, MatchType::Remove]);
        assert_eq!(notes[0].caused_by_write_at, 42);
        let snap = h.node.config.metrics.snapshot();
        assert_eq!(snap.counters["matching.matched"], 3);
        assert_eq!(snap.counters["matching.filtered"], 0, "the index never proposed `b`");
    }

    #[test]
    fn sorted_query_emits_filter_changes() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        let fcs = h.filter_changes();
        assert_eq!(fcs.len(), 1, "one stage, one copy");
        assert_eq!(fcs[0].kind, FilterChangeKind::Add);
        assert!(h.notifications().is_empty(), "sorted queries do not notify directly");
    }

    #[test]
    fn foreign_rows_leave_through_the_shuffle_topic() {
        let config = ClusterConfig::new(1, 1);
        let clock = MockClock::new();
        let wire = Wire::new(&config, &clock);
        let broker = invalidb_broker::Broker::new();
        let shuffled = broker.subscribe("invalidb.shuffle.q0");
        let mut node = MatchingNode::new(
            0,
            GridShape::new(1, 1),
            config.clone(),
            Arc::new(clock),
            wire.publisher.clone(),
            StagedOut::Shuffle {
                broker: broker.into(),
                topic: "invalidb.shuffle.q0".into(),
                published: config.metrics.counter("shuffle.egress"),
            },
        );
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        node.handle(subscribe_event(spec.clone(), 1, vec![]));
        node.handle(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        let payload = shuffled.try_recv().expect("published by the cell itself");
        let fc =
            FilterChange::from_document(&invalidb_json::payload_to_document(&payload).unwrap()).unwrap();
        assert_eq!((fc.query_hash, fc.kind), (spec.stable_hash(), FilterChangeKind::Add));
        assert_eq!(config.metrics.snapshot().counters["shuffle.egress"], 1);
    }

    #[test]
    fn stale_writes_are_dropped() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 2i64 })));
        // Older version arrives late (event-layer skew): must be ignored.
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        assert_eq!(h.notifications().len(), 1, "only the newer write notifies");
        assert_eq!(h.node.stale_dropped(), 1);
    }

    #[test]
    fn retention_replay_closes_write_subscription_race() {
        let mut h = harness(ClusterConfig::new(1, 1));
        // Write arrives BEFORE the subscription (and is not reflected in the
        // initial result): retention replay must catch it.
        h.send(write_event(Key::of("early"), 1, Some(doc! { "n" => 99i64 })));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        let notes = h.notifications();
        assert_eq!(notes.len(), 1);
        match &notes[0].kind {
            NotificationKind::Change(c) => {
                assert_eq!(c.match_type, MatchType::Add);
                assert_eq!(c.item.key, Key::of("early"));
            }
            other => panic!("expected change, got {other:?}"),
        }
    }

    #[test]
    fn replay_respects_initial_result_versions() {
        let mut h = harness(ClusterConfig::new(1, 1));
        // The write is already reflected in the initial result (same
        // version): replay must NOT double-notify.
        h.send(write_event(Key::of("seen"), 3, Some(doc! { "n" => 50i64 })));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        let initial = vec![ResultItem::new(Key::of("seen"), 3, doc! { "n" => 50i64 })];
        h.send(subscribe_event(spec, 1, initial));
        assert!(h.notifications().is_empty());
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: hash,
        });
        assert_eq!(h.node.active_queries(), 0, "the last subscriber takes the query with it");
        h.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 2i64 })));
        assert_eq!(h.notifications().len(), 1, "no notification after cancel");
    }

    #[test]
    fn ttl_expiry_deactivates_queries() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        let mut req = match subscribe_event(spec.clone(), 1, vec![]) {
            Event::Subscribe(r) => (*r).clone(),
            _ => unreachable!(),
        };
        req.ttl_micros = 1_000; // 1ms TTL
        h.send(Event::Subscribe(Arc::new(req.clone())));
        req.subscription = SubscriptionId(2);
        h.send(Event::Subscribe(Arc::new(req)));
        // The keeper extends one of the two.
        h.send(Event::ExtendTtl {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(2),
            query_hash: hash,
            ttl_micros: 10_000_000,
        });
        h.clock.advance(Duration::from_secs(1)); // well past the short TTL
        h.node.tick();
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        let addressed: Vec<u64> = h.notifications().iter().map(|n| n.subscription.0).collect();
        assert_eq!(addressed, vec![2], "the lapsed subscription is no longer addressed");
        h.clock.advance(Duration::from_secs(60));
        h.node.tick();
        assert_eq!(h.node.active_queries(), 0, "expired query must not match");
    }

    #[test]
    fn tenants_and_collections_are_isolated() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.send(subscribe_event(spec, 1, vec![])); // tenant "app", collection "t"
                                                  // Same collection name, another tenant; same tenant, another collection.
        h.send(write_to("other", "t", Key::of("x"), 1, 5));
        h.send(write_to(TENANT, "other_collection", Key::of("x"), 1, 5));
        assert!(h.notifications().is_empty());
    }

    fn subscribe_as(tenant: &str, spec: QuerySpec, sub: u64, initial: Vec<ResultItem>) -> Event {
        match subscribe_event(spec, sub, initial) {
            Event::Subscribe(req) => Event::Subscribe(Arc::new(SubscriptionRequest {
                tenant: TenantId::new(tenant),
                ..(*req).clone()
            })),
            _ => unreachable!(),
        }
    }

    fn change_of(note: &Notification) -> (MatchType, Key, Version) {
        match &note.kind {
            NotificationKind::Change(c) => (c.match_type, c.item.key.clone(), c.item.version),
            other => panic!("expected change, got {other:?}"),
        }
    }

    #[test]
    fn tenants_sharing_a_collection_name_and_a_key_share_nothing() {
        // The same query on the same collection name, the same key written:
        // versions, retention, index and results are per tenant all the same.
        let mut h = harness(ClusterConfig::new(1, 1));
        let other = h.wire.of_tenant("other");
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_as(TENANT, spec.clone(), 1, vec![]));
        h.send(write_to(TENANT, "t", Key::of("k"), 5, 50));
        // Tenant B's record is at version 3. Tenant A's version 5 must not
        // make it stale — not for the cell, not for B's query (which finds
        // it in B's retention, not A's write).
        h.send(write_to("other", "t", Key::of("k"), 3, 30));
        assert_eq!(h.node.stale_dropped(), 0);
        h.send(subscribe_as("other", spec, 2, vec![]));
        let replayed = other.notifications();
        assert_eq!(
            replayed.iter().map(change_of).collect::<Vec<_>>(),
            [(MatchType::Add, Key::of("k"), 3)]
        );
        assert_eq!(replayed[0].subscription, SubscriptionId(2));
        // B moves its record out of the range: B's result loses it, A's
        // keeps its own.
        h.send(write_to("other", "t", Key::of("k"), 4, 1));
        assert_eq!(
            other.notifications().iter().map(change_of).collect::<Vec<_>>(),
            [(MatchType::Remove, Key::of("k"), 4)]
        );
        let own: Vec<_> = h.notifications().iter().map(|n| (n.subscription.0, change_of(n))).collect();
        assert_eq!(own, [(1, (MatchType::Add, Key::of("k"), 5))], "tenant A saw its own write only");
        // Staleness is judged inside the scope: an older write of A's is
        // stale, the same version from B is not.
        h.send(write_to(TENANT, "t", Key::of("k"), 4, 60));
        assert_eq!(h.node.stale_dropped(), 1);
        h.send(write_to("other", "t", Key::of("k"), 5, 70));
        assert_eq!(h.node.stale_dropped(), 1);
        assert_eq!(
            other.notifications().iter().map(change_of).collect::<Vec<_>>(),
            [(MatchType::Add, Key::of("k"), 5)]
        );
        assert_eq!(h.node.retained_writes(), 4);
    }

    #[test]
    fn a_scope_goes_with_its_last_query_and_last_retained_write() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let scopes = |h: &Harness| h.node.scopes.values().map(HashMap::len).sum::<usize>();
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        // A write nobody subscribed to still has a scope: it is retained
        // for whoever subscribes next, and its version counts.
        h.send(write_to(TENANT, "unwatched", Key::of("a"), 1, 1));
        assert_eq!(scopes(&h), 2);
        // The last query leaves; the retained write keeps the scope.
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: hash,
        });
        h.node.tick();
        assert_eq!((h.node.active_queries(), h.node.retained_writes(), scopes(&h)), (0, 2, 2));
        // Past the retention horizon nothing is left to keep them for.
        h.clock.advance(h.node.config.retention + Duration::from_millis(1));
        h.node.tick();
        assert_eq!((h.node.retained_writes(), scopes(&h)), (0, 0));
        assert!(h.node.scopes.is_empty(), "the tenant goes with its last scope");
        // A version seen before the scope went is no longer held against a
        // late write: the horizon is where staleness avoidance ends.
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 2i64 })));
        assert_eq!(h.node.stale_dropped(), 0);
    }

    #[test]
    fn cancellations_and_extensions_find_their_group_without_a_collection() {
        // Unsubscribe and ExtendTtl carry tenant and query hash only; the
        // group lives in one of the tenant's scopes.
        let mut h = harness(ClusterConfig::new(1, 1));
        let specs =
            ["t", "u", "v"].map(|c| QuerySpec::filter(c, doc! { "n" => doc! { "$gte" => 0i64 } }));
        for (sub, spec) in specs.iter().enumerate() {
            let mut req = match subscribe_event(spec.clone(), sub as u64, vec![]) {
                Event::Subscribe(r) => (*r).clone(),
                _ => unreachable!(),
            };
            req.ttl_micros = 1_000;
            h.send(Event::Subscribe(Arc::new(req)));
        }
        assert_eq!(h.node.active_queries(), 3);
        // Another tenant's cancellation of the same hash touches nothing.
        h.send(Event::Unsubscribe {
            tenant: TenantId::new("other"),
            subscription: SubscriptionId(1),
            query_hash: specs[1].stable_hash(),
        });
        assert_eq!(h.node.active_queries(), 3);
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: specs[1].stable_hash(),
        });
        assert_eq!(h.node.active_queries(), 2);
        h.send(Event::ExtendTtl {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(2),
            query_hash: specs[2].stable_hash(),
            ttl_micros: 10_000_000,
        });
        h.clock.advance(Duration::from_secs(1));
        h.node.tick();
        assert_eq!(h.node.active_queries(), 1, "the extended one outlives the short TTL");
        for collection in ["t", "u", "v"] {
            h.send(write_to(TENANT, collection, Key::of("a"), 1, 1));
        }
        let addressed: Vec<u64> = h.notifications().iter().map(|n| n.subscription.0).collect();
        assert_eq!(addressed, vec![2]);
    }

    #[test]
    fn delete_of_matching_item_notifies_remove() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let initial = vec![ResultItem::new(Key::of("a"), 1, doc! { "n" => 1i64 })];
        h.send(subscribe_event(spec, 1, initial));
        h.send(write_event(Key::of("a"), 2, None));
        let notes = h.notifications();
        assert_eq!(notes.len(), 1);
        match &notes[0].kind {
            NotificationKind::Change(c) => {
                assert_eq!(c.match_type, MatchType::Remove);
                assert!(c.item.doc.is_none());
            }
            other => panic!("expected remove, got {other:?}"),
        }
    }

    #[test]
    fn rejected_queries_answer_with_an_error() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$bogus" => 1i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        let notes = h.notifications();
        assert_eq!(notes.len(), 1);
        assert!(
            matches!(&notes[0].kind, NotificationKind::Error(e) if e.reason.starts_with("query rejected")),
            "got {:?}",
            notes[0].kind
        );
        assert_eq!(h.node.active_queries(), 0);
    }

    #[test]
    fn slow_query_log_charges_evaluations() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        // Charges are accumulated locally and reach the shared log on the
        // cell's next tick.
        let log = h.node.config.metrics.slow_queries();
        assert!(log.top(4).is_empty());
        h.node.tick();
        let top = log.top(4);
        assert_eq!(top.len(), 1, "one query charged");
        assert!(top[0].evals >= 1);
        assert_eq!(top[0].tenant, TENANT);
        assert!(!top[0].label.is_empty(), "label captured from the query spec");
    }

    #[test]
    fn a_departed_query_leaves_no_holder_behind() {
        // A page load over a quiet collection: the same query comes and
        // goes while the keys it holds are never rewritten. Each arrival
        // brings the keys in its bootstrap result.
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        let keys = ["a", "b", "c"].map(Key::of);
        let unsubscribe = || Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: hash,
        };
        let holders = |h: &Harness| -> Vec<Vec<QueryHash>> {
            let containing = &h.node.scopes[&TenantId::new(TENANT)]["t"].containing;
            keys.iter().map(|key| containing.get(key).cloned().unwrap_or_default()).collect()
        };
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        for key in &keys {
            h.send(write_event(key.clone(), 1, Some(doc! { "n" => 1i64 })));
        }
        assert_eq!(holders(&h), vec![vec![hash]; 3]);
        for _ in 0..3 {
            h.send(unsubscribe());
            let initial = keys.iter().map(|k| ResultItem::new(k.clone(), 1, doc! { "n" => 1i64 }));
            h.send(subscribe_event(spec.clone(), 1, initial.collect()));
            assert_eq!(holders(&h), vec![vec![hash]; 3], "one holder per key, however often it left");
        }
        h.send(unsubscribe());
        assert_eq!(holders(&h), vec![Vec::<QueryHash>::new(); 3]);
        // TTL expiry retires a group the same way.
        h.send(subscribe_event(spec, 1, vec![]));
        assert_eq!(holders(&h), vec![vec![hash]; 3], "re-held through the retained writes");
        h.clock.advance(Duration::from_secs(61));
        h.node.tick();
        assert_eq!(h.node.active_queries(), 0);
        assert!(h.node.scopes.is_empty(), "nothing retained, nothing held: the scope went");
    }

    #[test]
    fn two_subscriptions_same_query_both_notified() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.send(subscribe_event(spec.clone(), 2, vec![]));
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        let envelopes = h.wire.envelopes();
        assert_eq!(envelopes.len(), 1, "one message per (write, query), not per subscription");
        assert_eq!(
            envelopes[0].subscriptions,
            vec![SubscriptionId(1), SubscriptionId(2)],
            "addressed in one stable order"
        );
    }
}
