//! The matching node — one cell of the QP × WP filtering-stage grid (§5.1).
//!
//! A matching node at grid coordinate `(qp, wp)` holds the queries of query
//! partition `qp` and sees the after-images of write partition `wp`. For
//! every incoming after-image it evaluates all of its queries, compares the
//! new matching status against the former one, and emits the transition:
//!
//! * unsorted filter queries are self-maintainable — the node collects the
//!   subscriptions of every query a write moves, by match type, and
//!   encodes and publishes one change notification per match type, so the
//!   record's bytes are copied out once per (write, match type) however
//!   many queries it reaches;
//! * sorted queries emit [`FilterChange`]s to the sorting stage, and only
//!   for items that match or just ceased matching — everything else is
//!   filtered out here, slashing downstream throughput (§5.2).
//!
//! A cell runs to completion: index probe, predicate evaluation, notify
//! encode and event-layer publish are function calls on the cell's thread.
//!
//! A write stays in the bytes it arrived as ([`WriteEvent`]). The cell reads
//! its header in place, probes the index and tests one-field predicates
//! with the attributes they name, decoded one at a time, and copies the
//! record's bytes into a change notification as they are. A transition that
//! goes on to a staged query carries the payload on, not a decoded record.
//! Only a predicate that reads the record whole has the record decoded,
//! once per write (counted as `matching.materialized`).
//!
//! The node also implements **write-stream retention** and **staleness
//! avoidance**: received writes are buffered, as the payloads they arrived
//! as, for a configurable time and replayed against newly subscribed
//! queries (fixing the write-subscription race), and any write older than
//! the newest seen version of the same record is dropped (§5.1).
//!
//! All of that state is kept per **scope** — one (tenant, collection) —
//! found per write by borrowed lookup. Inside a
//! scope a record is its [`Key`] and a query its [`QueryHash`]: no map is
//! keyed by a tuple that would have to be assembled, and so copied, per
//! write.

use crate::config::{ClusterConfig, WorkerIdentity};
use crate::event::{
    envelope_field, DocSpan, Event, FilterChange, FilterChangeKind, WriteEvent, WriteHeader,
};
use crate::links::StageLinks;
use crate::notifier::Publisher;
use crate::query_index::QueryIndex;
use crate::subscribers::Subscribers;
use bytes::Bytes;
use invalidb_broker::BrokerHandle;
use invalidb_common::trace::now_micros;
use invalidb_common::{
    Attributes, Clock, DocRef, Document, EnvelopeRef, GridCoord, GridShape, ItemRef, Key, KindRef,
    MatchType, QueryHash, Record, Stage, SubscriptionId, SubscriptionRequest, TenantId, Timestamp,
    TraceContext, Value, Version,
};
use invalidb_json::{CheckedObject, WireCodec};
use invalidb_obs::QueryCounts;
use invalidb_query::{PreparedAtom, PreparedFilter};
use invalidb_stream::Task;
use std::borrow::Cow;
use std::cell::OnceCell;
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

    /// The conjunction of `atoms` over `record`, memoized per atom.
    /// Exactly equivalent to `filter.matches(doc)` by the
    /// [`PreparedFilter::conjuncts`] contract.
    fn eval_all(&mut self, atoms: &[PreparedAtom], record: &impl Record) -> bool {
        atoms.iter().all(|a| match self.map.entry(a.hash().0) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(a.matches_in(record)),
        })
    }

    fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }
}

/// What a cell keeps of a query itself, apart from any result of it.
struct Query {
    /// The group's evaluation and change counts in the slow-query log.
    counts: Arc<QueryCounts>,
    /// The compiled filter, and nothing else of the query: its atoms when
    /// it decomposes, so there is no second form of it to hold.
    filter: Box<dyn PreparedFilter>,
    /// Whether the sorting stage consumes this query's transitions; not for
    /// self-maintainable filter queries.
    to_sorting: bool,
}

/// One active query on this node (shared by all its subscriptions). Its
/// tenant and collection are those of the [`Scope`] it lives in.
struct QueryGroup {
    query: Query,
    /// This node's partition of the currently matching keys (filtering-stage
    /// result state). For sorted queries this is the *matching status* of
    /// keys within the bootstrap horizon, not the client-visible result.
    result: HashMap<Key, Version>,
    subscriptions: Subscribers,
    /// When the group formed: what its sorting partition retained starts here.
    since: Timestamp,
}

/// Everything a cell keeps for one (tenant, collection). Writes, queries,
/// versions and retained writes of different scopes never meet, so
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
    /// Retained writes, oldest first (§5.1 write-stream retention). A new
    /// subscription replays this ring and no other.
    retention: VecDeque<Retained>,
    /// Newest seen version per record (staleness avoidance).
    latest_versions: HashMap<Key, Version>,
}

/// A write kept for replay: what replay and trimming read of it beside the
/// payload it arrived as, which replay reads in place like a live write.
struct Retained {
    at: Timestamp,
    key: Key,
    version: Version,
    payload: Bytes,
    /// Where the payload's `doc` object lies.
    doc: DocSpan,
}

impl Retained {
    /// The write's document, read in place; `None` for a delete.
    fn doc(&self) -> Option<CheckedObject<'_>> {
        self.doc.of(&self.payload)
    }

    /// The write's `writtenAt`, read in place.
    fn written_at(&self) -> u64 {
        let at = envelope_field(&self.payload, "writtenAt").and_then(|at| at.as_i64());
        at.unwrap_or(0) as u64
    }
}

impl Scope {
    /// Nothing left that a later event could need: no query to match, no
    /// write to replay (and so no version to be stale against).
    fn is_idle(&self) -> bool {
        self.queries.is_empty() && self.retention.is_empty()
    }

    /// Staleness avoidance and retention for one incoming write: `false`
    /// for a write that is not newer than what the scope has seen.
    fn admit(&mut self, write: &WriteEvent, now: Timestamp) -> bool {
        let (key, version) = (&write.header.key, write.header.version);
        // Updated in place: a key is copied the first time it is seen.
        match self.latest_versions.get_mut(key) {
            Some(seen) if version <= *seen => return false,
            Some(seen) => *seen = version,
            None => {
                self.latest_versions.insert(key.clone(), version);
            }
        }
        let payload = write.payload.clone();
        self.retention.push_back(Retained {
            at: now,
            key: key.clone(),
            version,
            payload,
            doc: write.doc,
        });
        true
    }

    /// Drops retained writes older than `horizon`; returns how many, and
    /// their payload bytes.
    fn trim_retention(&mut self, now: Timestamp, horizon: std::time::Duration) -> (usize, usize) {
        let (mut trimmed, mut bytes) = (0, 0);
        while let Some(write) = self.retention.pop_front_if(|w| now.since(w.at) > horizon) {
            trimmed += 1;
            bytes += write.payload.len();
            // Forget latest-version entries only when they refer to the
            // trimmed write (a newer one may have refreshed the record).
            if self.latest_versions.get(&write.key) == Some(&write.version) {
                self.latest_versions.remove(&write.key);
            }
        }
        (trimmed, bytes)
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

/// One write as a cell evaluates it: its header, and its record read in
/// place from the payload it arrived in — or decoded, on first need by a
/// predicate that reads it whole, then shared by every query the write
/// reaches.
pub(crate) struct Written<'a> {
    tenant: &'a TenantId,
    key: &'a Key,
    version: Version,
    written_at: u64,
    trace: Option<&'a TraceContext>,
    payload: &'a Bytes,
    /// Where the record lies in `payload`.
    span: DocSpan,
    /// `None` for a delete.
    doc: Option<CheckedObject<'a>>,
    record: OnceCell<Document>,
}

impl<'a> Written<'a> {
    /// A live write.
    pub(crate) fn live(write: &'a WriteEvent) -> Self {
        let WriteEvent { header, trace, .. } = write;
        Written {
            tenant: &header.tenant,
            key: &header.key,
            version: header.version,
            written_at: header.written_at,
            trace: trace.as_deref(),
            payload: &write.payload,
            span: write.doc,
            doc: write.doc(),
            record: OnceCell::new(),
        }
    }

    /// A retained write of `tenant`'s replayed: not on the live write's
    /// stage path, so without its trace.
    fn replayed(tenant: &'a TenantId, write: &'a Retained) -> Self {
        Written {
            tenant,
            key: &write.key,
            version: write.version,
            written_at: write.written_at(),
            trace: None,
            payload: &write.payload,
            span: write.doc,
            doc: write.doc(),
            record: OnceCell::new(),
        }
    }

    /// A staged query's transition of this write: the payload shared, the
    /// header copied.
    fn change(
        &self,
        query_hash: QueryHash,
        kind: FilterChangeKind,
        trace: Option<TraceContext>,
    ) -> FilterChange {
        FilterChange {
            query_hash,
            kind,
            payload: self.payload.clone(),
            header: WriteHeader {
                tenant: self.tenant.clone(),
                key: self.key.clone(),
                version: self.version,
                written_at: self.written_at,
            },
            doc: self.span,
            trace,
        }
    }
}

impl Attributes for Written<'_> {
    fn attr(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.doc.as_ref()?.attr(name)
    }
}

impl Record for Written<'_> {
    fn document(&self) -> &Document {
        self.record.get_or_init(|| self.doc.map_or_else(Document::new, |doc| doc.materialize()))
    }
}

/// Where a cell's staged (sorted) transitions go.
pub(crate) enum StagedOut {
    /// The cell's row is anchored in this process: straight onto the
    /// sorting partition's queue.
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
    /// `matching.matched` / `matching.filtered` / `matching.materialized`,
    /// resolved once.
    matched: Arc<AtomicU64>,
    filtered: Arc<AtomicU64>,
    materialized: Arc<AtomicU64>,
}

impl Outputs {
    /// Passes a staged query's transition downstream.
    fn forward(&self, change: FilterChange) {
        match &self.staged {
            StagedOut::Local(links) => links.to_sorting(change.query_hash, Event::FilterChange(change)),
            StagedOut::Shuffle { broker, topic, published } => {
                let mut payload = WireCodec.writer();
                change.write_to(&mut payload);
                broker.publish(topic, payload.finish());
                published.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }

    /// The write's trace stamped by the filtering stage; the clone touches
    /// only traced writes, so the unsampled fast path stays allocation free.
    /// On a workerd host the stamp also names the worker and its assignment
    /// epoch, so a cross-process trace identifies the cell.
    fn stamped(&self, write: &Written<'_>) -> Option<TraceContext> {
        write.trace.cloned().map(|mut t| {
            match &self.identity {
                Some(id) => id.stamp(&mut t, Stage::Matching),
                None => t.stamp(Stage::Matching),
            }
            t
        })
    }

    /// Counts an evaluated write whose record was decoded.
    fn count_materialized(&self, write: &Written<'_>) {
        if write.record.get().is_some() {
            self.materialized.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }
}

/// What evaluating a write needs beside the scope it belongs to, bundled so
/// the write path borrows one field of the node next to its scopes.
struct Evaluator {
    out: Outputs,
    /// Shared predicate evaluation cache (cleared per write).
    pred_cache: PredCache,
    /// Reused candidate buffer for the index probe.
    candidates: Vec<QueryHash>,
    /// The subscriptions the write being evaluated moves, by match type
    /// (indexed as [`MATCH_TYPES`]): each list leaves as one envelope.
    addressees: [Vec<SubscriptionId>; 3],
    /// Whether writes find their queries through the scope's index.
    indexed: bool,
}

/// The match type of each of [`Evaluator::addressees`]' lists.
const MATCH_TYPES: [MatchType; 3] = [MatchType::Add, MatchType::Change, MatchType::Remove];

impl Evaluator {
    /// One admitted write against its scope's queries: the candidates are
    /// what the index proposes for the record plus the queries whose result
    /// currently holds it (an update can move it out of their range, a
    /// delete has no document to probe with). Each unsorted transition
    /// addresses all of the group's subscriptions, in the write's one
    /// envelope of its match type.
    fn match_write(&mut self, scope: &mut Scope, written: Written<'_>) {
        let Scope { queries, index, containing, .. } = scope;
        if queries.is_empty() {
            return;
        }
        self.pred_cache.begin_write();
        let mut candidates = std::mem::take(&mut self.candidates);
        if !self.indexed {
            // Force-scan reference: every query of the scope is evaluated.
            candidates.clear();
            candidates.extend(queries.keys());
        } else if let Some(doc) = &written.doc {
            index.candidates_in(doc, &mut candidates);
        } else {
            candidates.clear();
            candidates.extend_from_slice(index.scan_candidates());
        }
        if let Some(holders) = containing.get(written.key) {
            candidates.extend_from_slice(holders);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for hash in &candidates {
            // Index and holder lists name live groups only (see `retire`).
            let Some(QueryGroup { query, result, subscriptions, .. }) = queries.get_mut(hash) else {
                continue;
            };
            if let Some(kind) = self.match_against(query, *hash, result, subscriptions.ids(), &written) {
                note_transition(containing, written.key, *hash, kind);
            }
        }
        self.candidates = candidates;
        self.flush(&written);
    }

    /// Publishes the write's unsorted transitions, one envelope per match
    /// type it caused, each borrowing the record's bytes as they arrived.
    /// A subscription is in one group, so it is addressed at most once.
    fn flush(&mut self, write: &Written<'_>) {
        let out = &self.out;
        out.count_materialized(write);
        if self.addressees.iter().all(Vec::is_empty) {
            return;
        }
        let trace = out.stamped(write);
        for (to, match_type) in self.addressees.iter_mut().zip(MATCH_TYPES) {
            if to.is_empty() {
                continue;
            }
            out.publisher.publish(EnvelopeRef {
                tenant: write.tenant,
                subscriptions: to,
                kind: KindRef::Change {
                    match_type,
                    item: ItemRef {
                        key: write.key,
                        version: write.version,
                        doc: write.doc.as_ref().map(|doc| DocRef::Encoded(doc)),
                        index: None,
                    },
                    old_index: None,
                },
                caused_by_write_at: write.written_at,
                trace: trace.as_ref(),
            });
            to.clear();
        }
    }

    /// Evaluates one write against one query and counts the evaluation on
    /// the query's slow-query handle, so operators can see which query eats
    /// the grid.
    fn match_against(
        &mut self,
        query: &Query,
        hash: QueryHash,
        result: &mut HashMap<Key, Version>,
        to: &[SubscriptionId],
        write: &Written<'_>,
    ) -> Option<FilterChangeKind> {
        let kind = self.evaluate(query, hash, result, to, write);
        query.counts.count(kind.is_some());
        kind
    }

    /// Core filtering-stage transition logic, for every path a write takes
    /// to a query: moves `result` — the group's, or a new subscription's
    /// view being caught up — and adds `to` to the write's addressees of
    /// the transition's match type (or passes the transition downstream).
    /// Returns the transition kind (None when the write was irrelevant or
    /// stale for this view).
    fn evaluate(
        &mut self,
        query: &Query,
        hash: QueryHash,
        result: &mut HashMap<Key, Version>,
        to: &[SubscriptionId],
        write: &Written<'_>,
    ) -> Option<FilterChangeKind> {
        let out = &self.out;
        let held = result.get_mut(write.key);
        if held.as_ref().is_some_and(|old| write.version <= **old) {
            return None; // stale relative to what this view already reflects
        }
        // Shared predicate evaluation: conjunctive queries resolve each
        // atom through the per-write memo (identical result to
        // `filter.matches` by the `conjuncts` contract), a one-field atom
        // reading its attribute in place; queries that opt out of
        // decomposition evaluate the record whole.
        let cache = &mut self.pred_cache;
        let matches_now = write.doc.is_some()
            && match query.filter.conjuncts() {
                Some(atoms) => cache.eval_all(atoms, write),
                None => query.filter.matches(write.document()),
            };
        // The result is updated in place: a key is copied when it enters.
        let kind = match (held, matches_now) {
            (None, true) => {
                result.insert(write.key.clone(), write.version);
                FilterChangeKind::Add
            }
            (Some(version), true) => {
                *version = write.version;
                FilterChangeKind::Change
            }
            (Some(_), false) => {
                result.remove(write.key);
                FilterChangeKind::Remove
            }
            (None, false) => {
                out.filtered.fetch_add(1, AtomicOrdering::Relaxed);
                return None; // irrelevant write: filtered out
            }
        };
        out.matched.fetch_add(1, AtomicOrdering::Relaxed);
        if query.to_sorting {
            // Sorted queries: pass the transition downstream, sharing the
            // write's payload.
            out.forward(write.change(hash, kind, out.stamped(write)));
        } else {
            // Self-maintainable queries: `to` joins the write's envelope of
            // this match type, published by `flush`.
            let list = match kind {
                FilterChangeKind::Add => 0,
                FilterChangeKind::Change => 1,
                FilterChangeKind::Remove => 2,
            };
            self.addressees[list].extend_from_slice(to);
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
    /// Query groups, retained writes and their payload bytes over all
    /// scopes.
    active_queries: usize,
    retained_writes: usize,
    retained_bytes: usize,
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
    gauge_retained_bytes: Arc<AtomicU64>,
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
                    materialized: metrics.counter("matching.materialized"),
                },
                pred_cache: PredCache::default(),
                candidates: Vec::new(),
                addressees: Default::default(),
                indexed: config.multi_query_index,
            },
            metric_dropped_stale: metrics.counter("matching.dropped_stale"),
            gauge_active_queries: metrics.gauge(&format!("{cell}.active_queries")),
            gauge_retained_writes: metrics.gauge(&format!("{cell}.retained_writes")),
            gauge_retained_bytes: metrics.gauge(&format!("{cell}.retained_bytes")),
            gauge_ingest_lag_us: metrics.gauge(&format!("{cell}.ingest_lag_us")),
            config,
            clock,
            scopes: HashMap::new(),
            active_queries: 0,
            retained_writes: 0,
            retained_bytes: 0,
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
    /// in a cluster, and the transitions of sorted queries through the
    /// queue returned beside the cell — what a sorting partition reads.
    /// Once the queue is dropped they go nowhere, as after shutdown.
    pub fn solo(
        config: ClusterConfig,
        clock: Arc<dyn Clock>,
        publisher: Publisher,
    ) -> (Self, crossbeam::channel::Receiver<Event>) {
        let (staged, queue) = crossbeam::channel::unbounded();
        let links = StageLinks { sorting: vec![staged] };
        let cell = Self::new(0, GridShape::new(1, 1), config, clock, publisher, StagedOut::Local(links));
        (cell, queue)
    }

    /// One rule for every subscription whose client was handed
    /// `req.initial`: its view starts from this node's slice of that result
    /// and is caught up by replaying the scope's retained writes, each
    /// transition addressed to it alone. A new group keeps the view as its
    /// result; a joiner's is dropped, the group's own result being current.
    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let hash = req.query_hash;
        let to = std::slice::from_ref(&req.subscription);
        let Scope { queries, index, containing, retention, latest_versions, .. } =
            scope_or_new(&mut self.scopes, &req.tenant, &req.spec.collection);
        let (group, new) = match queries.entry(hash) {
            Entry::Occupied(entry) => {
                let group = entry.into_mut();
                let member = group.subscriptions.ids().binary_search(&req.subscription).is_ok();
                group.subscriptions.insert(req.subscription, expires_at);
                // A silent re-registration was handed no initial result: its
                // client already holds what the group addresses to it.
                if req.renewal && member {
                    return;
                }
                // A sorted joiner's window is its sorting partition's to
                // correct, but for the writes retained from before the group
                // formed (below): transitions sent from here would move the
                // group's shared state.
                let before = retention.front().is_some_and(|write| write.at <= group.since);
                if group.query.to_sorting && !before {
                    return;
                }
                (group, false)
            }
            Entry::Vacant(entry) => {
                // The filter is all this stage evaluates; the sorting stage
                // prepares the whole query for its window (and reports what
                // only the whole query's preparation rejects).
                let filter = match self.config.engine.prepare_filter(&req.spec.filter) {
                    Ok(f) => f,
                    Err(e) => {
                        // Unparseable query: report an error notification so
                        // the subscription does not dangle silently.
                        self.eval.out.publisher.publish(EnvelopeRef {
                            tenant: &req.tenant,
                            subscriptions: to,
                            kind: KindRef::Error(&format!("query rejected: {e}")),
                            caused_by_write_at: 0,
                            trace: None,
                        });
                        return;
                    }
                };
                if self.eval.indexed {
                    index.insert(hash, &req.spec.filter);
                }
                self.active_queries += 1;
                let group = entry.insert(QueryGroup {
                    query: Query {
                        counts: self.config.metrics.slow_queries().register(
                            req.tenant.clone(),
                            hash.0,
                            req.spec.to_string(),
                        ),
                        filter,
                        to_sorting: req.spec.needs_sorting_stage(),
                    },
                    result: HashMap::new(),
                    subscriptions: Subscribers::of(req.subscription, expires_at),
                    since: now,
                });
                (group, true)
            }
        };
        // Only keys of *our* write partition ("every node receives only a
        // partition of the result", §5.1).
        let mut view: HashMap<Key, Version> = req
            .initial
            .iter()
            .filter(|item| self.grid.write_partition(&item.key) == self.coord.wp)
            .map(|item| (item.key.clone(), item.version))
            .collect();
        // Replay the scope's retained writes against the view: closes the
        // write-subscription race (§5.1). Writes already reflected in the
        // initial result are skipped by the version guard. A write can only
        // matter if the view holds its key or the index would have proposed
        // the query for it — the rest are irrelevant by the index's
        // superset contract, so they are not evaluated; the index's test
        // reads its attributes in place. The others take a live write's
        // path, without its trace: a replayed transition is not on the live
        // write's stage path. An unsorted subscriber gets only the newest
        // write of each key: membership depends on it alone, and an older
        // one would show the subscriber a record its read saw deleted. A
        // sorted joiner gets the newest write of each key from before the
        // group formed, which every other window of its query has seen (an
        // older one would move them back).
        let sorted_joiner = !new && group.query.to_sorting;
        let newest_only = sorted_joiner || !group.query.to_sorting;
        let mut admission = index.admission(hash);
        for write in retention.iter() {
            if sorted_joiner && write.at > group.since {
                break;
            }
            let superseded = newest_only && latest_versions.get(&write.key) != Some(&write.version);
            if superseded || view.get(&write.key).is_some_and(|held| write.version <= *held) {
                continue;
            }
            let relevant = !self.eval.indexed
                || view.contains_key(&write.key)
                || write.doc().is_some_and(|doc| admission.admits(&doc));
            if !relevant {
                continue;
            }
            let written = Written::replayed(&req.tenant, write);
            self.eval.pred_cache.begin_write();
            self.eval.match_against(&group.query, hash, &mut view, to, &written);
            self.eval.flush(&written);
        }
        if new {
            for key in view.keys() {
                note_transition(containing, key, hash, FilterChangeKind::Add);
            }
            group.result = view;
        }
    }

    /// One write: staleness avoidance, retention of its payload, then
    /// evaluation against the queries of its scope, found with the
    /// collection's name read in place.
    fn handle_write(&mut self, write: WriteEvent) {
        // The ingress checked the envelope.
        let Some(collection) = write.collection() else {
            debug_assert!(false, "a checked write without its collection");
            return;
        };
        let now = self.clock.now();
        let scope = scope_or_new(&mut self.scopes, &write.header.tenant, collection);
        if !scope.admit(&write, now) {
            self.stale_dropped += 1;
            self.metric_dropped_stale.fetch_add(1, AtomicOrdering::Relaxed);
            return;
        }
        self.retained_writes += 1;
        self.retained_bytes += write.payload.len();
        // Ingestion lag: how far behind the write's origin timestamp this
        // cell is running. Tracked as a peak here, published on tick.
        let lag = now_micros().saturating_sub(write.header.written_at);
        self.ingest_lag_us = self.ingest_lag_us.max(lag);
        self.eval.match_write(scope, Written::live(&write));
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
            let (trimmed, bytes) = scope.trim_retention(now, horizon);
            self.retained_writes -= trimmed;
            self.retained_bytes -= bytes;
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

    /// Number of retained writes (tests/metrics).
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
            Event::Write(write) => self.handle_write(write),
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

    fn tick(&mut self, now: Timestamp) -> Timestamp {
        self.expire();
        // Per-partition gauges, refreshed once per tick so the hot write
        // path never touches them.
        self.gauge_active_queries.store(self.active_queries as u64, AtomicOrdering::Relaxed);
        self.gauge_retained_writes.store(self.retained_writes as u64, AtomicOrdering::Relaxed);
        self.gauge_retained_bytes.store(self.retained_bytes as u64, AtomicOrdering::Relaxed);
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
        now.after(self.config.tick_interval)
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
impl MatchingNode {
    /// Hashes what decides the cell's later output, for tests that compare
    /// cells across runs: each scope's groups (result, members, and how
    /// many retained writes came before the group) and latest versions, and
    /// its retained writes when a new group may still replay them.
    pub(crate) fn hash_state(&self, replayable: bool, hasher: &mut impl std::hash::Hasher) {
        use std::collections::BTreeMap;
        use std::hash::Hash;
        let mut scopes: Vec<_> =
            self.scopes.iter().flat_map(|(t, s)| s.iter().map(move |(c, s)| (t, c, s))).collect();
        scopes.sort_by_key(|(tenant, collection, _)| (tenant.as_str(), *collection));
        for (_, _, scope) in scopes {
            let mut groups: Vec<_> = scope
                .queries
                .iter()
                .map(|(hash, group)| {
                    let before = scope.retention.iter().filter(|write| write.at <= group.since).count();
                    let result: BTreeMap<_, _> = group.result.iter().collect();
                    (*hash, result, group.subscriptions.ids(), before)
                })
                .collect();
            groups.sort_by_key(|(hash, ..)| *hash);
            let versions: BTreeMap<_, _> = scope.latest_versions.iter().collect();
            (groups, versions).hash(hasher);
            if replayable {
                for write in &scope.retention {
                    (&write.key, write.version, &write.payload[..]).hash(hasher);
                }
            }
        }
    }
}

#[cfg(test)]
mod exhaustive;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::testing::{Wire, TENANT};
    use crossbeam::channel::Receiver;
    use invalidb_common::{
        doc, AfterImage, MockClock, Notification, NotificationKind, NotifyEnvelope, QuerySpec,
        ResultItem, SortDirection, Value,
    };
    use std::time::Duration;

    /// One cell driven synchronously: what it publishes is read back off
    /// the notify topic, what it stages off the sorting partition's queue.
    pub(super) struct Harness {
        pub(super) node: MatchingNode,
        pub(super) wire: Wire,
        staged: Receiver<Event>,
        pub(super) clock: MockClock,
    }

    pub(super) fn harness(config: ClusterConfig) -> Harness {
        let clock = MockClock::new();
        let wire = Wire::new(&config, &clock);
        let (node, staged) = MatchingNode::solo(config, Arc::new(clock.clone()), wire.publisher.clone());
        Harness { node, wire, staged, clock }
    }

    impl Harness {
        pub(super) fn send(&mut self, event: Event) {
            self.node.handle(event);
        }

        pub(super) fn notifications(&self) -> Vec<Notification> {
            self.wire.notifications()
        }

        fn filter_changes(&self) -> Vec<FilterChange> {
            self.staged
                .try_iter()
                .filter_map(|e| match e {
                    Event::FilterChange(fc) => Some(fc),
                    _ => None,
                })
                .collect()
        }
    }

    pub(super) fn subscribe_event(spec: QuerySpec, sub: u64, initial: Vec<ResultItem>) -> Event {
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

    /// A write event as the ingress builds it, from the write's envelope.
    fn event_of(img: &AfterImage) -> Event {
        let mut w = WireCodec.writer();
        img.as_ref().write_to(&mut w);
        crate::ingest::decode_event_with(w.finish(), TenantId::new).expect("a write envelope")
    }

    fn image(key: Key, version: Version, doc: Option<invalidb_common::Document>) -> AfterImage {
        AfterImage {
            tenant: TenantId::new(TENANT),
            collection: "t".into(),
            key,
            version,
            doc,
            written_at: 42,
            trace: None,
        }
    }

    fn write_to(tenant: &str, collection: &str, key: Key, version: Version, n: i64) -> Event {
        event_of(&AfterImage {
            tenant: TenantId::new(tenant),
            collection: collection.into(),
            ..image(key, version, Some(doc! { "n" => n }))
        })
    }

    pub(super) fn write_event(
        key: Key,
        version: Version,
        doc: Option<invalidb_common::Document>,
    ) -> Event {
        event_of(&image(key, version, doc))
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

    /// A subscriber whose read followed a delete is told nothing of the
    /// deleted record: the replay skips its older insert, which would show
    /// it once (Add v1, then Remove v2). A joiner of the same query too.
    #[test]
    fn a_subscriber_that_read_after_a_delete_is_not_shown_the_deleted_record() {
        let mut h = harness(ClusterConfig::new(1, 1));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 15i64 })));
        h.send(write_event(Key::of("a"), 2, None));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        h.send(subscribe_event(spec, 2, vec![]));
        assert_eq!(h.notifications(), vec![], "nothing to tell either subscriber");
        h.send(write_event(Key::of("a"), 3, Some(doc! { "n" => 20i64 })));
        let adds: Vec<_> = h.notifications().iter().map(|n| (n.subscription, change_of(n))).collect();
        let add = (MatchType::Add, Key::of("a"), 3);
        assert_eq!(adds, vec![(SubscriptionId(1), add.clone()), (SubscriptionId(2), add)]);
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
        let fc = FilterChange::decode(&payload).expect("a filter change");
        assert_eq!((fc.query_hash, fc.kind), (spec.stable_hash(), FilterChangeKind::Add));
        assert_eq!(config.metrics.snapshot().counters["shuffle.egress"], 1);
    }

    /// A change notification copies the record's bytes as the write carried
    /// them: each envelope a cell publishes is, byte for byte, the envelope
    /// written from the decoded after-image — for a record of long strings,
    /// integral floats and nested arrays, an update out of the range and a
    /// delete alike.
    #[test]
    fn notifications_spliced_from_the_write_are_the_ones_written_from_its_image() {
        use MatchType::{Add, Change, Remove};
        let mut h = harness(ClusterConfig::new(1, 1));
        h.send(subscribe_event(
            QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } }),
            1,
            vec![],
        ));
        let record = |n: Value| {
            doc! {
                "n" => n,
                "long" => "a string well over the twenty-two inline bytes",
                "f" => 3.0f64,
                "nested" => vec![Value::from(vec![Value::Int(1), Value::Null]), Value::Object(doc! {})],
            }
        };
        let images = [
            (Add, image(Key::of("a"), 1, Some(record(Value::Int(10))))),
            (Change, image(Key::of("a"), 2, Some(record(Value::Float(12.0))))),
            (Add, image(Key::of("b"), 1, Some(doc! { "n" => 99i64 }))),
            (Remove, image(Key::of("a"), 3, Some(record(Value::Int(1))))),
            (Remove, image(Key::of("b"), 2, None)),
        ];
        for (_, img) in &images {
            h.send(event_of(img));
        }
        let published = h.wire.payloads();
        assert_eq!(published.len(), images.len());
        for ((_, payload), (match_type, img)) in published.iter().zip(&images) {
            let mut w = WireCodec.writer();
            EnvelopeRef {
                tenant: &img.tenant,
                subscriptions: &[SubscriptionId(1)],
                kind: KindRef::Change {
                    match_type: *match_type,
                    item: ItemRef {
                        key: &img.key,
                        version: img.version,
                        doc: img.doc.as_ref().map(DocRef::Tree),
                        index: None,
                    },
                    old_index: None,
                },
                caused_by_write_at: img.written_at,
                trace: None,
            }
            .write_to(&mut w);
            assert_eq!(payload, &w.finish(), "{match_type:?} of {:?}", img.key);
        }
    }

    /// `matching.materialized` counts the writes a cell decoded into an
    /// after-image: none on a stream that only ranges match, none on one
    /// every write of which reaches sorted queries, however many (their
    /// transitions carry the payload on), and each write once on a stream a
    /// predicate that reads the record whole sees.
    #[test]
    fn a_write_is_materialized_only_for_a_whole_record_predicate_and_once() {
        let materialized =
            |h: &Harness| h.node.config.metrics.snapshot().counters["matching.materialized"];
        let mut ranges = harness(ClusterConfig::new(1, 1));
        for (sub, lo) in [(1, 0i64), (2, 50)] {
            let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => lo, "$lt" => lo + 50 } });
            ranges.send(subscribe_event(spec, sub, vec![]));
        }
        for i in 0..20i64 {
            ranges.send(write_event(Key::of(i % 7), i as Version + 1, Some(doc! { "n" => i * 5 })));
        }
        ranges.send(write_event(Key::of(3i64), 99, None));
        assert!(ranges.notifications().len() >= 20, "every write entered or left a range");
        assert_eq!(materialized(&ranges), 0, "a range-only stream");

        let mut sorted = harness(ClusterConfig::new(1, 1));
        let by_n =
            |limit| QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(limit);
        sorted.send(subscribe_event(by_n(3), 1, vec![]));
        sorted.send(subscribe_event(by_n(5), 2, vec![]));
        let write =
            |i: i64| write_event(Key::of(i), 1, Some(doc! { "n" => i, "m" => doc! { "x" => i % 2 } }));
        for i in 0..20i64 {
            sorted.send(write(i));
        }
        assert_eq!(sorted.filter_changes().len(), 40, "both windows saw every write");
        assert_eq!(materialized(&sorted), 0, "a sorted-only stream");

        let mut whole = harness(ClusterConfig::new(1, 1));
        for x in [0i64, 1] {
            whole.send(subscribe_event(
                QuerySpec::filter("t", doc! { "m.x" => x }),
                1 + x as u64,
                vec![],
            ));
        }
        for i in 0..20i64 {
            whole.send(write(i));
        }
        assert_eq!(whole.notifications().len(), 20, "each write matched one of the dotted paths");
        assert_eq!(materialized(&whole), 20, "one after-image per write");
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
    fn replay_evaluates_only_the_retained_writes_the_index_admits() {
        let subscribe_after_writes = |config: ClusterConfig| {
            let mut h = harness(config);
            for i in 0..1_000i64 {
                let doc = doc! { "status" => format!("s{}", i % 4), "price" => i };
                h.send(write_event(Key::of(i), 1, Some(doc)));
            }
            // A delete of a key the new query never held.
            h.send(write_event(Key::of(7i64), 2, None));
            let filtered = |h: &Harness| h.node.config.metrics.snapshot().counters["matching.filtered"];
            let before = filtered(&h);
            // No retained write has this status; few reach this range.
            h.send(subscribe_event(QuerySpec::filter("t", doc! { "status" => "s9" }), 1, vec![]));
            let spec =
                QuerySpec::filter("t", doc! { "status" => "s1", "price" => doc! { "$gte" => 990i64 } });
            h.send(subscribe_event(spec, 2, vec![]));
            let added: Vec<Key> = h.notifications().iter().map(|n| change_of(n).1).collect();
            (filtered(&h) - before, added)
        };
        let (evaluated_in_vain, added) = subscribe_after_writes(ClusterConfig::new(1, 1));
        assert!(evaluated_in_vain <= 10, "{evaluated_in_vain} retained writes evaluated in vain");
        assert_eq!(added, [993i64, 997].map(Key::of));
        // The force-scan reference replays, and finds, the same.
        let mut scan = ClusterConfig::new(1, 1);
        scan.multi_query_index = false;
        let (scanned_in_vain, scanned) = subscribe_after_writes(scan);
        assert_eq!(scanned, added);
        assert!(scanned_in_vain >= 1_000);
    }

    #[test]
    fn replay_removes_held_keys_the_index_no_longer_admits() {
        // The bootstrap read saw both records in the range; an update out of
        // it and a delete were retained before the subscription arrived.
        let mut h = harness(ClusterConfig::new(1, 1));
        h.send(write_event(Key::of("moved"), 2, Some(doc! { "status" => "s1", "price" => 5i64 })));
        h.send(write_event(Key::of("deleted"), 2, None));
        let spec =
            QuerySpec::filter("t", doc! { "status" => "s1", "price" => doc! { "$gte" => 10i64 } });
        let initial = ["moved", "deleted"]
            .map(|k| ResultItem::new(Key::of(k), 1, doc! { "status" => "s1", "price" => 20i64 }));
        h.send(subscribe_event(spec, 1, initial.to_vec()));
        assert_eq!(
            h.notifications().iter().map(change_of).collect::<Vec<_>>(),
            [(MatchType::Remove, Key::of("moved"), 2), (MatchType::Remove, Key::of("deleted"), 2)]
        );
    }

    /// Replay reads retained payloads: a new group and then a joiner, both
    /// handed the same initial result, are each sent exactly what replaying
    /// the decoded images sent them — whether the view holds the key, the
    /// index's test reads one attribute or two, or none (a scan-list
    /// query), arrays included. (A write that repeats a field never
    /// reaches a cell: the ingress rejects it.)
    #[test]
    fn replay_from_retained_payloads_sends_what_the_decoded_images_did() {
        use MatchType::{Add, Remove};
        fn check(
            spec: QuerySpec,
            held: &[&str],
            writes: Vec<Event>,
            sent: &[(MatchType, &str, Version)],
        ) {
            let mut h = harness(ClusterConfig::new(1, 1));
            for write in writes {
                h.send(write);
            }
            let initial: Vec<_> =
                held.iter().map(|k| ResultItem::new(Key::of(*k), 1, doc! { "n" => 50i64 })).collect();
            let case = spec.to_string();
            h.send(subscribe_event(spec.clone(), 1, initial.clone()));
            h.send(subscribe_event(spec, 2, initial));
            let expected: Vec<_> = [1, 2]
                .into_iter()
                .flat_map(|sub| sent.iter().map(move |&(t, k, v)| (sub, (t, Key::of(k), v))))
                .collect();
            let notes = h.notifications();
            assert_eq!(
                notes.iter().map(|n| (n.subscription.0, change_of(n))).collect::<Vec<_>>(),
                expected,
                "{case}"
            );
        }
        let write = |key: &str, doc| write_event(Key::of(key), 2, doc);
        let n = |n: i64| Some(doc! { "n" => n });
        let ints = |items: &[i64]| {
            Some(doc! { "n" => items.iter().map(|i| Value::Int(*i)).collect::<Vec<_>>() })
        };
        let at_least_ten = || QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        // A delete of a held key, and an update out of the range.
        check(at_least_ten(), &["k"], vec![write("k", None), write("x", None)], &[(Remove, "k", 2)]);
        check(at_least_ten(), &["k"], vec![write("k", n(1)), write("x", n(5))], &[(Remove, "k", 2)]);
        // An equality anchor with a residual range: two attributes read.
        let status = |s: &str, price: i64| Some(doc! { "status" => s, "price" => price });
        let spec =
            QuerySpec::filter("t", doc! { "status" => "s1", "price" => doc! { "$gte" => 10i64 } });
        let writes = vec![
            write("a", status("s1", 20)),
            write("b", status("s1", 5)),
            write("c", status("s2", 20)),
            write("d", status("s1", 5)),
        ];
        check(spec, &["d"], writes, &[(Add, "a", 2), (Remove, "d", 2)]);
        // A scan-list query: nothing read before the full decode.
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$ne" => 0i64 } });
        let writes = vec![write("a", n(1)), write("b", n(0)), write("c", Some(doc! { "m" => 3i64 }))];
        check(spec, &[], writes, &[(Add, "a", 2), (Add, "c", 2)]);
        // An array-valued anchor attribute, read through its envelope.
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gt" => 5i64, "$lt" => 9i64 } });
        let writes = vec![
            write("a", ints(&[4, 10])),
            write("b", ints(&[20, 30])),
            write("c", ints(&[])),
            write("d", ints(&[7])),
        ];
        check(spec, &[], writes, &[(Add, "a", 2), (Add, "d", 2)]);
    }

    #[test]
    fn replayed_transitions_carry_no_trace() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        let mut trace = TraceContext::start(7);
        trace.stamp(Stage::Ingestion);
        let img = image(Key::of("a"), 1, Some(doc! { "n" => 50i64 }));
        h.send(event_of(&AfterImage { trace: Some(trace), ..img }));
        let live = h.notifications();
        assert!(live[0].trace.as_ref().and_then(|t| t.at(Stage::Matching)).is_some());
        h.send(subscribe_event(spec, 2, vec![]));
        let replayed = h.notifications();
        assert_eq!(
            replayed.iter().map(|n| (n.subscription.0, change_of(n))).collect::<Vec<_>>(),
            [(2, (MatchType::Add, Key::of("a"), 1))]
        );
        assert!(replayed[0].trace.is_none(), "a replayed write is not on the live write's stage path");
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
        h.node.tick(h.clock.now());
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        let addressed: Vec<u64> = h.notifications().iter().map(|n| n.subscription.0).collect();
        assert_eq!(addressed, vec![2], "the lapsed subscription is no longer addressed");
        h.clock.advance(Duration::from_secs(60));
        h.node.tick(h.clock.now());
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

    pub(super) fn change_of(note: &Notification) -> (MatchType, Key, Version) {
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
        h.node.tick(h.clock.now());
        assert_eq!((h.node.active_queries(), h.node.retained_writes(), scopes(&h)), (0, 2, 2));
        // Past the retention horizon nothing is left to keep them for.
        h.clock.advance(h.node.config.retention + Duration::from_millis(1));
        h.node.tick(h.clock.now());
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
        h.node.tick(h.clock.now());
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
        // Without the index every write is evaluated against the query.
        let mut config = ClusterConfig::new(1, 1);
        config.multi_query_index = false;
        let mut h = harness(config);
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.send(subscribe_event(spec, 1, vec![]));
        // Ten inserts, five of them Adds, then one update out: a Remove.
        for i in 0..10 {
            h.send(write_event(Key::of(format!("k{i}").as_str()), 1, Some(doc! { "n" => i - 5 })));
        }
        h.send(write_event(Key::of("k9"), 2, Some(doc! { "n" => -1i64 })));
        // Counted on the group's handle: the log sees them with no tick.
        let top = h.node.config.metrics.slow_queries().top(4);
        assert_eq!(top.len(), 1, "one query counted");
        assert_eq!((top[0].evals, top[0].changes), (11, 6));
        assert_eq!(top[0].tenant, TENANT);
        assert!(!top[0].label.is_empty(), "label captured from the query spec");
    }

    #[test]
    fn an_unsubscribed_query_leaves_the_slow_query_log() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        h.send(subscribe_event(spec, 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        // Ticked as a running cell is: no tick brings a departed query back.
        h.node.tick(h.clock.now());
        let log = h.node.config.metrics.slow_queries();
        assert_eq!(log.top(4).iter().map(|e| e.query_hash).collect::<Vec<_>>(), [hash.0]);
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: hash,
        });
        h.node.tick(h.clock.now());
        assert!(log.top(4).is_empty(), "the query left with its last group");
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
        h.node.tick(h.clock.now());
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
        assert_eq!(envelopes.len(), 1, "one message per (write, match type), not per subscription");
        assert_eq!(
            envelopes[0].subscriptions,
            vec![SubscriptionId(1), SubscriptionId(2)],
            "addressed in one stable order"
        );
    }

    pub(super) fn at_least(n: i64) -> QuerySpec {
        QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => n } })
    }

    /// The change each envelope carries, with whom it is addressed to.
    fn addressed(envelopes: &[NotifyEnvelope]) -> Vec<(Vec<u64>, (MatchType, Key, Version))> {
        envelopes
            .iter()
            .map(|e| {
                let to = e.subscriptions.iter().map(|s| s.0).collect();
                let NotificationKind::Change(c) = &e.kind else { panic!("expected a change") };
                (to, (c.match_type, c.item.key.clone(), c.item.version))
            })
            .collect()
    }

    #[test]
    fn one_envelope_addresses_every_unsorted_query_a_write_moves_alike() {
        let mut h = harness(ClusterConfig::new(1, 1));
        h.send(subscribe_event(at_least(10), 3, vec![]));
        h.send(subscribe_event(at_least(10), 1, vec![]));
        h.send(subscribe_event(at_least(20), 2, vec![]));
        // A sorted query the same write reaches.
        let sorted = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        h.send(subscribe_event(sorted.clone(), 4, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 50i64 })));
        // The groups follow one another in hash order, each in id order.
        let mut groups =
            [(at_least(10).stable_hash(), vec![1, 3]), (at_least(20).stable_hash(), vec![2])];
        groups.sort();
        let to: Vec<u64> = groups.into_iter().flat_map(|(_, ids)| ids).collect();
        assert_eq!(addressed(&h.wire.envelopes()), [(to, (MatchType::Add, Key::of("a"), 1))]);
        let staged: Vec<_> = h.filter_changes().iter().map(|fc| (fc.query_hash, fc.kind)).collect();
        assert_eq!(staged, [(sorted.stable_hash(), FilterChangeKind::Add)], "still forwarded");
        let snap = h.node.config.metrics.snapshot();
        assert_eq!(snap.counters["notifier.published"], 3);
        assert_eq!(snap.counters["notifier.envelopes"], 1);
    }

    #[test]
    fn a_write_that_leaves_one_query_and_enters_another_sends_a_remove_and_an_add() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let range =
            |lo: i64| QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => lo, "$lt" => lo + 50 } });
        h.send(subscribe_event(range(0), 1, vec![]));
        h.send(subscribe_event(range(50), 2, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 10i64 })));
        h.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 60i64 })));
        assert_eq!(
            addressed(&h.wire.envelopes()),
            [
                (vec![1], (MatchType::Add, Key::of("a"), 1)),
                (vec![2], (MatchType::Add, Key::of("a"), 2)),
                (vec![1], (MatchType::Remove, Key::of("a"), 2)),
            ]
        );
    }

    #[test]
    fn replay_addresses_only_the_joiner_whatever_else_the_write_moved() {
        let mut h = harness(ClusterConfig::new(1, 1));
        h.send(subscribe_event(at_least(10), 1, vec![]));
        h.send(subscribe_event(at_least(20), 2, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 50i64 })));
        h.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 15i64 })));
        assert_eq!(h.wire.envelopes().len(), 2, "one envelope per live write");
        // The joiner's store read predates both writes.
        h.send(subscribe_event(at_least(10), 3, vec![]));
        assert_eq!(
            addressed(&h.wire.envelopes()),
            [(vec![3], (MatchType::Add, Key::of("a"), 1)), (vec![3], (MatchType::Add, Key::of("b"), 1)),]
        );
    }

    #[test]
    fn a_joiner_is_caught_up_by_the_writes_its_initial_result_predates() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        let initial = vec![ResultItem::new(Key::of("k1"), 1, doc! { "n" => 50i64 })];
        h.send(subscribe_event(spec.clone(), 1, initial.clone()));
        // Retained while the joiner's store read is on its way: k1 leaves
        // the filter, k2 enters it.
        h.send(write_event(Key::of("k1"), 2, Some(doc! { "n" => 1i64 })));
        h.send(write_event(Key::of("k2"), 1, Some(doc! { "n" => 20i64 })));
        assert_eq!(h.notifications().len(), 2, "the group's own subscriber is notified live");
        h.send(subscribe_event(spec, 2, initial));
        let caught_up: Vec<_> =
            h.notifications().iter().map(|n| (n.subscription.0, change_of(n))).collect();
        assert_eq!(
            caught_up,
            [(2, (MatchType::Remove, Key::of("k1"), 2)), (2, (MatchType::Add, Key::of("k2"), 1))]
        );
        // The joiner shares the group's result from here on.
        h.send(write_event(Key::of("k2"), 2, None));
        let addressed: Vec<_> =
            h.notifications().iter().map(|n| (n.subscription.0, change_of(n))).collect();
        assert_eq!(
            addressed,
            [1, 2].map(|sub| (sub, (MatchType::Remove, Key::of("k2"), 2))),
            "one result: k1 is not held twice, k2 leaves once"
        );
        assert_eq!(h.node.active_queries(), 1);
    }

    #[test]
    fn a_member_with_a_fresh_initial_result_is_replayed_and_a_silent_one_is_not() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 50i64 })));
        assert_eq!(h.notifications().len(), 1);
        // A re-subscription handed an initial result that predates the write.
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        assert_eq!(
            h.notifications().iter().map(|n| (n.subscription.0, change_of(n))).collect::<Vec<_>>(),
            [(1, (MatchType::Add, Key::of("a"), 1))]
        );
        // A silent re-registration was handed nothing to correct.
        let Event::Subscribe(req) = subscribe_event(spec, 1, vec![]) else { unreachable!() };
        h.send(Event::Subscribe(Arc::new(SubscriptionRequest { renewal: true, ..(*req).clone() })));
        assert!(h.notifications().is_empty());
        assert_eq!(h.node.active_queries(), 1);
    }

    /// A sorted joiner is replayed, as filter changes for its stage
    /// partition, the newest retained write of each key from before the
    /// group formed: the partition retained the later ones itself, and an
    /// older one would move the windows that have seen the newer back.
    #[test]
    fn a_sorted_joiner_is_replayed_the_newest_writes_from_before_the_group() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        h.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })));
        h.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 2i64 })));
        h.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 3i64 })));
        h.clock.advance(Duration::from_millis(1));
        h.send(subscribe_event(spec.clone(), 1, vec![]));
        h.clock.advance(Duration::from_millis(1));
        h.send(write_event(Key::of("c"), 1, Some(doc! { "n" => 4i64 })));
        assert_eq!(h.filter_changes().len(), 4, "the first subscription's replay, and c");
        let initial = vec![ResultItem::new(Key::of("b"), 1, doc! { "n" => 3i64 })];
        h.send(subscribe_event(spec, 2, initial));
        let replayed: Vec<_> =
            h.filter_changes().iter().map(|c| (c.header.key.clone(), c.header.version)).collect();
        assert_eq!(
            replayed,
            [(Key::of("a"), 2)],
            "the newest of each key it does not hold, from before"
        );
        assert!(h.notifications().is_empty(), "the partition publishes a sorted query's edits");
    }
}
