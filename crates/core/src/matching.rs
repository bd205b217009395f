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
use invalidb_obs::SlowQueryScratch;
use invalidb_query::{PreparedAtom, PreparedQuery};
use invalidb_stream::Task;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Key identifying a record across tenants and collections.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RecordId {
    tenant: TenantId,
    collection: String,
    key: Key,
}

/// Shared predicate evaluation (SharedDB-style): atomic predicate results
/// are memoized per write within one evaluation run, keyed by the atom's
/// hash-consed identity. A predicate shared by a thousand conjunctive
/// queries is evaluated once per write, not a thousand times.
#[derive(Default)]
struct PredCache {
    /// (predicate hash, write index within the run) → result.
    map: HashMap<(u64, u32), bool>,
    hits: u64,
}

impl PredCache {
    /// Starts a new run: prior writes' results no longer apply. Capacity is
    /// retained, so the steady state allocates nothing.
    fn begin_run(&mut self) {
        self.map.clear();
    }

    /// The conjunction of `atoms` over `doc`, memoized per (atom, write).
    /// Exactly equivalent to `prepared.matches(doc)` by the
    /// [`invalidb_query::PreparedQuery::conjuncts`] contract.
    fn eval_all(
        &mut self,
        atoms: &[PreparedAtom],
        write_idx: u32,
        doc: &invalidb_common::Document,
    ) -> bool {
        atoms.iter().all(|a| match self.map.entry((a.hash().0, write_idx)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => *e.insert(a.matches(doc)),
        })
    }

    fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }
}

/// One active query on this node (shared by all its subscriptions).
struct QueryGroup {
    tenant: TenantId,
    collection: String,
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
        /// Codec of the shuffled documents.
        codec: invalidb_json::WireCodec,
        /// `shuffle.egress`.
        published: Arc<AtomicU64>,
    },
}

/// What a transition needs on its way out of the cell, bundled so the
/// evaluation path borrows one field beside the query table.
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
            StagedOut::Shuffle { broker, topic, codec, published } => {
                broker.publish(topic, codec.encode(&change.to_document()));
                published.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }
}

/// One matching cell: a [`Task`] on its own thread.
pub struct MatchingNode {
    coord: GridCoord,
    grid: GridShape,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    out: Outputs,
    queries: HashMap<(TenantId, QueryHash), QueryGroup>,
    /// Multi-query index per (tenant, collection): maps a write to the
    /// candidate queries instead of evaluating all of them (thesis's
    /// multi-query optimization; disable via `ClusterConfig`).
    indexes: HashMap<(TenantId, String), QueryIndex<QueryHash>>,
    /// Inverted result membership: which queries currently contain a key.
    /// Needed alongside the index because an update can move a record *out*
    /// of a query's range — the new value no longer stabs that query.
    containing: HashMap<RecordId, Vec<QueryHash>>,
    /// Retained after-images, oldest first (§5.1 write-stream retention).
    retention: VecDeque<(Timestamp, Arc<AfterImage>)>,
    /// Newest seen version per record (staleness avoidance).
    latest_versions: HashMap<RecordId, Version>,
    /// Observability: dropped stale writes.
    stale_dropped: u64,
    /// Peak ingestion lag (write origin timestamp to matching evaluation)
    /// since the last tick, microseconds. Published as a gauge on tick.
    ingest_lag_us: u64,
    /// Locally accumulated slow-query charges, flushed to the shared log
    /// on tick so the per-evaluation hot path never takes its lock.
    slow_scratch: SlowQueryScratch,
    /// Reused buffer for the contiguous write runs of a scheduling turn.
    write_scratch: Vec<Arc<AfterImage>>,
    /// Shared predicate evaluation cache (cleared per evaluation run).
    pred_cache: PredCache,
    /// Reused candidate-pair buffer for the batched index probe.
    cand_pairs: Vec<(QueryHash, u32)>,
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
    /// `matching.dropped_stale`, `matching.write_batches` and this cell's
    /// `matching.<qp>x<wp>.*` gauges, resolved once as well.
    metric_dropped_stale: Arc<AtomicU64>,
    metric_write_batches: Arc<AtomicU64>,
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
            out: Outputs {
                publisher,
                staged,
                identity: config.worker_identity.clone(),
                matched: metrics.counter("matching.matched"),
                filtered: metrics.counter("matching.filtered"),
            },
            metric_dropped_stale: metrics.counter("matching.dropped_stale"),
            metric_write_batches: metrics.counter("matching.write_batches"),
            gauge_active_queries: metrics.gauge(&format!("{cell}.active_queries")),
            gauge_retained_writes: metrics.gauge(&format!("{cell}.retained_writes")),
            gauge_ingest_lag_us: metrics.gauge(&format!("{cell}.ingest_lag_us")),
            config,
            clock,
            queries: HashMap::new(),
            indexes: HashMap::new(),
            containing: HashMap::new(),
            retention: VecDeque::new(),
            latest_versions: HashMap::new(),
            stale_dropped: 0,
            ingest_lag_us: 0,
            slow_scratch: SlowQueryScratch::new(),
            write_scratch: Vec::new(),
            pred_cache: PredCache::default(),
            cand_pairs: Vec::new(),
            metric_indexed,
            metric_scanned,
            metric_eq_hits,
            metric_pred_hits,
            last_indexed: 0,
            last_scanned: 0,
        }
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let group_key = (req.tenant.clone(), req.query_hash);
        if let Some(group) = self.queries.get_mut(&group_key) {
            group.subscriptions.insert(req.subscription, expires_at);
            return;
        }
        let prepared = match self.config.engine.prepare(&req.spec) {
            Ok(p) => p,
            Err(e) => {
                // Unparseable query: report an error notification so the
                // subscription does not dangle silently.
                self.out.publisher.publish(EnvelopeRef {
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
            tenant: req.tenant.clone(),
            collection: req.spec.collection.clone(),
            spec_display: req.spec.to_string(),
            prepared,
            to_sorting: req.spec.needs_sorting_stage(),
            to_aggregation: req.spec.needs_aggregation_stage(),
            result,
            subscriptions: Subscribers::of(req.subscription, expires_at),
        };
        // Replay retained writes against the new query: closes the
        // write-subscription race (§5.1). Writes already reflected in the
        // initial result are skipped by the version guard.
        let retained: Vec<Arc<AfterImage>> = self
            .retention
            .iter()
            .filter(|(_, img)| img.tenant == group.tenant && img.collection == group.collection)
            .map(|(_, img)| Arc::clone(img))
            .collect();
        let hash = req.query_hash;
        if self.config.multi_query_index {
            self.indexes
                .entry((req.tenant.clone(), req.spec.collection.clone()))
                .or_default()
                .insert(hash, &req.spec.filter);
            for key in group.result.keys() {
                let record = RecordId {
                    tenant: group.tenant.clone(),
                    collection: group.collection.clone(),
                    key: key.clone(),
                };
                self.containing.entry(record).or_default().push(hash);
            }
        }
        for img in retained {
            self.pred_cache.begin_run();
            let transition = Self::match_against(
                &mut group,
                hash,
                &img,
                &self.out,
                &mut self.slow_scratch,
                &mut self.pred_cache,
                0,
            );
            self.note_transition(&img, hash, transition);
        }
        self.queries.insert(group_key, group);
    }

    /// Maintains the inverted result-membership map after a transition.
    fn note_transition(&mut self, img: &AfterImage, hash: QueryHash, kind: Option<FilterChangeKind>) {
        if !self.config.multi_query_index {
            return;
        }
        let record = RecordId {
            tenant: img.tenant.clone(),
            collection: img.collection.clone(),
            key: img.key.clone(),
        };
        match kind {
            Some(FilterChangeKind::Add) => {
                let list = self.containing.entry(record).or_default();
                if !list.contains(&hash) {
                    list.push(hash);
                }
            }
            Some(FilterChangeKind::Remove) => {
                if let Some(list) = self.containing.get_mut(&record) {
                    list.retain(|h| *h != hash);
                    if list.is_empty() {
                        self.containing.remove(&record);
                    }
                }
            }
            _ => {}
        }
    }

    /// Batched write evaluation — the mini-batch tentpole. Produces, per
    /// query and therefore per subscription, byte-identical notifications
    /// in the same order as feeding the writes one by one; only the
    /// cross-query interleaving may differ.
    ///
    /// Three phases:
    /// 1. sequential admission (staleness avoidance, retention, lag),
    ///    exactly as the serial path;
    /// 2. group surviving writes by `(tenant, collection)` and split each
    ///    group into distinct-key runs — within a run the `containing`
    ///    snapshot equals every serial per-write lookup, so one batched
    ///    index probe yields exactly the serial candidate sets;
    /// 3. evaluate each candidate query over its columnar slice of the
    ///    run (writes in arrival order), paying the query-table lookup,
    ///    clock reads and slow-query charge once per query per run
    ///    instead of once per (write, query) pair.
    fn handle_write_batch(&mut self, imgs: &[Arc<AfterImage>]) {
        // Phase 1 — admission, in arrival order.
        let mut live: Vec<&Arc<AfterImage>> = Vec::with_capacity(imgs.len());
        for img in imgs {
            let record = RecordId {
                tenant: img.tenant.clone(),
                collection: img.collection.clone(),
                key: img.key.clone(),
            };
            // Staleness avoidance: drop anything not newer than what we've
            // seen.
            match self.latest_versions.get(&record) {
                Some(&seen) if img.version <= seen => {
                    self.stale_dropped += 1;
                    self.metric_dropped_stale.fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                _ => {}
            }
            self.latest_versions.insert(record, img.version);
            self.retention.push_back((self.clock.now(), Arc::clone(img)));
            // Ingestion lag: how far behind the write's origin timestamp
            // this cell is running. Tracked as a peak here, published on
            // tick.
            let lag = now_micros().saturating_sub(img.written_at);
            self.ingest_lag_us = self.ingest_lag_us.max(lag);
            if let Some(cost) = self.config.synthetic_match_cost {
                // Emulates the paper's CPU throttling so saturation appears
                // at laptop-scale workloads; busy-wait per write to consume
                // executor time.
                let until = std::time::Instant::now() + cost * self.queries.len().max(1) as u32;
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            live.push(img);
        }
        if live.is_empty() {
            return;
        }
        if live.len() > 1 {
            self.metric_write_batches.fetch_add(1, AtomicOrdering::Relaxed);
        }
        if !self.config.multi_query_index {
            // Unindexed fallback: every same-(tenant, collection) query is
            // evaluated per write, as before — the shared predicate cache
            // still collapses atoms repeated across those queries.
            for img in live {
                self.pred_cache.begin_run();
                for ((_, hash), group) in self.queries.iter_mut() {
                    if group.tenant == img.tenant && group.collection == img.collection {
                        Self::match_against(
                            group,
                            *hash,
                            img,
                            &self.out,
                            &mut self.slow_scratch,
                            &mut self.pred_cache,
                            0,
                        );
                    }
                }
            }
            return;
        }
        // Phase 2 — group by (tenant, collection), preserving arrival order
        // within each group. A query belongs to exactly one group, so the
        // order of writes any single query observes is unchanged.
        let mut groups: Vec<(&TenantId, &str, Vec<&Arc<AfterImage>>)> = Vec::new();
        for img in live {
            match groups.iter_mut().find(|(t, c, _)| **t == img.tenant && *c == img.collection) {
                Some((_, _, writes)) => writes.push(img),
                None => groups.push((&img.tenant, &img.collection, vec![img])),
            }
        }
        for (tenant, collection, writes) in groups {
            // Distinct-key runs: an evaluation can move a record in or out
            // of a query's result, which changes the holder candidates of a
            // *later write to the same record*. Splitting at the first
            // repeated key keeps every run's `containing` snapshot exact.
            let mut start = 0;
            let mut seen: std::collections::HashSet<&Key> = std::collections::HashSet::new();
            for i in 0..writes.len() {
                if !seen.insert(&writes[i].key) {
                    self.process_run(tenant, collection, &writes[start..i]);
                    seen.clear();
                    seen.insert(&writes[i].key);
                    start = i;
                }
            }
            self.process_run(tenant, collection, &writes[start..]);
        }
    }

    /// Phase 3 of [`MatchingNode::handle_write_batch`]: one distinct-key
    /// run of one (tenant, collection) group — one index probe, then each
    /// candidate query's predicate over its columnar slice of the run.
    fn process_run(&mut self, tenant: &TenantId, collection: &str, writes: &[&Arc<AfterImage>]) {
        if writes.is_empty() {
            return;
        }
        let index = match self.indexes.get_mut(&(tenant.clone(), collection.to_owned())) {
            Some(index) => index,
            None => return, // no queries for this (tenant, collection)
        };
        let docs: Vec<Option<&invalidb_common::Document>> =
            writes.iter().map(|img| img.doc.as_ref()).collect();
        let mut pairs = std::mem::take(&mut self.cand_pairs);
        index.candidates_batch(&docs, &mut pairs);
        // Holder candidates: queries whose result currently contains the
        // record (covers moves out of range and deletes). Keys are distinct
        // within a run, so this snapshot equals the serial per-write lookup.
        for (w, img) in writes.iter().enumerate() {
            let record = RecordId {
                tenant: img.tenant.clone(),
                collection: img.collection.clone(),
                key: img.key.clone(),
            };
            if let Some(holders) = self.containing.get(&record) {
                pairs.extend(holders.iter().map(|h| (*h, w as u32)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        // Columnar evaluation: pairs are grouped by query hash with write
        // indices ascending, so each query sees its writes in arrival
        // order — per-subscription output is byte-identical to serial.
        // One predicate-memo run spans the whole run: a memoized atom
        // result is shared across every candidate query of each write.
        self.pred_cache.begin_run();
        let mut transitions: Vec<(u32, FilterChangeKind)> = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let hash = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == hash {
                j += 1;
            }
            match self.queries.get_mut(&(tenant.clone(), hash)) {
                Some(group) => {
                    let started = std::time::Instant::now();
                    for k in i..j {
                        let img = writes[pairs[k].1 as usize];
                        if let Some(kind) =
                            Self::evaluate(group, hash, img, &self.out, &mut self.pred_cache, pairs[k].1)
                        {
                            transitions.push((pairs[k].1, kind));
                        }
                    }
                    self.slow_scratch.charge_n(
                        &group.tenant.0,
                        hash.0,
                        || group.spec_display.clone(),
                        (j - i) as u64,
                        started.elapsed().as_micros() as u64,
                    );
                }
                None => {
                    // The query was cancelled/expired; lazily purge its
                    // membership entries so `containing` does not leak.
                    for k in i..j {
                        let img = writes[pairs[k].1 as usize];
                        let record = RecordId {
                            tenant: img.tenant.clone(),
                            collection: img.collection.clone(),
                            key: img.key.clone(),
                        };
                        if let Some(list) = self.containing.get_mut(&record) {
                            list.retain(|h| *h != hash);
                            if list.is_empty() {
                                self.containing.remove(&record);
                            }
                        }
                    }
                }
            }
            for (w, kind) in transitions.drain(..) {
                self.note_transition(writes[w as usize], hash, Some(kind));
            }
            i = j;
        }
        pairs.clear();
        self.cand_pairs = pairs;
    }

    /// Evaluates one write against one query, charging the wall-clock cost
    /// to this node's local slow-query scratch (flushed to the shared log
    /// on tick) so operators can see which query eats the grid.
    fn match_against(
        group: &mut QueryGroup,
        hash: QueryHash,
        img: &Arc<AfterImage>,
        out: &Outputs,
        scratch: &mut SlowQueryScratch,
        cache: &mut PredCache,
        write_idx: u32,
    ) -> Option<FilterChangeKind> {
        let started = std::time::Instant::now();
        let kind = Self::evaluate(group, hash, img, out, cache, write_idx);
        scratch.charge(
            &group.tenant.0,
            hash.0,
            || group.spec_display.clone(),
            started.elapsed().as_micros() as u64,
        );
        kind
    }

    /// Core filtering-stage transition logic. Returns the transition kind
    /// (None when the write was irrelevant or stale for this query).
    fn evaluate(
        group: &mut QueryGroup,
        hash: QueryHash,
        img: &Arc<AfterImage>,
        out: &Outputs,
        cache: &mut PredCache,
        write_idx: u32,
    ) -> Option<FilterChangeKind> {
        let old = group.result.get(&img.key).copied();
        if let Some(old_version) = old {
            if img.version <= old_version {
                return None; // stale relative to what this query already reflects
            }
        }
        // Shared predicate evaluation: conjunctive queries resolve each
        // atom through the per-run memo (identical result to
        // `prepared.matches` by the `conjuncts` contract); queries that
        // opt out of decomposition evaluate whole.
        let matches_now = img.doc.as_ref().is_some_and(|d| match group.prepared.conjuncts() {
            Some(atoms) => cache.eval_all(atoms, write_idx, d),
            None => group.prepared.matches(d),
        });
        let kind = match (old.is_some(), matches_now) {
            (false, true) => FilterChangeKind::Add,
            (true, true) => FilterChangeKind::Change,
            (true, false) => FilterChangeKind::Remove,
            (false, false) => {
                out.filtered.fetch_add(1, AtomicOrdering::Relaxed);
                return None; // irrelevant write: filtered out
            }
        };
        out.matched.fetch_add(1, AtomicOrdering::Relaxed);
        match kind {
            FilterChangeKind::Remove => {
                group.result.remove(&img.key);
            }
            _ => {
                group.result.insert(img.key.clone(), img.version);
            }
        }
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
                tenant: group.tenant.clone(),
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
                tenant: &group.tenant,
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

    fn handle_unsubscribe(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
    ) {
        if let Some(group) = self.queries.get_mut(&(tenant.clone(), query_hash)) {
            group.subscriptions.remove(subscription);
            if group.subscriptions.is_empty() {
                // Deactivated queries stop consuming resources (§5).
                let collection = group.collection.clone();
                self.queries.remove(&(tenant.clone(), query_hash));
                if let Some(index) = self.indexes.get_mut(&(tenant.clone(), collection)) {
                    index.remove(query_hash);
                }
            }
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
        if let Some(group) = self.queries.get_mut(&(tenant.clone(), query_hash)) {
            group.subscriptions.extend_ttl(subscription, now, ttl_micros);
        }
    }

    fn expire(&mut self) {
        let now = self.clock.now();
        // TTL enforcement: drop expired subscriptions, then empty groups.
        let indexes = &mut self.indexes;
        self.queries.retain(|(tenant, hash), group| {
            group.subscriptions.expire(now);
            let keep = !group.subscriptions.is_empty();
            if !keep {
                if let Some(index) = indexes.get_mut(&(tenant.clone(), group.collection.clone())) {
                    index.remove(*hash);
                }
            }
            keep
        });
        // Retention trimming.
        let horizon = self.config.retention;
        while let Some((t, _)) = self.retention.front() {
            if now.since(*t) > horizon {
                let (_, img) = self.retention.pop_front().expect("peeked");
                // Forget latest-version entries only when they refer to the
                // trimmed write (a newer one may have refreshed the record).
                let record = RecordId {
                    tenant: img.tenant.clone(),
                    collection: img.collection.clone(),
                    key: img.key.clone(),
                };
                if self.latest_versions.get(&record) == Some(&img.version) {
                    self.latest_versions.remove(&record);
                }
            } else {
                break;
            }
        }
    }

    /// Number of active query groups (tests/metrics).
    pub fn active_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of retained after-images (tests/metrics).
    pub fn retained_writes(&self) -> usize {
        self.retention.len()
    }

    /// Count of writes dropped by staleness avoidance.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }
}

impl MatchingNode {
    /// Handles one control event (writes go through the batch path).
    fn handle_control(&mut self, input: Event) {
        match input {
            Event::Subscribe(req) => self.handle_subscribe(&req),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            // Writes are batched by `handle`; filter changes are not
            // addressed to the filtering stage.
            Event::Write(_) | Event::FilterChange(_) => {}
        }
    }
}

impl Task<Event> for MatchingNode {
    fn handle(&mut self, batch: &mut Vec<Event>) {
        // Regroup the turn's contiguous write runs so each run shares one
        // index probe and one per-query dispatch. Control events flush the
        // pending run first: a subscribe between two writes must observe
        // exactly the writes before it.
        let mut writes = std::mem::take(&mut self.write_scratch);
        for event in batch.drain(..) {
            match event {
                Event::Write(img) => writes.push(img),
                other => {
                    if !writes.is_empty() {
                        self.handle_write_batch(&writes);
                        writes.clear();
                    }
                    self.handle_control(other);
                }
            }
        }
        if !writes.is_empty() {
            self.handle_write_batch(&writes);
            writes.clear();
        }
        self.write_scratch = writes;
    }

    fn tick(&mut self) {
        self.expire();
        self.slow_scratch.flush(&self.config.metrics.slow_queries());
        // Per-partition gauges, refreshed once per tick so the hot write
        // path never touches them.
        self.gauge_active_queries.store(self.queries.len() as u64, AtomicOrdering::Relaxed);
        self.gauge_retained_writes.store(self.retention.len() as u64, AtomicOrdering::Relaxed);
        self.gauge_ingest_lag_us.store(self.ingest_lag_us, AtomicOrdering::Relaxed);
        self.ingest_lag_us = 0;
        // Cluster-shared index/sharing series. The gauges are summed over
        // all cells, so each cell publishes its delta since the last tick;
        // the hit counters are drained.
        let mut indexed = 0u64;
        let mut scanned = 0u64;
        let mut eq_hits = 0u64;
        for index in self.indexes.values_mut() {
            indexed += index.indexed_len() as u64;
            scanned += index.scan_len() as u64;
            eq_hits += index.take_eq_lane_hits();
        }
        publish_gauge_delta(&self.metric_indexed, &mut self.last_indexed, indexed);
        publish_gauge_delta(&self.metric_scanned, &mut self.last_scanned, scanned);
        if eq_hits > 0 {
            self.metric_eq_hits.fetch_add(eq_hits, AtomicOrdering::Relaxed);
        }
        let pred_hits = self.pred_cache.take_hits();
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
            self.node.handle(&mut vec![event]);
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
                codec: config.wire_codec,
                published: config.metrics.counter("shuffle.egress"),
            },
        );
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        node.handle(&mut vec![
            subscribe_event(spec.clone(), 1, vec![]),
            write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 })),
        ]);
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
    fn batched_writes_equal_serial_per_subscription() {
        // Two identically subscribed cells: one handles writes one by one,
        // the other gets them as a single turn. Output per subscription
        // (and per query hash for staged queries) must be byte-identical,
        // including under moves-out-of-range, deletes, duplicate keys
        // (forcing run splits) and a second collection.
        let mut serial = harness(ClusterConfig::new(1, 1));
        let mut batched = harness(ClusterConfig::new(1, 1));
        let subs = [
            subscribe_event(QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } }), 1, vec![]),
            subscribe_event(
                QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3),
                2,
                vec![],
            ),
            subscribe_event(QuerySpec::filter("u", doc! { "n" => doc! { "$lt" => 0i64 } }), 3, vec![]),
        ];
        let writes = [
            write_event(Key::of("a"), 1, Some(doc! { "n" => 15i64 })), // add
            write_event(Key::of("b"), 1, Some(doc! { "n" => 5i64 })),  // filtered (sub 1)
            write_event(Key::of("a"), 2, Some(doc! { "n" => 20i64 })), // change, dup key
            write_event(Key::of("a"), 3, Some(doc! { "n" => 1i64 })),  // move out of range
            write_event(Key::of("b"), 2, None),                        // delete
            write_event(Key::of("a"), 3, Some(doc! { "n" => 99i64 })), // stale (dropped)
            write_to(TENANT, "u", Key::of("z"), 1, -4),
        ];
        for event in subs.iter().chain(&writes) {
            serial.send(event.clone());
        }
        batched.node.handle(&mut subs.iter().chain(&writes).cloned().collect());

        let per_sub = |notes: &[Notification], sub: u64| -> Vec<Notification> {
            notes.iter().filter(|n| n.subscription.0 == sub).cloned().collect()
        };
        let (out_serial, out_batched) = (serial.notifications(), batched.notifications());
        assert!(!out_serial.is_empty());
        for sub in [1u64, 2, 3] {
            assert_eq!(per_sub(&out_serial, sub), per_sub(&out_batched, sub), "subscription {sub}");
        }
        let (serial_fc, batched_fc) = (serial.filter_changes(), batched.filter_changes());
        assert!(!serial_fc.is_empty());
        assert_eq!(serial_fc.len(), batched_fc.len());
        for (a, b) in serial_fc.iter().zip(&batched_fc) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.version, b.version);
            assert_eq!(a.doc, b.doc);
        }
        assert_eq!(serial.node.stale_dropped(), batched.node.stale_dropped());
        assert_eq!(serial.node.retained_writes(), batched.node.retained_writes());
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
