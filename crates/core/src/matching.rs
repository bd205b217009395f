//! The matching node — one cell of the QP × WP filtering-stage grid (§5.1).
//!
//! A matching node at grid coordinate `(qp, wp)` holds the queries of query
//! partition `qp` and sees the after-images of write partition `wp`. For
//! every incoming after-image it evaluates all of its queries, compares the
//! new matching status against the former one, and emits the transition:
//!
//! * unsorted filter queries are self-maintainable — the node emits one
//!   finished change notification per (write, query), addressed to all of
//!   the query's subscriptions, straight to the notifier;
//! * sorted queries emit [`FilterChange`]s to the sorting stage, and only
//!   for items that match or just ceased matching — everything else is
//!   filtered out here, slashing downstream throughput (§5.2).
//!
//! The node also implements **write-stream retention** and **staleness
//! avoidance**: received after-images are buffered for a configurable time
//! and replayed against newly subscribed queries (fixing the
//! write-subscription race), and any write older than the newest seen
//! version of the same record is dropped (§5.1).

use crate::config::{ClusterConfig, WorkerIdentity};
use crate::event::{Event, FilterChange, FilterChangeKind, OutChange, OutMsg, OutNotify, WriteBatch};
use crate::query_index::QueryIndex;
use invalidb_common::trace::now_micros;
use invalidb_common::{
    AfterImage, Clock, GridCoord, GridShape, Key, MatchType, NotificationKind, QueryHash, Stage,
    SubscriptionId, SubscriptionRequest, TenantId, Timestamp, TraceContext, Version,
};
use invalidb_obs::{MetricsRegistry, SlowQueryScratch};
use invalidb_query::{PreparedAtom, PreparedQuery};
use invalidb_stream::{Bolt, BoltContext};
use std::collections::{BTreeMap, HashMap, VecDeque};
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
    fn eval_all(&mut self, atoms: &[PreparedAtom], write_idx: u32, doc: &invalidb_common::Document) -> bool {
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
    /// True when downstream stages (sorting/aggregation) consume this
    /// query's transitions; false for self-maintainable filter queries.
    staged: bool,
    /// This node's partition of the currently matching keys (filtering-stage
    /// result state). For sorted queries this is the *matching status* of
    /// keys within the bootstrap horizon, not the client-visible result.
    result: HashMap<Key, Version>,
    /// The query's subscriptions, each with its TTL deadline. Ordered, so
    /// that notifications address them in one stable order.
    subscriptions: BTreeMap<SubscriptionId, Timestamp>,
}

/// The matching-node bolt.
pub struct MatchingNode {
    coord: GridCoord,
    grid: GridShape,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
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
    /// Reused mini-batch buffer for [`Bolt::execute_batch`] turns.
    write_scratch: WriteBatch,
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
}

impl MatchingNode {
    /// Creates the node for task index `task` in the grid.
    pub fn new(task: usize, grid: GridShape, config: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let metric_indexed = config.metrics.gauge("matching.index.indexed_queries");
        let metric_scanned = config.metrics.gauge("matching.index.scanned_queries");
        let metric_eq_hits = config.metrics.counter("matching.index.eq_lane_hits");
        let metric_pred_hits = config.metrics.counter("matching.index.pred_cache_hits");
        Self {
            coord: grid.coord_of(task),
            grid,
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
            write_scratch: WriteBatch::default(),
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

    fn handle_subscribe(&mut self, req: &SubscriptionRequest, ctx: &mut BoltContext<'_, Event>) {
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
                ctx.emit(Event::Out(Arc::new(OutMsg::Notify(OutNotify {
                    tenant: req.tenant.clone(),
                    subscriptions: vec![req.subscription],
                    change: OutChange::Kind(NotificationKind::Error(
                        invalidb_common::MaintenanceError { reason: format!("query rejected: {e}") },
                    )),
                    caused_by_write_at: 0,
                    trace: None,
                }))));
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
            staged: req.spec.needs_sorting_stage() || req.spec.needs_aggregation_stage(),
            result,
            subscriptions: BTreeMap::from([(req.subscription, expires_at)]),
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
                &self.config.metrics,
                self.config.worker_identity.as_ref(),
                &mut self.slow_scratch,
                &mut self.pred_cache,
                0,
                ctx,
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

    fn handle_write(&mut self, img: &Arc<AfterImage>, ctx: &mut BoltContext<'_, Event>) {
        // Single writes are a batch of one: the same code path computes
        // exactly the serial candidates (index stab ∪ containing holders).
        self.handle_write_batch(std::slice::from_ref(img), ctx);
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
    fn handle_write_batch(&mut self, imgs: &[Arc<AfterImage>], ctx: &mut BoltContext<'_, Event>) {
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
                    self.config.metrics.inc("matching.dropped_stale");
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
            self.config.metrics.inc("matching.write_batches");
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
                            &self.config.metrics,
                            self.config.worker_identity.as_ref(),
                            &mut self.slow_scratch,
                            &mut self.pred_cache,
                            0,
                            ctx,
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
                    self.process_run(tenant, collection, &writes[start..i], ctx);
                    seen.clear();
                    seen.insert(&writes[i].key);
                    start = i;
                }
            }
            self.process_run(tenant, collection, &writes[start..], ctx);
        }
    }

    /// Phase 3 of [`MatchingNode::handle_write_batch`]: one distinct-key
    /// run of one (tenant, collection) group — one index probe, then each
    /// candidate query's predicate over its columnar slice of the run.
    fn process_run(
        &mut self,
        tenant: &TenantId,
        collection: &str,
        writes: &[&Arc<AfterImage>],
        ctx: &mut BoltContext<'_, Event>,
    ) {
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
                        if let Some(kind) = Self::evaluate(
                            group,
                            hash,
                            img,
                            &self.config.metrics,
                            self.config.worker_identity.as_ref(),
                            &mut self.pred_cache,
                            pairs[k].1,
                            ctx,
                        ) {
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
        metrics: &MetricsRegistry,
        identity: Option<&WorkerIdentity>,
        scratch: &mut SlowQueryScratch,
        cache: &mut PredCache,
        write_idx: u32,
        ctx: &mut BoltContext<'_, Event>,
    ) -> Option<FilterChangeKind> {
        let started = std::time::Instant::now();
        let kind = Self::evaluate(group, hash, img, metrics, identity, cache, write_idx, ctx);
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
        metrics: &MetricsRegistry,
        identity: Option<&WorkerIdentity>,
        cache: &mut PredCache,
        write_idx: u32,
        ctx: &mut BoltContext<'_, Event>,
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
                metrics.inc("matching.filtered");
                return None; // irrelevant write: filtered out
            }
        };
        metrics.inc("matching.matched");
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
            match identity {
                Some(id) => id.stamp(&mut t, Stage::Matching),
                None => t.stamp(Stage::Matching),
            }
            t
        });
        if group.staged {
            // Sorted/aggregate queries: pass the transition downstream.
            ctx.emit(Event::FilterChange(Arc::new(FilterChange {
                tenant: group.tenant.clone(),
                query_hash: hash,
                kind,
                key: img.key.clone(),
                version: img.version,
                doc: img.doc.clone(),
                written_at: img.written_at,
                trace,
            })));
        } else {
            // Self-maintainable queries: one finished notification for
            // the whole group, pointing at the write instead of copying it.
            let match_type = match kind {
                FilterChangeKind::Add => MatchType::Add,
                FilterChangeKind::Change => MatchType::Change,
                FilterChangeKind::Remove => MatchType::Remove,
            };
            ctx.emit(Event::Out(Arc::new(OutMsg::Notify(OutNotify {
                tenant: group.tenant.clone(),
                subscriptions: group.subscriptions.keys().copied().collect(),
                change: OutChange::Write { match_type, image: Arc::clone(img) },
                caused_by_write_at: img.written_at,
                trace,
            }))));
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
            group.subscriptions.remove(&subscription);
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
            if let Some(expires_at) = group.subscriptions.get_mut(&subscription) {
                *expires_at = now.after(std::time::Duration::from_micros(ttl_micros));
            }
        }
    }

    fn expire(&mut self) {
        let now = self.clock.now();
        // TTL enforcement: drop expired subscriptions, then empty groups.
        let indexes = &mut self.indexes;
        self.queries.retain(|(tenant, hash), group| {
            group.subscriptions.retain(|_, expires_at| *expires_at > now);
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

impl Bolt<Event> for MatchingNode {
    fn execute(&mut self, input: Event, ctx: &mut BoltContext<'_, Event>) {
        match input {
            Event::Subscribe(req) => self.handle_subscribe(&req, ctx),
            Event::Write(img) => self.handle_write(&img, ctx),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            // Not addressed to the filtering stage.
            Event::FilterChange(_) | Event::Out(_) => {}
        }
    }

    fn execute_batch(&mut self, inputs: &mut Vec<Event>, ctx: &mut BoltContext<'_, Event>) {
        // Regroup the turn's contiguous write runs into a `WriteBatch` so
        // each run shares one index probe and one per-query dispatch.
        // Control events flush the pending run first: a subscribe between
        // two writes must observe exactly the writes before it.
        let mut batch = std::mem::take(&mut self.write_scratch);
        for event in inputs.drain(..) {
            match event {
                Event::Write(img) => batch.push(img),
                other => {
                    if !batch.is_empty() {
                        self.handle_write_batch(batch.writes(), ctx);
                        batch.clear();
                    }
                    self.execute(other, ctx);
                }
            }
        }
        if !batch.is_empty() {
            self.handle_write_batch(batch.writes(), ctx);
            batch.clear();
        }
        self.write_scratch = batch;
    }

    fn tick(&mut self, _ctx: &mut BoltContext<'_, Event>) {
        self.expire();
        self.slow_scratch.flush(&self.config.metrics.slow_queries());
        // Per-partition gauges, refreshed once per tick so the hot write
        // path never touches the registry maps.
        let cell = format!("matching.{}x{}", self.coord.qp, self.coord.wp);
        self.config.metrics.set_gauge(&format!("{cell}.active_queries"), self.queries.len() as u64);
        self.config.metrics.set_gauge(&format!("{cell}.retained_writes"), self.retention.len() as u64);
        self.config.metrics.set_gauge(&format!("{cell}.ingest_lag_us"), self.ingest_lag_us);
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
    use invalidb_common::{doc, MockClock, Notification, QuerySpec, ResultItem, SortDirection};
    use invalidb_stream::{Grouping, Source, TopologyBuilder};
    use parking_lot::Mutex;
    use std::time::Duration;

    /// Runs a single matching node standalone inside a tiny topology and
    /// collects its emissions.
    struct Harness {
        tx: crossbeam::channel::Sender<Event>,
        out: Arc<Mutex<Vec<Event>>>,
        clock: MockClock,
        _topo: invalidb_stream::RunningTopology,
    }

    struct ChanSource(crossbeam::channel::Receiver<Event>);
    impl Source<Event> for ChanSource {
        fn poll(&mut self, timeout: Duration) -> Vec<Event> {
            match self.0.recv_timeout(timeout) {
                Ok(e) => {
                    let mut out = vec![e];
                    out.extend(self.0.try_iter());
                    out
                }
                Err(_) => Vec::new(),
            }
        }
    }

    struct Collector(Arc<Mutex<Vec<Event>>>);
    impl Bolt<Event> for Collector {
        fn execute(&mut self, input: Event, _ctx: &mut BoltContext<'_, Event>) {
            self.0.lock().push(input);
        }
    }

    fn harness(config: ClusterConfig) -> Harness {
        let (tx, rx) = crossbeam::channel::unbounded();
        let out = Arc::new(Mutex::new(Vec::new()));
        let clock = MockClock::new();
        let grid = GridShape::new(1, 1);
        let mut b = TopologyBuilder::new();
        b.add_source("src", ChanSource(rx));
        let clock2 = clock.clone();
        let cfg = config.clone();
        b.add_bolt("node", 1, move |task| {
            Box::new(MatchingNode::new(task, grid, cfg.clone(), Arc::new(clock2.clone())))
        });
        let out2 = Arc::clone(&out);
        b.add_bolt("sink", 1, move |_| Box::new(Collector(Arc::clone(&out2))));
        b.connect("src", "node", Grouping::Broadcast);
        b.connect("node", "sink", Grouping::Shuffle);
        Harness { tx, out, clock, _topo: b.start() }
    }

    fn subscribe_event(spec: QuerySpec, sub: u64, initial: Vec<ResultItem>) -> Event {
        Event::Subscribe(Arc::new(SubscriptionRequest {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec,
            initial,
            slack: 2,
            ttl_micros: 60_000_000,
            renewal: false,
        }))
    }

    fn write_event(key: Key, version: Version, doc: Option<invalidb_common::Document>) -> Event {
        Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new("app"),
            collection: "t".into(),
            key,
            version,
            doc,
            written_at: 42,
            trace: None,
        }))
    }

    fn wait_events(h: &Harness, n: usize) -> Vec<Event> {
        for _ in 0..400 {
            if h.out.lock().len() >= n {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        h.out.lock().clone()
    }

    /// Every emitted notification as each of its addressees sees it.
    fn notifications(events: &[Event]) -> Vec<Notification> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Out(msg) => match &**msg {
                    OutMsg::Notify(n) => Some(n),
                    _ => None,
                },
                _ => None,
            })
            .flat_map(OutNotify::notifications)
            .collect()
    }

    #[test]
    fn unsorted_query_lifecycle() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        // add: matching insert
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 15i64 }))).unwrap();
        // filtered: non-matching insert
        h.tx.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 5i64 }))).unwrap();
        // change: still matching
        h.tx.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 20i64 }))).unwrap();
        // remove: update out of the result
        h.tx.send(write_event(Key::of("a"), 3, Some(doc! { "n" => 1i64 }))).unwrap();
        let notes = notifications(&wait_events(&h, 3));
        let kinds: Vec<MatchType> = notes
            .iter()
            .filter_map(|n| match &n.kind {
                NotificationKind::Change(c) => Some(c.match_type),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![MatchType::Add, MatchType::Change, MatchType::Remove]);
        assert_eq!(notes[0].caused_by_write_at, 42);
    }

    #[test]
    fn sorted_query_emits_filter_changes() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3);
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        let events = wait_events(&h, 1);
        let fcs: Vec<&FilterChange> = events
            .iter()
            .filter_map(|e| match e {
                Event::FilterChange(fc) => Some(&**fc),
                _ => None,
            })
            .collect();
        assert_eq!(fcs.len(), 1);
        assert_eq!(fcs[0].kind, FilterChangeKind::Add);
        assert!(notifications(&events).is_empty(), "sorted queries do not notify directly");
    }

    #[test]
    fn stale_writes_are_dropped() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        h.tx.send(write_event(Key::of("a"), 2, Some(doc! { "n" => 2i64 }))).unwrap();
        // Older version arrives late (event-layer skew): must be ignored.
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let notes = notifications(&h.out.lock().clone());
        assert_eq!(notes.len(), 1, "only the newer write notifies");
    }

    #[test]
    fn retention_replay_closes_write_subscription_race() {
        let h = harness(ClusterConfig::new(1, 1));
        // Write arrives BEFORE the subscription (and is not reflected in the
        // initial result): retention replay must catch it.
        h.tx.send(write_event(Key::of("early"), 1, Some(doc! { "n" => 99i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        let notes = notifications(&wait_events(&h, 1));
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
        let h = harness(ClusterConfig::new(1, 1));
        // The write is already reflected in the initial result (same
        // version): replay must NOT double-notify.
        h.tx.send(write_event(Key::of("seen"), 3, Some(doc! { "n" => 50i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } });
        let initial = vec![ResultItem::new(Key::of("seen"), 3, doc! { "n" => 50i64 })];
        h.tx.send(subscribe_event(spec, 1, initial)).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(notifications(&h.out.lock().clone()).is_empty());
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let hash = spec.stable_hash();
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        wait_events(&h, 1);
        h.tx.send(Event::Unsubscribe {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(1),
            query_hash: hash,
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        h.tx.send(write_event(Key::of("b"), 1, Some(doc! { "n" => 2i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(notifications(&h.out.lock().clone()).len(), 1, "no notification after cancel");
    }

    #[test]
    fn ttl_expiry_deactivates_queries() {
        let mut cfg = ClusterConfig::new(1, 1);
        cfg.tick_interval = Duration::from_millis(10);
        let h = harness(cfg);
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let mut req = match subscribe_event(spec, 1, vec![]) {
            Event::Subscribe(r) => (*r).clone(),
            _ => unreachable!(),
        };
        req.ttl_micros = 1_000; // 1ms TTL
        h.tx.send(Event::Subscribe(Arc::new(req))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        h.clock.advance(Duration::from_secs(1)); // well past TTL
        std::thread::sleep(Duration::from_millis(200)); // ticks run expiry
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(notifications(&h.out.lock().clone()).is_empty(), "expired query must not match");
    }

    #[test]
    fn multi_tenant_isolation() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap(); // tenant "app"
                                                              // Write from another tenant: same collection name, must not match.
        h.tx.send(Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new("other"),
            collection: "t".into(),
            key: Key::of("x"),
            version: 1,
            doc: Some(doc! { "n" => 5i64 }),
            written_at: 0,
            trace: None,
        })))
        .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(notifications(&h.out.lock().clone()).is_empty());
    }

    #[test]
    fn collection_isolation() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        h.tx.send(Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new("app"),
            collection: "other_collection".into(),
            key: Key::of("x"),
            version: 1,
            doc: Some(doc! { "n" => 5i64 }),
            written_at: 0,
            trace: None,
        })))
        .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert!(notifications(&h.out.lock().clone()).is_empty());
    }

    #[test]
    fn delete_of_matching_item_notifies_remove() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        let initial = vec![ResultItem::new(Key::of("a"), 1, doc! { "n" => 1i64 })];
        h.tx.send(subscribe_event(spec, 1, initial)).unwrap();
        h.tx.send(write_event(Key::of("a"), 2, None)).unwrap();
        let notes = notifications(&wait_events(&h, 1));
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
    fn slow_query_log_charges_evaluations() {
        let cfg = ClusterConfig::new(1, 1);
        let metrics = cfg.metrics.clone();
        let h = harness(cfg);
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.tx.send(subscribe_event(spec, 1, vec![])).unwrap();
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        wait_events(&h, 1);
        // Charges are accumulated locally and only reach the shared log on
        // the node's next tick, so poll for the flush.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let top = loop {
            let top = metrics.slow_queries().top(4);
            if !top.is_empty() {
                break top;
            }
            assert!(std::time::Instant::now() < deadline, "charges never flushed");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(top.len(), 1, "one query charged");
        assert!(top[0].evals >= 1);
        assert_eq!(top[0].tenant, "app");
        assert!(!top[0].label.is_empty(), "label captured from the query spec");
    }

    #[test]
    fn batched_writes_equal_serial_per_subscription() {
        use invalidb_stream::run_with_collector;
        // Two identically subscribed nodes: one executes writes one by one,
        // the other gets them as a single execute_batch turn. Output per
        // subscription (and per query hash for staged queries) must be
        // byte-identical, including under moves-out-of-range, deletes,
        // duplicate keys (forcing run splits) and a second collection.
        let grid = GridShape::new(1, 1);
        let cfg = ClusterConfig::new(1, 1);
        let clock = MockClock::new();
        let mut serial = MatchingNode::new(0, grid, cfg.clone(), Arc::new(clock.clone()));
        let mut batched = MatchingNode::new(0, grid, cfg, Arc::new(clock.clone()));
        let subs = vec![
            subscribe_event(QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 10i64 } }), 1, vec![]),
            subscribe_event(
                QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(3),
                2,
                vec![],
            ),
            subscribe_event(QuerySpec::filter("u", doc! { "n" => doc! { "$lt" => 0i64 } }), 3, vec![]),
        ];
        let mut writes = vec![
            write_event(Key::of("a"), 1, Some(doc! { "n" => 15i64 })), // add
            write_event(Key::of("b"), 1, Some(doc! { "n" => 5i64 })),  // filtered (sub 1)
            write_event(Key::of("a"), 2, Some(doc! { "n" => 20i64 })), // change, dup key
            write_event(Key::of("a"), 3, Some(doc! { "n" => 1i64 })),  // move out of range
            write_event(Key::of("b"), 2, None),                        // delete
            write_event(Key::of("a"), 3, Some(doc! { "n" => 99i64 })), // stale (dropped)
        ];
        writes.push(Event::Write(Arc::new(AfterImage {
            tenant: TenantId::new("app"),
            collection: "u".into(),
            key: Key::of("z"),
            version: 1,
            doc: Some(doc! { "n" => -4i64 }),
            written_at: 42,
            trace: None,
        })));
        let mut out_serial = Vec::new();
        run_with_collector(&mut out_serial, |ctx| {
            for sub in &subs {
                serial.execute(sub.clone(), ctx);
            }
            for w in &writes {
                serial.execute(w.clone(), ctx);
            }
        });
        let mut out_batched = Vec::new();
        run_with_collector(&mut out_batched, |ctx| {
            let mut turn: Vec<Event> = subs.iter().chain(writes.iter()).cloned().collect();
            batched.execute_batch(&mut turn, ctx);
        });
        let per_sub = |events: &[Event], sub: u64| -> Vec<Notification> {
            notifications(events).into_iter().filter(|n| n.subscription.0 == sub).collect()
        };
        for sub in [1u64, 2, 3] {
            assert_eq!(per_sub(&out_serial, sub), per_sub(&out_batched, sub), "subscription {sub}");
        }
        let changes = |events: &[Event]| -> Vec<FilterChange> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::FilterChange(fc) => Some((**fc).clone()),
                    _ => None,
                })
                .collect()
        };
        let serial_fc = changes(&out_serial);
        assert_eq!(serial_fc.len(), changes(&out_batched).len());
        for (a, b) in serial_fc.iter().zip(changes(&out_batched).iter()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.version, b.version);
            assert_eq!(a.doc, b.doc);
        }
        assert_eq!(serial.stale_dropped(), batched.stale_dropped());
        assert_eq!(serial.retained_writes(), batched.retained_writes());
    }

    #[test]
    fn two_subscriptions_same_query_both_notified() {
        let h = harness(ClusterConfig::new(1, 1));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        h.tx.send(subscribe_event(spec.clone(), 1, vec![])).unwrap();
        h.tx.send(subscribe_event(spec, 2, vec![])).unwrap();
        h.tx.send(write_event(Key::of("a"), 1, Some(doc! { "n" => 1i64 }))).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let events = wait_events(&h, 1);
        assert_eq!(events.len(), 1, "one message per (write, query), not per subscription");
        let subs: std::collections::HashSet<u64> =
            notifications(&events).iter().map(|n| n.subscription.0).collect();
        assert_eq!(subs, std::collections::HashSet::from([1, 2]));
    }
}
