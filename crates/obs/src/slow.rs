//! The slow-query log: per-query latency/match-cost accounting.
//!
//! Thousands of continuous queries share one matching grid (the SharedDB
//! problem): when the pipeline slows down, the operator's first question
//! is *which query is eating the grid*. The matching and sorting stages
//! feed per-query evaluation costs here; the log keeps a bounded table
//! keyed by `(tenant, query hash)` and reports the top offenders by
//! cumulative cost.

use invalidb_common::trace::now_micros;
use invalidb_common::Document;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default maximum number of distinct queries tracked.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 512;

/// Accumulated cost accounting for one continuous query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowQueryEntry {
    /// Owning tenant (app-server id).
    pub tenant: String,
    /// The query's hash (`QueryHash` raw value).
    pub query_hash: u64,
    /// Human-readable query label (collection + predicate display),
    /// captured on first sighting.
    pub label: String,
    /// Number of evaluations charged to this query.
    pub evals: u64,
    /// Total microseconds spent evaluating this query.
    pub total_us: u64,
    /// Most expensive single evaluation, microseconds.
    pub max_us: u64,
    /// Cost of the most recent evaluation, microseconds.
    pub last_us: u64,
    /// Wall-clock microseconds of the most recent evaluation.
    pub last_seen_micros: u64,
}

impl SlowQueryEntry {
    /// Mean cost per evaluation, rounded, in microseconds.
    pub fn mean_us(&self) -> u64 {
        if self.evals == 0 {
            0
        } else {
            (self.total_us as f64 / self.evals as f64).round() as u64
        }
    }

    /// Encodes the entry as a document (the JSON object model).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(9);
        d.insert("tenant", self.tenant.as_str());
        d.insert("query_hash", self.query_hash as i64);
        d.insert("label", self.label.as_str());
        d.insert("evals", self.evals as i64);
        d.insert("total_us", self.total_us as i64);
        d.insert("mean_us", self.mean_us() as i64);
        d.insert("max_us", self.max_us as i64);
        d.insert("last_us", self.last_us as i64);
        d.insert("last_seen_micros", self.last_seen_micros as i64);
        d
    }
}

/// The evaluations charged to one query since they were last recorded.
#[derive(Clone, Copy)]
struct Cost {
    evals: u64,
    total_us: u64,
    max_us: u64,
    last_us: u64,
}

impl Cost {
    fn one(cost_us: u64) -> Cost {
        Cost { evals: 1, total_us: cost_us, max_us: cost_us, last_us: cost_us }
    }

    fn add(&mut self, cost_us: u64) {
        self.evals += 1;
        self.total_us += cost_us;
        self.max_us = self.max_us.max(cost_us);
        self.last_us = cost_us;
    }
}

/// The tracked queries: a binary min-heap on `total_us`, so the entry a
/// newcomer evicts is the root, and a per-tenant, per-hash map to each
/// entry's place in it, probed with what the caller holds (`&str`, `u64`),
/// so a charge to a tracked query copies nothing. Totals only grow, so an
/// update moves its entry towards the leaves and never up.
#[derive(Default)]
struct Table {
    heap: Vec<SlowQueryEntry>,
    at: HashMap<String, HashMap<u64, usize>>,
}

impl Table {
    /// Adds `cost` to the query's entry. A query seen for the first time
    /// gets an entry, evicting the cheapest one when the table is full; the
    /// evicted entry's strings are reused for the newcomer's tenant and the
    /// label `label` writes.
    fn record(
        &mut self,
        capacity: usize,
        tenant: &str,
        query_hash: u64,
        label: impl FnOnce(&mut String),
        cost: Cost,
        now: u64,
    ) {
        if let Some(&i) = self.at.get(tenant).and_then(|of_tenant| of_tenant.get(&query_hash)) {
            let e = &mut self.heap[i];
            e.evals += cost.evals;
            e.total_us += cost.total_us;
            e.max_us = e.max_us.max(cost.max_us);
            e.last_us = cost.last_us;
            e.last_seen_micros = now;
            self.sift_down(i);
            return;
        }
        let fill = |entry: &mut SlowQueryEntry| {
            entry.tenant.clear();
            entry.tenant.push_str(tenant);
            entry.query_hash = query_hash;
            entry.label.clear();
            label(&mut entry.label);
            entry.evals = cost.evals;
            entry.total_us = cost.total_us;
            entry.max_us = cost.max_us;
            entry.last_us = cost.last_us;
            entry.last_seen_micros = now;
        };
        if self.heap.len() >= capacity {
            // The newcomer takes the cheapest entry's place at the root.
            let root = &mut self.heap[0];
            unmap(&mut self.at, &root.tenant, root.query_hash);
            fill(root);
            self.sift_down(0);
        } else {
            let mut entry = SlowQueryEntry::default();
            fill(&mut entry);
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    fn remove(&mut self, tenant: &str, query_hash: u64) {
        let Some(i) = unmap(&mut self.at, tenant, query_hash) else { return };
        self.heap.swap_remove(i);
        if i < self.heap.len() {
            self.place(i);
        }
    }

    /// Moves the entry at `i` to where the heap order wants it.
    fn place(&mut self, i: usize) {
        let i = self.sift_up(i);
        self.sift_down(i);
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].total_us <= self.heap[i].total_us {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        self.note(i);
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            for child in [l, r] {
                if child < self.heap.len() && self.heap[child].total_us < self.heap[least].total_us {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.swap(i, least);
            i = least;
        }
        self.note(i);
    }

    /// Swaps two entries; the one that lands at `a` is noted there.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.note(a);
    }

    /// Points the map at the entry now at `i`. A query new to the table
    /// gets its slot (and a tenant new to it, its name) here.
    fn note(&mut self, i: usize) {
        let e = &self.heap[i];
        let of_tenant = match self.at.get_mut(e.tenant.as_str()) {
            Some(of_tenant) => of_tenant,
            None => self.at.entry(e.tenant.clone()).or_default(),
        };
        of_tenant.insert(e.query_hash, i);
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn values(&self) -> impl Iterator<Item = &SlowQueryEntry> {
        self.heap.iter()
    }
}

/// Drops a query from [`Table`]'s map; where its entry was.
fn unmap(at: &mut HashMap<String, HashMap<u64, usize>>, tenant: &str, query_hash: u64) -> Option<usize> {
    let of_tenant = at.get_mut(tenant)?;
    let i = of_tenant.remove(&query_hash);
    if of_tenant.is_empty() {
        at.remove(tenant);
    }
    i
}

struct SlowInner {
    capacity: usize,
    table: Mutex<Table>,
}

/// Bounded per-query cost accounting table. Cheap to clone (all clones
/// share state). When full, recording a *new* query evicts the entry with
/// the smallest total cost, so persistent offenders are never displaced
/// by one-off cheap queries.
#[derive(Clone)]
pub struct SlowQueryLog {
    inner: Arc<SlowInner>,
}

impl SlowQueryLog {
    /// A log tracking at most `capacity` distinct queries (minimum 1).
    pub fn with_capacity(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            inner: Arc::new(SlowInner {
                capacity: capacity.max(1),
                table: Mutex::new(Table::default()),
            }),
        }
    }

    /// Charges one evaluation of `cost_us` microseconds to
    /// `(tenant, query_hash)`. `label` is called only when the query is
    /// seen for the first time.
    pub fn charge(&self, tenant: &str, query_hash: u64, label: impl FnOnce() -> String, cost_us: u64) {
        let mut table = self.inner.table.lock();
        let label = |buf: &mut String| buf.push_str(&label());
        table.record(self.inner.capacity, tenant, query_hash, label, Cost::one(cost_us), now_micros());
    }

    /// Forgets a query (it was unsubscribed and is not coming back).
    pub fn forget(&self, tenant: &str, query_hash: u64) {
        self.inner.table.lock().remove(tenant, query_hash);
    }

    /// Number of distinct queries currently tracked.
    pub fn len(&self) -> usize {
        self.inner.table.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` most expensive queries by total cost, most expensive first.
    /// Ties break by label so the order is deterministic.
    pub fn top(&self, k: usize) -> Vec<SlowQueryEntry> {
        let mut all: Vec<SlowQueryEntry> = self.inner.table.lock().values().cloned().collect();
        all.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.label.cmp(&b.label)));
        all.truncate(k);
        all
    }

    /// Renders [`SlowQueryLog::top`] as a JSON array string.
    pub fn top_json(&self, k: usize) -> String {
        let docs: Vec<String> =
            self.top(k).iter().map(|e| invalidb_json::to_string(&e.to_document())).collect();
        format!("[{}]", docs.join(","))
    }
}

impl Default for SlowQueryLog {
    fn default() -> SlowQueryLog {
        SlowQueryLog::with_capacity(DEFAULT_SLOW_LOG_CAPACITY)
    }
}

struct PendingCharge {
    /// Shared with the query that was charged; copied only if the flush
    /// creates the shared entry.
    label: Arc<str>,
    cost: Cost,
}

/// A per-task charge accumulator for pipeline stages.
///
/// The matching and sorting bolts evaluate queries on their hot paths;
/// charging the shared [`SlowQueryLog`] there would serialize every task
/// on one global lock per evaluation. Instead each bolt charges its own
/// (unsynchronized) scratch and flushes the batch on tick, so the shared
/// lock is taken once per tick interval rather than once per write×query.
#[derive(Default)]
pub struct SlowQueryScratch {
    /// Per tenant, per query hash: both levels are probed with what the
    /// caller holds (`&str`, `u64`), so a charge to a query already pending
    /// copies nothing. A flush empties the per-tenant maps but keeps them
    /// (and the tenant's name) for the next interval.
    pending: HashMap<String, HashMap<u64, PendingCharge>>,
}

impl SlowQueryScratch {
    /// An empty scratch.
    pub fn new() -> SlowQueryScratch {
        SlowQueryScratch::default()
    }

    /// Charges one evaluation of `cost_us` microseconds locally. `label`
    /// is called only on the query's first local sighting since the last
    /// flush; it is expected to share the query's label, not copy it.
    pub fn charge(
        &mut self,
        tenant: &str,
        query_hash: u64,
        label: impl FnOnce() -> Arc<str>,
        cost_us: u64,
    ) {
        let of_tenant = match self.pending.get_mut(tenant) {
            Some(of_tenant) => of_tenant,
            None => self.pending.entry(tenant.to_owned()).or_default(),
        };
        match of_tenant.get_mut(&query_hash) {
            Some(p) => p.cost.add(cost_us),
            None => {
                of_tenant.insert(query_hash, PendingCharge { label: label(), cost: Cost::one(cost_us) });
            }
        }
    }

    /// Number of distinct queries with unflushed charges.
    pub fn len(&self) -> usize {
        self.pending.values().map(HashMap::len).sum()
    }

    /// Whether there is anything to flush.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every accumulated charge into `log` under a single lock
    /// acquisition. A no-op when nothing was charged.
    pub fn flush(&mut self, log: &SlowQueryLog) {
        if self.is_empty() {
            return;
        }
        // A tenant charged nothing over a whole interval is let go.
        self.pending.retain(|_, of_tenant| !of_tenant.is_empty());
        let now = now_micros();
        let mut table = log.inner.table.lock();
        for (tenant, of_tenant) in &mut self.pending {
            for (query_hash, p) in of_tenant.drain() {
                table.record(
                    log.inner.capacity,
                    tenant,
                    query_hash,
                    |buf| buf.push_str(&p.label),
                    p.cost,
                    now,
                );
            }
        }
    }
}

impl std::fmt::Debug for SlowQueryScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryScratch").field("pending", &self.len()).finish()
    }
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog").field("tracked", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_query() {
        let log = SlowQueryLog::with_capacity(8);
        log.charge("t1", 42, || "a".into(), 100);
        log.charge("t1", 42, || "never".into(), 300);
        log.charge("t2", 42, || "b".into(), 50);
        assert_eq!(log.len(), 2);
        let top = log.top(10);
        assert_eq!(top[0].label, "a");
        assert_eq!(top[0].evals, 2);
        assert_eq!(top[0].total_us, 400);
        assert_eq!(top[0].max_us, 300);
        assert_eq!(top[0].mean_us(), 200);
        assert_eq!(top[1].label, "b");
    }

    #[test]
    fn eviction_keeps_expensive_queries() {
        let log = SlowQueryLog::with_capacity(2);
        log.charge("t", 1, || "heavy".into(), 10_000);
        log.charge("t", 2, || "medium".into(), 500);
        log.charge("t", 3, || "new".into(), 100);
        // The cheapest entry ("medium", 500us total) is evicted to make
        // room; the persistent offender ("heavy") survives.
        let top = log.top(10);
        let labels: Vec<&str> = top.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["heavy", "new"]);
    }

    /// The policy a full table follows, however it finds the cheapest
    /// entry: what a scan of every entry would evict, it evicts.
    #[test]
    fn newcomers_evict_what_a_scan_would_and_the_heavy_stay() {
        const CAPACITY: usize = 8;
        const PRIME: u64 = 10_007;
        let log = SlowQueryLog::with_capacity(CAPACITY);
        let mut reference: Vec<SlowQueryEntry> = Vec::new();
        let charge = |reference: &mut Vec<SlowQueryEntry>, tenant: &str, hash: u64, cost: u64| {
            let label = format!("q{hash}");
            log.charge(tenant, hash, || label.clone(), cost);
            if let Some(e) = reference.iter_mut().find(|e| e.tenant == tenant && e.query_hash == hash) {
                e.evals += 1;
                e.total_us += cost;
                return;
            }
            if reference.len() >= CAPACITY {
                let cheapest = (0..reference.len()).min_by_key(|&i| reference[i].total_us).unwrap();
                reference.swap_remove(cheapest);
            }
            let (tenant, evals, total_us) = (tenant.to_owned(), 1, cost);
            reference.push(SlowQueryEntry {
                tenant,
                query_hash: hash,
                label,
                evals,
                total_us,
                ..Default::default()
            });
        };
        // Every total is unique modulo the prime, so no two entries ever
        // tie for cheapest and the eviction order is the policy's alone.
        for (heavy, units) in [(1, 1_000), (2, 2_050), (3, 3_025)] {
            charge(&mut reference, "t", heavy, units * PRIME);
        }
        for i in 1..=10_000u64 {
            let tenant = ["t", "u", "v"][(i % 3) as usize];
            let hash = 100 + i;
            charge(&mut reference, tenant, hash, (i * 7_919) % PRIME);
            let recent = 100 + i - 3;
            let tenant = ["t", "u", "v"][(recent % 3) as usize];
            let tracked = reference.iter().any(|e| e.tenant == tenant && e.query_hash == recent);
            if i % 7 == 0 && tracked {
                // A recharge grows a total: the entry moves down the heap.
                charge(&mut reference, tenant, recent, (i % 5 + 1) * PRIME);
            }
            if i % 5 == 0 {
                // The cheapest entry grows past others: the next newcomer
                // must evict another one.
                let cheapest = reference.iter().min_by_key(|e| e.total_us).unwrap();
                let (tenant, hash) = (cheapest.tenant.clone(), cheapest.query_hash);
                charge(&mut reference, &tenant, hash, 2 * PRIME);
            }
            if i % 100 == 0 {
                charge(&mut reference, "t", 1 + i / 100 % 3, 100 * PRIME);
            }
            assert_eq!(log.len(), reference.len().min(CAPACITY), "after newcomer {i}");
        }
        let top = log.top(CAPACITY);
        reference.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.label.cmp(&b.label)));
        let shape = |e: &SlowQueryEntry| (e.tenant.clone(), e.query_hash, e.evals, e.total_us);
        assert_eq!(
            top.iter().map(shape).collect::<Vec<_>>(),
            reference.iter().map(shape).collect::<Vec<_>>()
        );
        assert!(
            (1..=3).all(|heavy| top.iter().any(|e| e.query_hash == heavy)),
            "the heavy queries stay"
        );
        for e in &top {
            assert_eq!(e.label, format!("q{}", e.query_hash), "the label is the newcomer's own");
        }
    }

    #[test]
    fn a_forgotten_entry_leaves_the_cheapest_at_hand() {
        let log = SlowQueryLog::with_capacity(8);
        // Distinct totals: 4 is invertible modulo 11.
        let cost = |q: u64| (q * 4) % 11 + 1;
        for q in 0..10u64 {
            log.charge("t", q, || format!("q{q}"), cost(q));
            if [0, 9, 4].contains(&q) {
                log.forget("t", q);
            }
        }
        let left = [1, 2, 3, 5, 6, 7, 8];
        assert_eq!(log.len(), left.len());
        log.charge("t", 100, || "new".into(), 100);
        log.charge("t", 101, || "newer".into(), 100);
        let cheapest = *left.iter().min_by_key(|&&q| cost(q)).unwrap();
        let kept: Vec<u64> = log.top(8).iter().map(|e| e.query_hash).collect();
        assert_eq!(kept.len(), 8);
        assert!(!kept.contains(&cheapest), "{cheapest} evicted, kept {kept:?}");
    }

    #[test]
    fn forget_removes_entry() {
        let log = SlowQueryLog::with_capacity(4);
        log.charge("t", 1, || "q".into(), 10);
        log.forget("t", 1);
        assert!(log.is_empty());
    }

    #[test]
    fn scratch_batches_and_flushes() {
        let log = SlowQueryLog::with_capacity(8);
        let mut scratch = SlowQueryScratch::new();
        scratch.charge("t", 1, || "a".into(), 100);
        scratch.charge("t", 1, || "never".into(), 300);
        scratch.charge("t", 2, || "b".into(), 50);
        assert_eq!(scratch.len(), 2);
        assert!(log.is_empty(), "nothing reaches the shared log before flush");
        scratch.flush(&log);
        assert!(scratch.is_empty());
        let top = log.top(10);
        assert_eq!(top[0].label, "a");
        assert_eq!(top[0].evals, 2);
        assert_eq!(top[0].total_us, 400);
        assert_eq!(top[0].max_us, 300);
        assert_eq!(top[0].last_us, 300);
        assert_eq!(top[1].label, "b");
        // A second flush accumulates into the existing entries.
        scratch.charge("t", 1, || "ignored".into(), 50);
        scratch.flush(&log);
        let top = log.top(10);
        assert_eq!(top[0].evals, 3);
        assert_eq!(top[0].total_us, 450);
        assert_eq!(top[0].label, "a", "label captured once, kept across flushes");
    }

    #[test]
    fn scratch_flush_respects_capacity_eviction() {
        let log = SlowQueryLog::with_capacity(2);
        log.charge("t", 1, || "heavy".into(), 10_000);
        log.charge("t", 2, || "medium".into(), 500);
        let mut scratch = SlowQueryScratch::new();
        scratch.charge("t", 3, || "new".into(), 100);
        scratch.flush(&log);
        let labels: Vec<String> = log.top(10).into_iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["heavy", "new"]);
    }
}
