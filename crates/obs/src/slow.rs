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

struct SlowInner {
    capacity: usize,
    entries: Mutex<HashMap<(String, u64), SlowQueryEntry>>,
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
                entries: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Charges one evaluation of `cost_us` microseconds to
    /// `(tenant, query_hash)`. `label` is called only when the query is
    /// seen for the first time.
    pub fn charge(&self, tenant: &str, query_hash: u64, label: impl FnOnce() -> String, cost_us: u64) {
        let mut entries = self.inner.entries.lock();
        let key = (tenant.to_owned(), query_hash);
        if let Some(e) = entries.get_mut(&key) {
            e.evals += 1;
            e.total_us += cost_us;
            e.max_us = e.max_us.max(cost_us);
            e.last_us = cost_us;
            e.last_seen_micros = now_micros();
            return;
        }
        if entries.len() >= self.inner.capacity {
            if let Some(victim) = entries.iter().min_by_key(|(_, e)| e.total_us).map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        entries.insert(
            key,
            SlowQueryEntry {
                tenant: tenant.to_owned(),
                query_hash,
                label: label(),
                evals: 1,
                total_us: cost_us,
                max_us: cost_us,
                last_us: cost_us,
                last_seen_micros: now_micros(),
            },
        );
    }

    /// Forgets a query (it was unsubscribed and is not coming back).
    pub fn forget(&self, tenant: &str, query_hash: u64) {
        self.inner.entries.lock().remove(&(tenant.to_owned(), query_hash));
    }

    /// Number of distinct queries currently tracked.
    pub fn len(&self) -> usize {
        self.inner.entries.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` most expensive queries by total cost, most expensive first.
    /// Ties break by label so the order is deterministic.
    pub fn top(&self, k: usize) -> Vec<SlowQueryEntry> {
        let mut all: Vec<SlowQueryEntry> = self.inner.entries.lock().values().cloned().collect();
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
    /// Captured on the query's first local sighting since the last flush;
    /// consumed when the flush creates the shared entry.
    label: Option<String>,
    evals: u64,
    total_us: u64,
    max_us: u64,
    last_us: u64,
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
    /// copies nothing.
    pending: HashMap<String, HashMap<u64, PendingCharge>>,
}

impl SlowQueryScratch {
    /// An empty scratch.
    pub fn new() -> SlowQueryScratch {
        SlowQueryScratch::default()
    }

    /// Charges one evaluation of `cost_us` microseconds locally. `label`
    /// is called only on the query's first local sighting since the last
    /// flush.
    pub fn charge(
        &mut self,
        tenant: &str,
        query_hash: u64,
        label: impl FnOnce() -> String,
        cost_us: u64,
    ) {
        let of_tenant = match self.pending.get_mut(tenant) {
            Some(of_tenant) => of_tenant,
            None => self.pending.entry(tenant.to_owned()).or_default(),
        };
        match of_tenant.get_mut(&query_hash) {
            Some(p) => {
                p.evals += 1;
                p.total_us += cost_us;
                p.max_us = p.max_us.max(cost_us);
                p.last_us = cost_us;
            }
            None => {
                of_tenant.insert(
                    query_hash,
                    PendingCharge {
                        label: Some(label()),
                        evals: 1,
                        total_us: cost_us,
                        max_us: cost_us,
                        last_us: cost_us,
                    },
                );
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
        let now = now_micros();
        let mut entries = log.inner.entries.lock();
        for (tenant, of_tenant) in self.pending.drain() {
            // One key per tenant, re-aimed at each of its queries.
            let mut key = (tenant.clone(), 0u64);
            for (query_hash, p) in of_tenant {
                key.1 = query_hash;
                if let Some(e) = entries.get_mut(&key) {
                    e.evals += p.evals;
                    e.total_us += p.total_us;
                    e.max_us = e.max_us.max(p.max_us);
                    e.last_us = p.last_us;
                    e.last_seen_micros = now;
                    continue;
                }
                if entries.len() >= log.inner.capacity {
                    if let Some(victim) =
                        entries.iter().min_by_key(|(_, e)| e.total_us).map(|(k, _)| k.clone())
                    {
                        entries.remove(&victim);
                    }
                }
                entries.insert(
                    key.clone(),
                    SlowQueryEntry {
                        tenant: tenant.clone(),
                        query_hash,
                        label: p.label.unwrap_or_default(),
                        evals: p.evals,
                        total_us: p.total_us,
                        max_us: p.max_us,
                        last_us: p.last_us,
                        last_seen_micros: now,
                    },
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
