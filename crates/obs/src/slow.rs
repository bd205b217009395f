//! The slow-query log: per-query evaluation and change counts.
//!
//! Thousands of continuous queries share one matching grid (the SharedDB
//! problem): when the pipeline slows down, the operator's first question
//! is *which query is eating the grid*. Each query group of the filtering
//! stage registers here and counts, on the handle it holds, the writes it
//! evaluated and the changes (Add, Change, Remove) they made. The log sums
//! the groups of one `(tenant, query hash)` and ranks by evaluations; a
//! query leaves it when its last group goes.

use invalidb_common::{Document, TenantId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The counts of one continuous query, summed over its groups.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowQueryEntry {
    /// Owning tenant (app-server id).
    pub tenant: String,
    /// The query's hash (`QueryHash` raw value).
    pub query_hash: u64,
    /// Human-readable query label (collection + predicate display).
    pub label: String,
    /// Writes evaluated against the query.
    pub evals: u64,
    /// Evaluations that added, changed or removed a result record.
    pub changes: u64,
}

impl SlowQueryEntry {
    /// Encodes the entry as a document (the JSON object model).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(5);
        d.insert("tenant", self.tenant.as_str());
        d.insert("query_hash", self.query_hash as i64);
        d.insert("label", self.label.as_str());
        d.insert("evals", self.evals as i64);
        d.insert("changes", self.changes as i64);
        d
    }
}

/// One query group's counts, held by the group and by the log. Only the
/// thread that owns the group writes them.
pub struct QueryCounts {
    tenant: TenantId,
    query_hash: u64,
    label: Box<str>,
    evals: AtomicU64,
    changes: AtomicU64,
}

impl QueryCounts {
    /// Counts one evaluation, and one change if it made one.
    pub fn count(&self, changed: bool) {
        // One writer: a load and a store, not a read-modify-write.
        let bump = |n: &AtomicU64| n.store(n.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        bump(&self.evals);
        if changed {
            bump(&self.changes);
        }
    }
}

#[derive(Default)]
struct Handles {
    all: Vec<Arc<QueryCounts>>,
    /// How many were left by the last prune.
    pruned_to: usize,
}

impl Handles {
    /// Drops the handles whose group is gone.
    fn prune(&mut self) {
        self.all.retain(|h| Arc::strong_count(h) > 1);
        self.pruned_to = self.all.len();
    }
}

/// The registered query groups. Cheap to clone (all clones share state).
#[derive(Clone, Default)]
pub struct SlowQueryLog {
    handles: Arc<Mutex<Handles>>,
}

impl SlowQueryLog {
    /// A handle for a new group of `(tenant, query_hash)` to count on; the
    /// group leaves the log when the handle is dropped.
    pub fn register(&self, tenant: TenantId, query_hash: u64, label: String) -> Arc<QueryCounts> {
        let counts = Arc::new(QueryCounts {
            tenant,
            query_hash,
            label: label.into(),
            evals: AtomicU64::new(0),
            changes: AtomicU64::new(0),
        });
        let mut handles = self.handles.lock();
        handles.all.push(Arc::clone(&counts));
        // Pruned whenever the list has doubled: it stays within about
        // twice the live groups, at a constant cost per registration.
        if handles.all.len() >= 2 * handles.pruned_to {
            handles.prune();
        }
        counts
    }

    /// The `k` queries with the most evaluations, their groups summed, most
    /// first; ties break by label so the order is deterministic.
    pub fn top(&self, k: usize) -> Vec<SlowQueryEntry> {
        let mut handles = self.handles.lock();
        handles.prune();
        let mut by_query: HashMap<(&str, u64), SlowQueryEntry> = HashMap::new();
        for h in &handles.all {
            let e =
                by_query.entry((h.tenant.as_str(), h.query_hash)).or_insert_with(|| SlowQueryEntry {
                    tenant: h.tenant.as_str().to_owned(),
                    query_hash: h.query_hash,
                    label: h.label.to_string(),
                    ..Default::default()
                });
            e.evals += h.evals.load(Ordering::Relaxed);
            e.changes += h.changes.load(Ordering::Relaxed);
        }
        let mut all: Vec<SlowQueryEntry> = by_query.into_values().collect();
        all.sort_by(|a, b| b.evals.cmp(&a.evals).then_with(|| a.label.cmp(&b.label)));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn count(h: &QueryCounts, evals: u64, changes: u64) {
        for i in 0..evals {
            h.count(i < changes);
        }
    }

    #[test]
    fn groups_of_one_query_sum_into_one_entry() {
        let log = SlowQueryLog::default();
        let t = TenantId::new("t");
        let a = log.register(t.clone(), 42, "q".into());
        let b = log.register(t.clone(), 42, "q".into());
        let other = log.register(TenantId::new("u"), 42, "q".into());
        count(&a, 3, 1);
        count(&b, 4, 2);
        count(&other, 1, 1);
        let entry = |tenant: &str, evals, changes| SlowQueryEntry {
            tenant: tenant.into(),
            query_hash: 42,
            label: "q".into(),
            evals,
            changes,
        };
        assert_eq!(log.top(10), [entry("t", 7, 3), entry("u", 1, 1)]);
        drop(a);
        assert_eq!(log.top(10)[0].evals, 4, "a dropped group's counts go with it");
    }

    #[test]
    fn queries_rank_by_evaluations_then_label() {
        let log = SlowQueryLog::default();
        let t = TenantId::new("t");
        let handles: Vec<_> = [("c", 5), ("b", 9), ("a", 5), ("d", 1)]
            .into_iter()
            .enumerate()
            .map(|(hash, (label, evals))| {
                let h = log.register(t.clone(), hash as u64, label.into());
                count(&h, evals, 0);
                h
            })
            .collect();
        let labels: Vec<String> = log.top(3).into_iter().map(|e| e.label).collect();
        assert_eq!(labels, ["b", "a", "c"]);
        drop(handles);
        assert!(log.top(10).is_empty(), "a query leaves with its last group");
    }

    #[test]
    fn dropped_handles_leave_the_list_within_twice_the_live_count() {
        let log = SlowQueryLog::default();
        let t = TenantId::new("t");
        let live: Vec<_> = (0..10).map(|q| log.register(t.clone(), q, format!("q{q}"))).collect();
        for q in 0..10_000 {
            drop(log.register(t.clone(), 100 + q, "gone".into()));
            let held = log.handles.lock().all.len();
            assert!(held <= 2 * (live.len() + 1), "{held} handles for {} live", live.len());
        }
        assert_eq!(log.top(100).len(), live.len());
    }
}
