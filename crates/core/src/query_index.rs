//! Multi-query index for the filtering stage.
//!
//! A naive matching node evaluates *every* of its queries against every
//! incoming after-image — O(queries) per write. The InvaliDB thesis lists
//! *multi-query optimizations* for exactly this hot path; this module keeps
//! per-write cost sublinear in the number of registered queries:
//!
//! * **Interval lanes** (§6.1: thousands of range predicates over one
//!   attribute): range conditions are indexed in a per-attribute interval
//!   tree, so a write only visits the queries whose interval its attribute
//!   value stabs — O(log queries + hits).
//! * **Equality lanes**: `$eq`/scalar and all-scalar `$in` conditions hash
//!   their literal's canonical encoding into a per-attribute lane —
//!   O(1) per attribute, independent of how many distinct values exist.
//! * **Conjunctive anchoring**: a filter like `{status: "open", price:
//!   {$lt: 100}}` is decomposed into atoms ([`invalidb_query::predicate`])
//!   and registered under its most selective indexable atom — equality
//!   first, then `$in`, then the tightest range — with the remaining atoms
//!   as a residual that full verification (and the matching node's shared
//!   predicate cache) handles.
//!
//! The index is *conservative*: it may return supersets, never misses.
//! Array-valued attributes fan out per MongoDB semantics, and since
//! different elements may satisfy different conjuncts of one condition
//! (`{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}`), interval lookups probe
//! the **envelope** `[min(elements), max(elements)]` for intersection
//! rather than stabbing per element — exact for scalars, superset for
//! arrays. Every candidate is still verified with the full predicate
//! evaluation, so correctness never depends on the index. Queries with no
//! indexable atom fall into a scan list and are evaluated the classic way.
//!
//! The interval trees are static and rebuilt lazily on the first lookup
//! after a subscription change — subscription churn is orders of magnitude
//! rarer than writes (the paper's measurement phases hold the query set
//! constant). Candidate generation fills caller-provided scratch buffers:
//! the steady-state write path performs no allocation here.

use invalidb_common::{canonical_cmp, Document, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// An inclusive value interval (conservatively widened from the query).
#[derive(Debug, Clone)]
struct Interval<Id> {
    lo: Value,
    hi: Value,
    id: Id,
}

fn tighten(current: Option<Value>, candidate: &Value, keep_if: Ordering) -> Value {
    match current {
        None => candidate.clone(),
        Some(cur) => {
            if canonical_cmp(candidate, &cur) == keep_if {
                candidate.clone()
            } else {
                cur
            }
        }
    }
}

/// Smallest scalar under the canonical order (NaN opens the number bracket).
fn bracket_min() -> Value {
    Value::Float(f64::NAN)
}

/// A value above every number and string: the empty object.
fn bracket_max() -> Value {
    Value::Object(Document::new())
}

/// Static centered interval tree (sorted by `lo`, max-`hi` augmented).
struct IntervalTree<Id> {
    /// Intervals sorted by `(lo, insertion order)`.
    intervals: Vec<Interval<Id>>,
    /// `max_hi[i]` = maximum `hi` in the segment-tree node `i` covers.
    max_hi: Vec<Option<Value>>,
}

impl<Id: Copy> IntervalTree<Id> {
    fn build(mut intervals: Vec<Interval<Id>>) -> Self {
        intervals.sort_by(|a, b| canonical_cmp(&a.lo, &b.lo));
        let mut tree = Self { max_hi: vec![None; intervals.len() * 4 + 4], intervals };
        if !tree.intervals.is_empty() {
            tree.augment(1, 0, tree.intervals.len() - 1);
        }
        tree
    }

    fn augment(&mut self, node: usize, l: usize, r: usize) -> Value {
        if l == r {
            let hi = self.intervals[l].hi.clone();
            self.max_hi[node] = Some(hi.clone());
            return hi;
        }
        let mid = (l + r) / 2;
        let left = self.augment(node * 2, l, mid);
        let right = self.augment(node * 2 + 1, mid + 1, r);
        let max = if canonical_cmp(&left, &right) == Ordering::Less { right } else { left };
        self.max_hi[node] = Some(max.clone());
        max
    }

    /// All intervals `[lo, hi]` intersecting the probe envelope
    /// `[min, max]`, i.e. `lo <= max && hi >= min`. A point stab is the
    /// degenerate envelope `min == max == v`.
    fn intersecting(&self, min: &Value, max: &Value, out: &mut Vec<Id>) {
        if self.intervals.is_empty() {
            return;
        }
        self.intersect_rec(1, 0, self.intervals.len() - 1, min, max, out);
    }

    fn intersect_rec(
        &self,
        node: usize,
        l: usize,
        r: usize,
        min: &Value,
        max: &Value,
        out: &mut Vec<Id>,
    ) {
        // Prune: no interval below this node reaches up to `min`.
        match &self.max_hi[node] {
            Some(max_hi) if canonical_cmp(max_hi, min) != Ordering::Less => {}
            _ => return,
        }
        // Prune: intervals are sorted by lo; if even the leftmost lo > max,
        // nothing here intersects the envelope.
        if canonical_cmp(&self.intervals[l].lo, max) == Ordering::Greater {
            return;
        }
        if l == r {
            // lo <= max (checked above) and hi >= min (max_hi == hi here).
            out.push(self.intervals[l].id);
            return;
        }
        let mid = (l + r) / 2;
        self.intersect_rec(node * 2, l, mid, min, max, out);
        self.intersect_rec(node * 2 + 1, mid + 1, r, min, max, out);
    }
}

/// Canonical lane key of an equality literal.
fn eq_key(v: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    v.write_canonical(&mut bytes);
    bytes
}

/// Equality-lane-safe literals: numbers, strings, booleans. `null` matches
/// missing fields (no probe would run), arrays/objects have fan-out
/// equality shapes the lane cannot model — all stay out.
fn eq_lane_safe(v: &Value) -> bool {
    matches!(v.type_rank(), 1 | 2 | 5)
}

/// Interval-safe literals: numbers and strings (the bracketed ranks).
fn range_scalar(v: &Value) -> bool {
    matches!(v.type_rank(), 1 | 2)
}

/// `$in` lists longer than this stay on the scan path — each element costs
/// a lane registration.
const MAX_IN_LANE: usize = 128;

/// Where a query was registered (exact removal + accounting).
enum Anchor {
    Scan,
    Eq { attr: String, keys: Vec<Vec<u8>> },
    Range { attr: String },
}

/// A planned registration, before it is applied to the index structures.
enum Placement {
    Scan,
    Eq { attr: String, keys: Vec<Vec<u8>> },
    Range { attr: String, lo: Value, hi: Value },
}

/// The per-(tenant, collection) multi-query index.
pub struct QueryIndex<Id: Copy + Eq + Hash> {
    /// Raw indexed intervals per attribute (source of truth).
    ranges: HashMap<String, HashMap<Id, (Value, Value)>>,
    /// Built trees (lazily rebuilt when dirty).
    trees: HashMap<String, IntervalTree<Id>>,
    /// Equality lanes: attribute → canonical literal bytes → queries.
    eq: HashMap<String, HashMap<Vec<u8>, Vec<Id>>>,
    /// Queries that could not be indexed: always evaluated.
    scan: Vec<Id>,
    /// Where each registered query lives (exact removal).
    anchors: HashMap<Id, Anchor>,
    dirty: bool,
    /// Candidates produced through the equality lanes since the last
    /// [`QueryIndex::take_eq_lane_hits`] drain.
    eq_lane_hits: u64,
    /// Reused per-probe scratch for the canonical key encoding.
    key_scratch: Vec<u8>,
}

impl<Id: Copy + Eq + Hash> Default for QueryIndex<Id> {
    fn default() -> Self {
        Self {
            ranges: HashMap::new(),
            trees: HashMap::new(),
            eq: HashMap::new(),
            scan: Vec::new(),
            anchors: HashMap::new(),
            dirty: false,
            eq_lane_hits: 0,
            key_scratch: Vec::new(),
        }
    }
}

impl<Id: Copy + Eq + Hash> QueryIndex<Id> {
    /// Registers a query under the most selective indexable atom of its
    /// filter; filters with no indexable atom go to the scan list.
    pub fn insert(&mut self, id: Id, filter: &Document) {
        let anchor = match plan(filter) {
            Placement::Scan => {
                self.scan.push(id);
                Anchor::Scan
            }
            Placement::Eq { attr, keys } => {
                let lane = self.eq.entry(attr.clone()).or_default();
                for key in &keys {
                    lane.entry(key.clone()).or_default().push(id);
                }
                Anchor::Eq { attr, keys }
            }
            Placement::Range { attr, lo, hi } => {
                self.ranges.entry(attr.clone()).or_default().insert(id, (lo, hi));
                self.dirty = true;
                Anchor::Range { attr }
            }
        };
        self.anchors.insert(id, anchor);
    }

    /// Unregisters a query (exact: only touches the anchor it lives under).
    pub fn remove(&mut self, id: Id) {
        match self.anchors.remove(&id) {
            None => {}
            Some(Anchor::Scan) => self.scan.retain(|s| *s != id),
            Some(Anchor::Eq { attr, keys }) => {
                if let Some(lane) = self.eq.get_mut(&attr) {
                    for key in &keys {
                        if let Some(ids) = lane.get_mut(key) {
                            ids.retain(|s| *s != id);
                            if ids.is_empty() {
                                lane.remove(key);
                            }
                        }
                    }
                    if lane.is_empty() {
                        self.eq.remove(&attr);
                    }
                }
            }
            Some(Anchor::Range { attr }) => {
                if let Some(by_id) = self.ranges.get_mut(&attr) {
                    if by_id.remove(&id).is_some() {
                        self.dirty = true;
                    }
                    if by_id.is_empty() {
                        self.ranges.remove(&attr);
                    }
                }
            }
        }
    }

    /// Number of registered queries (indexed + scanned).
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queries on the scan (non-indexable) path.
    pub fn scan_len(&self) -> usize {
        self.scan.len()
    }

    /// Number of queries registered under an index lane.
    pub fn indexed_len(&self) -> usize {
        self.anchors.len() - self.scan.len()
    }

    /// Drains the count of candidates produced via the equality lanes.
    pub fn take_eq_lane_hits(&mut self) -> u64 {
        std::mem::take(&mut self.eq_lane_hits)
    }

    /// Candidate queries for a document, filled into `out` (cleared first):
    /// every scan-list query plus the indexed queries whose lane the
    /// document's top-level attribute values hit. A superset of the true
    /// matches; adjacent duplicates removed.
    pub fn candidates(&mut self, doc: &Document, out: &mut Vec<Id>) {
        self.rebuild_if_dirty();
        out.clear();
        out.extend_from_slice(&self.scan);
        let mut key_scratch = std::mem::take(&mut self.key_scratch);
        let mut hits = 0u64;
        Self::probe(&self.eq, &self.trees, doc, out, &mut key_scratch, &mut hits);
        self.key_scratch = key_scratch;
        self.eq_lane_hits += hits;
        out.dedup();
    }

    /// One document's probe against the equality lanes and interval trees.
    /// Array values fan out per element in the equality lanes; interval
    /// lookups use the element envelope (see the module docs for why
    /// per-element stabbing would miss multi-conjunct matches).
    fn probe(
        eq: &HashMap<String, HashMap<Vec<u8>, Vec<Id>>>,
        trees: &HashMap<String, IntervalTree<Id>>,
        doc: &Document,
        out: &mut Vec<Id>,
        key_scratch: &mut Vec<u8>,
        eq_hits: &mut u64,
    ) {
        for (attr, value) in doc.iter() {
            if let Some(lane) = eq.get(attr) {
                match value {
                    Value::Array(items) => {
                        for item in items {
                            Self::probe_eq(lane, item, out, key_scratch, eq_hits);
                        }
                    }
                    v => Self::probe_eq(lane, v, out, key_scratch, eq_hits),
                }
            }
            if let Some(tree) = trees.get(attr) {
                match value {
                    Value::Array(items) => {
                        let mut min: Option<&Value> = None;
                        let mut max: Option<&Value> = None;
                        for item in items {
                            if min.is_none_or(|m| canonical_cmp(item, m) == Ordering::Less) {
                                min = Some(item);
                            }
                            if max.is_none_or(|m| canonical_cmp(item, m) == Ordering::Greater) {
                                max = Some(item);
                            }
                        }
                        if let (Some(min), Some(max)) = (min, max) {
                            tree.intersecting(min, max, out);
                        }
                    }
                    v => tree.intersecting(v, v, out),
                }
            }
        }
    }

    fn probe_eq(
        lane: &HashMap<Vec<u8>, Vec<Id>>,
        v: &Value,
        out: &mut Vec<Id>,
        key_scratch: &mut Vec<u8>,
        hits: &mut u64,
    ) {
        key_scratch.clear();
        v.write_canonical(key_scratch);
        if let Some(ids) = lane.get(key_scratch.as_slice()) {
            out.extend_from_slice(ids);
            *hits += ids.len() as u64;
        }
    }

    /// Candidates for a *delete* (no document): deletes can only affect
    /// queries that currently contain the key, which the caller resolves
    /// through its result sets; only the scan list applies here.
    pub fn scan_candidates(&self) -> &[Id] {
        &self.scan
    }

    fn rebuild_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.trees.clear();
        for (attr, by_id) in &self.ranges {
            let intervals = by_id
                .iter()
                .map(|(id, (lo, hi))| Interval { lo: lo.clone(), hi: hi.clone(), id: *id })
                .collect();
            self.trees.insert(attr.clone(), IntervalTree::build(intervals));
        }
        self.dirty = false;
    }
}

/// Picks the anchor for a filter: equality beats `$in` beats ranges; among
/// range atoms, all bounds on one attribute are combined into a single
/// (tighter) interval — the envelope probe keeps that array-safe.
fn plan(filter: &Document) -> Placement {
    let atoms = invalidb_query::decompose(filter);
    // Per-attribute combined range bounds, in first-seen atom order
    // (atoms are canonically sorted, so planning is deterministic).
    let mut bounds: Vec<(String, Option<Value>, Option<Value>)> = Vec::new();
    let mut best_in: Option<(String, Vec<Vec<u8>>)> = None;
    for atom in &atoms {
        if atom.doc.len() != 1 {
            continue;
        }
        let (attr, cond) = atom.doc.iter().next().expect("one entry");
        if attr.starts_with('$') || attr.contains('.') {
            continue;
        }
        match cond {
            Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => {
                if obj.len() != 1 {
                    continue; // coupled/opaque condition: residual only
                }
                let (op, v) = obj.iter().next().expect("one op");
                match op {
                    "$gt" | "$gte" if range_scalar(v) => {
                        let slot = bound_slot(&mut bounds, attr);
                        slot.1 = Some(tighten(slot.1.take(), v, Ordering::Greater));
                    }
                    "$lt" | "$lte" if range_scalar(v) => {
                        let slot = bound_slot(&mut bounds, attr);
                        slot.2 = Some(tighten(slot.2.take(), v, Ordering::Less));
                    }
                    "$eq" if range_scalar(v) => {
                        // Normalization spells `$eq` as a plain literal
                        // except for operator-shaped object literals;
                        // treat a stray scalar `$eq` as equality.
                        return Placement::Eq { attr: attr.to_owned(), keys: vec![eq_key(v)] };
                    }
                    "$in" if best_in.is_none() => {
                        if let Some(items) = v.as_array() {
                            if items.len() <= MAX_IN_LANE && items.iter().all(eq_lane_safe) {
                                let mut keys: Vec<Vec<u8>> = items.iter().map(eq_key).collect();
                                keys.sort_unstable();
                                keys.dedup();
                                best_in = Some((attr.to_owned(), keys));
                            }
                        }
                    }
                    _ => {}
                }
            }
            // Plain equality: the most selective anchor there is.
            literal if eq_lane_safe(literal) => {
                return Placement::Eq { attr: attr.to_owned(), keys: vec![eq_key(literal)] };
            }
            _ => {}
        }
    }
    if let Some((attr, keys)) = best_in {
        return Placement::Eq { attr, keys };
    }
    // Prefer two-sided (bounded) intervals over half-lines.
    let best = bounds.into_iter().max_by_key(|(_, lo, hi)| (lo.is_some() as u8) + (hi.is_some() as u8));
    match best {
        Some((attr, lo, hi)) if lo.is_some() || hi.is_some() => {
            Placement::Range { attr, lo: lo.unwrap_or(bracket_min()), hi: hi.unwrap_or(bracket_max()) }
        }
        _ => Placement::Scan,
    }
}

/// The combined-bound slot for `attr` (first-seen order preserved).
fn bound_slot<'a>(
    bounds: &'a mut Vec<(String, Option<Value>, Option<Value>)>,
    attr: &str,
) -> &'a mut (String, Option<Value>, Option<Value>) {
    if let Some(i) = bounds.iter().position(|(a, _, _)| a == attr) {
        return &mut bounds[i];
    }
    bounds.push((attr.to_owned(), None, None));
    bounds.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn range_filter(lo: i64, hi: i64) -> Document {
        doc! { "random" => doc! { "$gte" => lo, "$lt" => hi } }
    }

    /// Convenience wrapper over the scratch-buffer API for assertions.
    fn cands<Id: Copy + Eq + Hash>(idx: &mut QueryIndex<Id>, doc: &Document) -> Vec<Id> {
        let mut out = Vec::new();
        idx.candidates(doc, &mut out);
        out
    }

    #[test]
    fn stabbing_returns_exactly_the_covering_intervals() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        for i in 0..100u32 {
            let lo = (i as i64) * 10;
            idx.insert(i, &range_filter(lo, lo + 10));
        }
        // Value 55 lies in interval 5 only ($lt widened to inclusive can
        // also admit interval 4's hi bound = 50; 55 hits none of those).
        let c = cands(&mut idx, &doc! { "random" => 55i64 });
        assert_eq!(c, vec![5]);
        // Boundary value 50: interval 5 ($gte 50) plus interval 4's widened
        // $lt 50 — conservative superset is allowed.
        let c = cands(&mut idx, &doc! { "random" => 50i64 });
        assert!(c.contains(&5));
        assert!(c.len() <= 2);
        // Out of range: nothing.
        let c = cands(&mut idx, &doc! { "random" => 99_999i64 });
        assert!(c.is_empty());
    }

    #[test]
    fn overlapping_intervals_all_found() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 100));
        idx.insert(2, &range_filter(40, 60));
        idx.insert(3, &range_filter(50, 51));
        idx.insert(4, &range_filter(90, 95));
        let mut c = cands(&mut idx, &doc! { "random" => 50i64 });
        c.sort();
        assert_eq!(c, vec![1, 2, 3]);
    }

    #[test]
    fn non_indexable_queries_always_candidates() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "$or" => vec![Value::Object(doc! { "a" => 1i64 })] });
        assert_eq!(idx.scan_len(), 1);
        let c = cands(&mut idx, &doc! { "unrelated" => 1i64 });
        assert_eq!(c, vec![2], "scan queries always evaluated");
    }

    #[test]
    fn remove_unregisters_everywhere() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "complex" => doc! { "$ne" => 0i64 } });
        idx.insert(3, &doc! { "color" => "red" });
        idx.insert(4, &doc! { "n" => doc! { "$in" => vec![1i64, 2] } });
        assert_eq!(idx.len(), 4);
        for id in 1..=4 {
            idx.remove(id);
        }
        assert!(idx.is_empty());
        assert!(cands(&mut idx, &doc! { "random" => 5i64, "color" => "red", "n" => 1i64 }).is_empty());
    }

    #[test]
    fn array_values_fan_out() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &range_filter(100, 110));
        let mut c = cands(&mut idx, &doc! { "random" => vec![5i64, 105] });
        c.sort();
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn array_envelope_covers_split_conjunct_matches() {
        // `{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}` under MongoDB
        // array fan-out (different elements satisfy different conjuncts);
        // per-element stabbing of the combined interval [5, 9] would miss
        // it — the envelope [4, 10] intersects and must report it.
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "a" => doc! { "$gt" => 5i64, "$lt" => 9i64 } });
        let c = cands(&mut idx, &doc! { "a" => vec![4i64, 10] });
        assert_eq!(c, vec![1], "envelope probe catches the cross-element match");
        // And a disjoint envelope still prunes.
        assert!(cands(&mut idx, &doc! { "a" => vec![20i64, 30] }).is_empty());
    }

    #[test]
    fn string_equality_uses_the_eq_lane() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "color" => "red" });
        idx.insert(2, &doc! { "color" => "blue" });
        assert_eq!(cands(&mut idx, &doc! { "color" => "red" }), vec![1]);
        assert_eq!(cands(&mut idx, &doc! { "color" => "blue" }), vec![2]);
        assert!(cands(&mut idx, &doc! { "color" => "green" }).is_empty());
        assert_eq!(idx.take_eq_lane_hits(), 2, "two probes hit the lane");
        // Int/Float canonical unification: `{n: 1}` must be hit by `1.0`.
        idx.insert(3, &doc! { "n" => 1i64 });
        assert_eq!(cands(&mut idx, &doc! { "n" => 1.0f64 }), vec![3]);
        // Array fan-out: any element equal to the literal hits.
        assert_eq!(cands(&mut idx, &doc! { "color" => vec!["green", "red"] }), vec![1]);
    }

    #[test]
    fn conjunctive_filters_anchor_instead_of_scanning() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        // Equality atom beats the range atom as anchor.
        idx.insert(1, &doc! { "status" => "open", "price" => doc! { "$lt" => 100i64 } });
        // Range-only conjunction anchors on the (combined) interval.
        idx.insert(2, &doc! { "price" => doc! { "$gte" => 10i64, "$lt" => 20i64 }, "qty" => doc! { "$gt" => 0i64 } });
        // $in anchors on the lane when all elements are scalars.
        idx.insert(3, &doc! { "state" => doc! { "$in" => vec!["a", "b"] } });
        assert_eq!(idx.scan_len(), 0, "no conjunctive filter fell to the scan list");
        assert_eq!(idx.indexed_len(), 3);
        // Probes are supersets keyed on the anchor only.
        assert_eq!(cands(&mut idx, &doc! { "status" => "open", "price" => 500i64 }), vec![1]);
        assert!(cands(&mut idx, &doc! { "status" => "closed", "price" => 50i64 }).is_empty());
        assert_eq!(cands(&mut idx, &doc! { "price" => 15i64 }), vec![2]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "b" }), vec![3]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "c" }), Vec::<u32>::new());
    }

    #[test]
    fn candidates_are_superset_of_true_matches() {
        use invalidb_query::{MongoQueryEngine, QueryEngine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        let mut prepared = Vec::new();
        for i in 0..200usize {
            let lo = rng.gen_range(-100..100i64);
            let hi = lo + rng.gen_range(0..30i64);
            let filter = range_filter(lo, hi);
            let spec = invalidb_common::QuerySpec::filter("t", filter.clone());
            prepared.push(MongoQueryEngine.prepare(&spec).unwrap());
            idx.insert(i, &filter);
        }
        for _ in 0..500 {
            let doc = doc! { "random" => rng.gen_range(-120..120i64) };
            let candidates = cands(&mut idx, &doc);
            for (i, p) in prepared.iter().enumerate() {
                if p.matches(&doc) {
                    assert!(candidates.contains(&i), "index missed a true match");
                }
            }
        }
    }

    /// Property test across generated filter shapes and documents
    /// (including arrays, nulls, floats and multi-attribute conjunctions):
    /// the candidate set must be a superset of the true matches, whatever
    /// the planner chose as anchor.
    #[test]
    fn candidates_superset_property_for_arbitrary_shapes() {
        use invalidb_query::{MongoQueryEngine, QueryEngine};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let attrs = ["a", "b", "c"];
        let colors = ["red", "green", "blue"];
        let gen_value = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..4) {
                0 => Value::Int(rng.gen_range(-20..20i64)),
                1 => Value::Float(rng.gen_range(-20.0..20.0)),
                2 => Value::from(colors[rng.gen_range(0..colors.len())]),
                _ => Value::Bool(rng.gen_bool(0.5)),
            }
        };
        // Range-only conjunctions whatever the seed yields: with no equality
        // to prefer, the planner has to anchor these on an interval.
        let mut filters: Vec<Document> = (-3..3i64)
            .map(|i| {
                doc! {
                    "a" => doc! { "$gte" => i * 5, "$lt" => i * 5 + 7 },
                    "b" => doc! { "$gt" => i },
                }
            })
            .collect();
        let range_only = filters.len();
        for _ in 0..150 {
            let n_conj = 1 + usize::from(rand::Rng::gen_bool(&mut rng, 0.5));
            let mut f = Document::new();
            for _ in 0..n_conj {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                if f.contains_key(attr) {
                    continue;
                }
                match rng.gen_range(0..5) {
                    0 => {
                        f.insert(attr, gen_value(&mut rng));
                    }
                    1 => {
                        let lo = rng.gen_range(-20..20i64);
                        f.insert(attr, doc! { "$gte" => lo, "$lt" => lo + rng.gen_range(0..10i64) });
                    }
                    2 => {
                        f.insert(attr, doc! { "$gt" => rng.gen_range(-20..20i64) });
                    }
                    3 => {
                        let vals: Vec<Value> =
                            (0..rng.gen_range(0..4)).map(|_| gen_value(&mut rng)).collect();
                        f.insert(attr, doc! { "$in" => Value::Array(vals) });
                    }
                    _ => {
                        f.insert(attr, doc! { "$ne" => gen_value(&mut rng) });
                    }
                }
            }
            filters.push(f);
        }
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        let mut prepared = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            let spec = invalidb_common::QuerySpec::filter("t", f.clone());
            prepared.push(MongoQueryEngine.prepare(&spec).unwrap());
            idx.insert(i, f);
        }
        for i in 0..range_only {
            assert!(matches!(&idx.anchors[&i], Anchor::Range { attr } if attr == "a"));
        }
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..400 {
            let mut d = Document::new();
            for attr in attrs {
                match rng.gen_range(0..4) {
                    0 => {} // missing
                    1 => {
                        d.insert(attr, gen_value(&mut rng));
                    }
                    2 => {
                        let vals: Vec<Value> =
                            (0..rng.gen_range(0..4)).map(|_| gen_value(&mut rng)).collect();
                        d.insert(attr, Value::Array(vals));
                    }
                    _ => {
                        d.insert(attr, Value::Null);
                    }
                }
            }
            let candidates = cands(&mut idx, &d);
            for (i, p) in prepared.iter().enumerate() {
                if p.matches(&d) {
                    assert!(
                        candidates.contains(&i),
                        "index missed true match of {:?} against {d}",
                        filters[i]
                    );
                }
            }
        }
    }
}
