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
//!   first, then `$in`, then the tightest range.
//! * **Residual ranges**: an equality or `$in` anchor also carries the
//!   filter's tightest range on a *second* top-level attribute, and the
//!   lane proposes the query only when the document reaches that range as
//!   well (the envelope test an interval lane applies). Sixty-four
//!   `{status: "open", price: {$lt: b}}` filters then cost a write of
//!   status `"open"` one comparison each instead of one evaluation each.
//!   Whatever atoms remain are verified in full (through the matching
//!   node's shared predicate cache).
//!
//! The index is *conservative*: it may return supersets, never misses.
//! Array-valued attributes fan out per MongoDB semantics, and since
//! different elements may satisfy different conjuncts of one condition
//! (`{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}`), range tests use the
//! **envelope** `[min(elements), max(elements)]` for intersection rather
//! than stabbing per element — exact for scalars, superset for arrays.
//! Every candidate is still verified with the full predicate evaluation,
//! so correctness never depends on the index. Queries with no indexable
//! atom fall into a scan list and are evaluated the classic way.
//!
//! The interval trees are static and rebuilt lazily on the first lookup
//! after a subscription change — subscription churn is orders of magnitude
//! rarer than writes (the paper's measurement phases hold the query set
//! constant). Candidate generation fills caller-provided scratch buffers:
//! the steady-state write path performs no allocation here.
//!
//! A probe reads a document through [`Attributes`], so a write's record is
//! probed where it lies in the write's payload: only the attributes that
//! have a lane or a tree are read, and only those are decoded.

use invalidb_common::{canonical_cmp, Attributes, Document, Value};
use std::borrow::Cow;
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

/// The probe envelope of an attribute value: `[v, v]` for a scalar,
/// `[min, max]` of the elements for an array, nothing for an empty array
/// (no element can satisfy a range).
fn envelope(value: &Value) -> Option<(&Value, &Value)> {
    let Value::Array(items) = value else { return Some((value, value)) };
    let (first, rest) = items.split_first()?;
    Some(rest.iter().fold((first, first), |(min, max), item| {
        (
            if canonical_cmp(item, min) == Ordering::Less { item } else { min },
            if canonical_cmp(item, max) == Ordering::Greater { item } else { max },
        )
    }))
}

/// Whether `[lo, hi]` intersects the envelope `[min, max]`:
/// `lo <= max && hi >= min`.
fn intersects(lo: &Value, hi: &Value, (min, max): (&Value, &Value)) -> bool {
    canonical_cmp(lo, max) != Ordering::Greater && canonical_cmp(hi, min) != Ordering::Less
}

/// Static interval tree over intervals sorted by `lo`, augmented with the
/// largest `hi` of every segment.
///
/// The segments are those of a balanced recursive split of `0..n`: `[l, r]`
/// splits at `mid = (l + r) / 2` into `[l, mid]` and `[mid + 1, r]`. Every
/// split point belongs to exactly one internal segment, so the augmentation
/// is one slot per interval: `max_at[mid]` is the index of the interval
/// with the largest `hi` in the internal segment split at `mid`. A leaf
/// reads its own interval's `hi`.
struct IntervalTree<Id> {
    /// Intervals sorted by `(lo, insertion order)`.
    intervals: Vec<Interval<Id>>,
    /// Per internal segment, at its split point: where its largest `hi` is.
    max_at: Vec<u32>,
}

impl<Id: Copy> IntervalTree<Id> {
    fn build(mut intervals: Vec<Interval<Id>>) -> Self {
        intervals.sort_by(|a, b| canonical_cmp(&a.lo, &b.lo));
        let n = intervals.len();
        assert!(n <= u32::MAX as usize, "an interval tree indexes its intervals by u32");
        let mut tree = Self { max_at: vec![0; n], intervals };
        if n > 0 {
            tree.augment(0, n - 1);
        }
        tree
    }

    /// Fills `max_at` for the segment `[l, r]`; returns where its largest
    /// `hi` is.
    fn augment(&mut self, l: usize, r: usize) -> u32 {
        if l == r {
            return l as u32;
        }
        let mid = (l + r) / 2;
        let left = self.augment(l, mid);
        let right = self.augment(mid + 1, r);
        let (lhi, rhi) = (&self.intervals[left as usize].hi, &self.intervals[right as usize].hi);
        let max = if canonical_cmp(lhi, rhi) == Ordering::Less { right } else { left };
        self.max_at[mid] = max;
        max
    }

    /// The largest `hi` in the segment `[l, r]`.
    fn max_hi(&self, l: usize, r: usize) -> &Value {
        let at = if l == r { l } else { self.max_at[(l + r) / 2] as usize };
        &self.intervals[at].hi
    }

    /// All intervals `[lo, hi]` intersecting the probe envelope
    /// `[min, max]` (see [`intersects`]). A point stab is the degenerate
    /// envelope `min == max == v`.
    fn intersecting(&self, (min, max): (&Value, &Value), out: &mut Vec<Id>) {
        if self.intervals.is_empty() {
            return;
        }
        self.intersect_rec(0, self.intervals.len() - 1, min, max, out);
    }

    fn intersect_rec(&self, l: usize, r: usize, min: &Value, max: &Value, out: &mut Vec<Id>) {
        // Prune: no interval below this node reaches up to `min`.
        if canonical_cmp(self.max_hi(l, r), min) == Ordering::Less {
            return;
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
        self.intersect_rec(l, mid, min, max, out);
        self.intersect_rec(mid + 1, r, min, max, out);
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

/// The range an equality-lane entry's document must also reach: the
/// filter's combined bounds on a second top-level attribute, widened like
/// an interval lane's.
#[derive(Debug, Clone)]
struct Residual {
    attr: String,
    lo: Value,
    hi: Value,
}

impl Residual {
    /// Whether the attribute's value (or its array envelope) intersects
    /// the range. A missing attribute never satisfies a range atom.
    fn admits(&self, value: Option<&Value>) -> bool {
        value.and_then(envelope).is_some_and(|env| intersects(&self.lo, &self.hi, env))
    }
}

/// One query registered in an equality lane.
struct LaneEntry<Id> {
    id: Id,
    residual: Option<Residual>,
}

/// A registration in the equality lanes: the query sits in the bucket of
/// each of `keys` in the lane of `attr`.
struct EqAnchor {
    attr: String,
    keys: Vec<Vec<u8>>,
    residual: Option<Residual>,
}

/// Where a query was registered (exact removal + accounting). Boxed, an
/// equality anchor costs the (far more numerous) others no size.
enum Anchor {
    Scan,
    Eq(Box<EqAnchor>),
    Range { attr: String },
}

/// A planned registration, before it is applied to the index structures.
enum Placement {
    Scan,
    Eq(EqAnchor),
    Range { attr: String, lo: Value, hi: Value },
}

/// Equality lanes: attribute → canonical literal bytes → queries.
type EqLanes<Id> = HashMap<String, HashMap<Vec<u8>, Vec<LaneEntry<Id>>>>;

/// The per-(tenant, collection) multi-query index.
pub struct QueryIndex<Id: Copy + Eq + Hash> {
    /// Raw indexed intervals per attribute (source of truth).
    ranges: HashMap<String, HashMap<Id, (Value, Value)>>,
    /// Built trees (lazily rebuilt when dirty).
    trees: HashMap<String, IntervalTree<Id>>,
    eq: EqLanes<Id>,
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
            Placement::Eq(anchor) => {
                let lane = self.eq.entry(anchor.attr.clone()).or_default();
                for key in &anchor.keys {
                    lane.entry(key.clone())
                        .or_default()
                        .push(LaneEntry { id, residual: anchor.residual.clone() });
                }
                Anchor::Eq(Box::new(anchor))
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
            Some(Anchor::Eq(anchor)) => {
                let EqAnchor { attr, keys, .. } = *anchor;
                if let Some(lane) = self.eq.get_mut(&attr) {
                    for key in &keys {
                        if let Some(entries) = lane.get_mut(key) {
                            entries.retain(|e| e.id != id);
                            if entries.is_empty() {
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
        self.candidates_in(doc, out);
    }

    /// [`QueryIndex::candidates`] for a document held anywhere, a write's
    /// record read in place among them.
    pub fn candidates_in(&mut self, doc: &(impl Attributes + ?Sized), out: &mut Vec<Id>) {
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

    /// The test [`QueryIndex::candidates`] applies to query `id`, its anchor
    /// and residual resolved once, for a caller that asks about document
    /// after document (a new subscription replaying the retained writes).
    /// Queries on the scan list, and ids the index does not hold, admit
    /// every document.
    pub fn admission(&self, id: Id) -> Admission<'_> {
        let test = match self.anchors.get(&id) {
            None | Some(Anchor::Scan) => Test::All,
            Some(Anchor::Eq(anchor)) => Test::Eq(anchor),
            Some(Anchor::Range { attr }) => match self.ranges.get(attr).and_then(|by_id| by_id.get(&id))
            {
                Some((lo, hi)) => Test::Range { attr, lo, hi },
                None => Test::All,
            },
        };
        Admission { test, key_scratch: Vec::new() }
    }

    /// One document's probe against the equality lanes and interval trees:
    /// the document is read for the attributes that have a lane or a tree,
    /// and no others. Array values fan out per element in the equality
    /// lanes; interval lookups use the element envelope (see the module
    /// docs for why per-element stabbing would miss multi-conjunct matches).
    fn probe(
        eq: &EqLanes<Id>,
        trees: &HashMap<String, IntervalTree<Id>>,
        doc: &(impl Attributes + ?Sized),
        out: &mut Vec<Id>,
        key_scratch: &mut Vec<u8>,
        eq_hits: &mut u64,
    ) {
        for (attr, lane) in eq {
            match doc.attr(attr).as_deref() {
                Some(Value::Array(items)) => {
                    for item in items {
                        Self::probe_eq(lane, item, doc, out, key_scratch, eq_hits);
                    }
                }
                Some(v) => Self::probe_eq(lane, v, doc, out, key_scratch, eq_hits),
                None => {}
            }
        }
        for (attr, tree) in trees {
            if let Some(env) = doc.attr(attr).as_deref().and_then(envelope) {
                tree.intersecting(env, out);
            }
        }
    }

    /// The entries of `v`'s lane bucket whose residual range `doc` reaches.
    fn probe_eq(
        lane: &HashMap<Vec<u8>, Vec<LaneEntry<Id>>>,
        v: &Value,
        doc: &(impl Attributes + ?Sized),
        out: &mut Vec<Id>,
        key_scratch: &mut Vec<u8>,
        hits: &mut u64,
    ) {
        key_scratch.clear();
        v.write_canonical(key_scratch);
        let Some(entries) = lane.get(key_scratch.as_slice()) else { return };
        // The entries of a bucket mostly range over the same attribute:
        // read its value once per run of that attribute.
        let mut looked_up: Option<(&str, Option<Cow<'_, Value>>)> = None;
        for entry in entries {
            if let Some(residual) = &entry.residual {
                if looked_up.as_ref().is_none_or(|(attr, _)| *attr != residual.attr) {
                    looked_up = Some((&residual.attr, doc.attr(&residual.attr)));
                }
                let value = looked_up.as_ref().and_then(|(_, value)| value.as_deref());
                if !residual.admits(value) {
                    continue;
                }
            }
            out.push(entry.id);
            *hits += 1;
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

/// One query's admission test, from [`QueryIndex::admission`].
pub struct Admission<'a> {
    test: Test<'a>,
    /// Reused scratch for the canonical key encoding.
    key_scratch: Vec<u8>,
}

#[derive(Clone, Copy)]
enum Test<'a> {
    All,
    Eq(&'a EqAnchor),
    Range { attr: &'a str, lo: &'a Value, hi: &'a Value },
}

impl<'a> Admission<'a> {
    /// Whether the probe would propose the query for `doc`, which is read
    /// for the one or two attributes the test looks at and no others.
    pub fn admits(&mut self, doc: &(impl Attributes + ?Sized)) -> bool {
        let (anchor, residual) = self.attrs();
        let Some(anchor) = anchor else { return true };
        let (anchor, residual) = (doc.attr(anchor), residual.and_then(|attr| doc.attr(attr)));
        self.holds(anchor.as_deref(), residual.as_deref())
    }

    /// The attributes the test reads: the anchor's (`None` when it admits
    /// everything), and the residual range's.
    fn attrs(&self) -> (Option<&'a str>, Option<&'a str>) {
        match self.test {
            Test::All => (None, None),
            Test::Eq(anchor) => (Some(&anchor.attr), anchor.residual.as_ref().map(|r| r.attr.as_str())),
            Test::Range { attr, .. } => (Some(attr), None),
        }
    }

    /// The test over the values of [`Admission::attrs`] — a probe's, for
    /// one query: an equality anchor hits its lane (an array through any
    /// element) and the document reaches the residual range; a range
    /// anchor's interval meets the value's envelope.
    fn holds(&mut self, anchor: Option<&Value>, residual: Option<&Value>) -> bool {
        match self.test {
            Test::All => true,
            Test::Eq(EqAnchor { keys, residual: range, .. }) => {
                let scratch = &mut self.key_scratch;
                let mut on_lane = |v: &Value| {
                    scratch.clear();
                    v.write_canonical(scratch);
                    keys.iter().any(|k| k == scratch)
                };
                let hit = match anchor {
                    Some(Value::Array(items)) => items.iter().any(on_lane),
                    Some(v) => on_lane(v),
                    None => false,
                };
                hit && range.as_ref().is_none_or(|r| r.admits(residual))
            }
            Test::Range { lo, hi, .. } => {
                anchor.and_then(envelope).is_some_and(|env| intersects(lo, hi, env))
            }
        }
    }
}

/// Picks the anchor for a filter: equality beats `$in` beats ranges; among
/// range atoms, all bounds on one attribute are combined into a single
/// (tighter) interval — the envelope probe keeps that array-safe. An
/// equality or `$in` anchor takes the best range on another attribute as
/// its residual.
fn plan(filter: &Document) -> Placement {
    let atoms = invalidb_query::decompose(filter);
    // Per-attribute combined range bounds, in first-seen atom order
    // (atoms are canonically sorted, so planning is deterministic).
    let mut bounds: Vec<(String, Option<Value>, Option<Value>)> = Vec::new();
    let mut best_eq: Option<(String, Vec<Vec<u8>>)> = None;
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
                    continue; // coupled/opaque condition: left to verification
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
                    // Normalization spells `$eq` as a plain literal except
                    // for operator-shaped object literals; treat a stray
                    // scalar `$eq` as equality.
                    "$eq" if range_scalar(v) && best_eq.is_none() => {
                        best_eq = Some((attr.to_owned(), vec![eq_key(v)]));
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
            literal if eq_lane_safe(literal) && best_eq.is_none() => {
                best_eq = Some((attr.to_owned(), vec![eq_key(literal)]));
            }
            _ => {}
        }
    }
    if let Some((attr, keys)) = best_eq.or(best_in) {
        let residual = best_range(bounds.into_iter().filter(|(a, _, _)| *a != attr))
            .map(|(attr, lo, hi)| Residual { attr, lo, hi });
        return Placement::Eq(EqAnchor { attr, keys, residual });
    }
    match best_range(bounds.into_iter()) {
        Some((attr, lo, hi)) => Placement::Range { attr, lo, hi },
        None => Placement::Scan,
    }
}

/// The combined bounds worth probing: two-sided intervals before
/// half-lines, open ends closed with the bracket extremes.
fn best_range(
    bounds: impl Iterator<Item = (String, Option<Value>, Option<Value>)>,
) -> Option<(String, Value, Value)> {
    let (attr, lo, hi) =
        bounds.max_by_key(|(_, lo, hi)| u8::from(lo.is_some()) + u8::from(hi.is_some()))?;
    if lo.is_none() && hi.is_none() {
        return None;
    }
    Some((attr, lo.unwrap_or_else(bracket_min), hi.unwrap_or_else(bracket_max)))
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
    use invalidb_json::LazyDoc;
    use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn range_filter(lo: i64, hi: i64) -> Document {
        doc! { "random" => doc! { "$gte" => lo, "$lt" => hi } }
    }

    /// Convenience wrapper over the scratch-buffer API for assertions.
    fn cands<Id: Copy + Eq + Hash>(idx: &mut QueryIndex<Id>, doc: &Document) -> Vec<Id> {
        let mut out = Vec::new();
        idx.candidates(doc, &mut out);
        out
    }

    /// The generator of a randomized test: seeded from the test's name, or
    /// from `PROPTEST_SEED` when that is set, so the same test can explore
    /// other sequences.
    fn test_rng(name: &str) -> StdRng {
        StdRng::seed_from_u64(proptest::test_runner::TestRng::for_test(name, 1).next_u64())
    }

    fn prepare(filter: &Document) -> Arc<dyn PreparedQuery> {
        MongoQueryEngine.prepare(&invalidb_common::QuerySpec::filter("t", filter.clone())).unwrap()
    }

    /// The index's contract for one document: every true match is a
    /// candidate, the probe of its encoding read in place proposes the same
    /// candidates, and the admission test, over the document and over its
    /// encoding, agrees with the probe query by query.
    fn assert_superset(
        idx: &mut QueryIndex<usize>,
        filters: &[Document],
        prepared: &[Arc<dyn PreparedQuery>],
        d: &Document,
    ) {
        let candidates = cands(idx, d);
        let encoded = invalidb_json::WireCodec.encode(d);
        let in_place = LazyDoc::new(&encoded).unwrap().root().check().unwrap();
        let mut probed = Vec::new();
        idx.candidates_in(&in_place, &mut probed);
        assert_eq!(probed, candidates, "the probe in place on {d}");
        for (i, p) in prepared.iter().enumerate() {
            let proposed = candidates.contains(&i);
            assert!(
                !p.matches(d) || proposed,
                "index missed true match of {:?} against {d}",
                filters[i]
            );
            let mut admission = idx.admission(i);
            let filter = &filters[i];
            assert_eq!(admission.admits(d), proposed, "admits disagrees on {filter:?} against {d}");
            assert_eq!(admission.admits(&in_place), proposed, "in place: {filter:?} on {d}");
        }
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
        assert!(idx.admission(2).admits(&doc! { "unrelated" => 1i64 }));
        assert!(idx.admission(99).admits(&doc! {}), "an unknown id is not ruled out");
    }

    #[test]
    fn remove_unregisters_everywhere() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &range_filter(0, 10));
        idx.insert(2, &doc! { "complex" => doc! { "$ne" => 0i64 } });
        idx.insert(3, &doc! { "color" => "red" });
        idx.insert(4, &doc! { "n" => doc! { "$in" => vec![1i64, 2] } });
        idx.insert(5, &doc! { "color" => "red", "n" => doc! { "$lt" => 3i64 } });
        assert_eq!(idx.len(), 5);
        for id in 1..=5 {
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
        // Equality atom beats the range atom as anchor; the range stays on
        // the lane entry as its residual.
        idx.insert(1, &doc! { "status" => "open", "price" => doc! { "$lt" => 100i64 } });
        // Range-only conjunction anchors on the (combined) interval.
        idx.insert(2, &doc! { "price" => doc! { "$gte" => 10i64, "$lt" => 20i64 }, "qty" => doc! { "$gt" => 0i64 } });
        // $in anchors on the lane when all elements are scalars.
        idx.insert(3, &doc! { "state" => doc! { "$in" => vec!["a", "b"] } });
        assert_eq!(idx.scan_len(), 0, "no conjunctive filter fell to the scan list");
        assert_eq!(idx.indexed_len(), 3);
        // The lane proposes a query only inside its residual range.
        assert!(cands(&mut idx, &doc! { "status" => "open", "price" => 500i64 }).is_empty());
        assert_eq!(cands(&mut idx, &doc! { "status" => "open", "price" => 50i64 }), vec![1]);
        assert!(cands(&mut idx, &doc! { "status" => "closed", "price" => 50i64 }).is_empty());
        assert_eq!(cands(&mut idx, &doc! { "price" => 15i64 }), vec![2]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "b" }), vec![3]);
        assert_eq!(cands(&mut idx, &doc! { "state" => "c" }), Vec::<u32>::new());
    }

    #[test]
    fn equality_lanes_check_the_residual_range() {
        let mut idx: QueryIndex<u32> = QueryIndex::default();
        idx.insert(1, &doc! { "status" => "s3", "price" => doc! { "$lt" => 630i64 } });
        idx.insert(
            2,
            &doc! { "status" => "s3", "price" => doc! { "$gte" => 600i64, "$lte" => 610i64 } },
        );
        idx.insert(
            3,
            &doc! { "status" => doc! { "$in" => vec!["s3", "s4"] }, "price" => doc! { "$gt" => "m" } },
        );
        // A range on the anchor's own attribute is no residual.
        idx.insert(
            4,
            &doc! { "status" => "s3", "$and" => vec![Value::Object(doc! { "status" => doc! { "$lt" => "a" } })] },
        );
        let mut probe = |price: Option<Value>| {
            let mut d = doc! { "status" => "s3" };
            if let Some(price) = price {
                d.insert("price", price);
            }
            let mut c = cands(&mut idx, &d);
            c.sort();
            for id in 1..=4 {
                assert_eq!(idx.admission(id).admits(&d), c.contains(&id), "query {id} against {d}");
            }
            c
        };
        assert_eq!(probe(Some(Value::Int(620))), vec![1, 4]);
        assert_eq!(probe(Some(Value::Int(610))), vec![1, 2, 4], "$lte on the exact bound");
        assert_eq!(probe(Some(Value::Float(600.0))), vec![1, 2, 4], "$gte on the exact bound");
        assert_eq!(probe(Some(Value::Int(640))), vec![4]);
        // An array reaches a range when its envelope does.
        assert_eq!(probe(Some(Value::Array(vec![Value::Int(640), Value::Int(605)]))), vec![1, 2, 4]);
        assert_eq!(probe(Some(Value::Array(vec![Value::Int(590), Value::Int(640)]))), vec![1, 2, 4]);
        assert_eq!(probe(Some(Value::Array(vec![]))), vec![4]);
        // Types outside a bound's bracket, and a missing attribute, never do.
        assert_eq!(probe(None), vec![4]);
        assert_eq!(probe(Some(Value::Null)), vec![4]);
        assert_eq!(probe(Some(Value::Bool(true))), vec![4]);
        assert_eq!(probe(Some(Value::from("z"))), vec![3, 4], "a string bound admits strings only");
        assert_eq!(probe(Some(Value::from("a"))), vec![4]);
        assert_eq!(idx.take_eq_lane_hits(), 22, "only proposed entries count as lane hits");
    }

    #[test]
    fn candidates_are_superset_of_true_matches() {
        let mut rng = test_rng("candidates_are_superset_of_true_matches");
        let statuses = ["s0", "s1", "s2", "s3"];
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        let mut filters = Vec::new();
        for i in 0..200usize {
            let lo = rng.gen_range(-100..100i64);
            let hi = lo + rng.gen_range(0..30i64);
            let status = statuses[rng.gen_range(0..statuses.len())];
            // Ranges on their own, and the fan-out shape: an equality or
            // `$in` anchor with a range on a second attribute.
            let filter = match i % 4 {
                0 | 1 => range_filter(lo, hi),
                2 => doc! { "status" => status, "random" => doc! { "$lt" => hi } },
                _ => doc! {
                    "status" => doc! { "$in" => vec![status, statuses[i % statuses.len()]] },
                    "random" => doc! { "$gte" => lo, "$lte" => hi },
                },
            };
            idx.insert(i, &filter);
            filters.push(filter);
        }
        let prepared: Vec<_> = filters.iter().map(prepare).collect();
        for _ in 0..500 {
            let mut d = doc! { "random" => rng.gen_range(-120..120i64) };
            if rng.gen_bool(0.8) {
                d.insert("status", statuses[rng.gen_range(0..statuses.len())]);
            }
            assert_superset(&mut idx, &filters, &prepared, &d);
        }
    }

    /// Property test across generated filter shapes and documents
    /// (including arrays, nulls, floats and multi-attribute conjunctions):
    /// the candidate set must be a superset of the true matches, whatever
    /// the planner chose as anchor and residual.
    #[test]
    fn candidates_superset_property_for_arbitrary_shapes() {
        let mut rng = test_rng("candidates_superset_property_for_arbitrary_shapes");
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
        // A range bound: mostly integers (so documents land on it exactly),
        // sometimes a float or a string.
        let gen_bound = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..5) {
                0 => Value::Float(rng.gen_range(-20.0..20.0)),
                1 => Value::from(colors[rng.gen_range(0..colors.len())]),
                _ => Value::Int(rng.gen_range(-20..20i64)),
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
        // Equality and `$in` anchors with a range on a second attribute:
        // one- and two-sided, exclusive and inclusive, numeric and string
        // bounds.
        for _ in 0..100 {
            let anchor = rng.gen_range(0..attrs.len());
            let ranged = (anchor + 1 + rng.gen_range(0..attrs.len() - 1)) % attrs.len();
            let mut f = Document::new();
            if rng.gen_bool(0.5) {
                f.insert(attrs[anchor], gen_value(&mut rng));
            } else {
                let vals: Vec<Value> = (0..rng.gen_range(1..4)).map(|_| gen_value(&mut rng)).collect();
                f.insert(attrs[anchor], doc! { "$in" => Value::Array(vals) });
            }
            let lower = ["$gt", "$gte"][rng.gen_range(0..2usize)];
            let upper = ["$lt", "$lte"][rng.gen_range(0..2usize)];
            let range = match rng.gen_range(0..3) {
                0 => doc! { lower => gen_bound(&mut rng) },
                1 => doc! { upper => gen_bound(&mut rng) },
                _ => {
                    let lo = rng.gen_range(-20..20i64);
                    doc! { lower => lo, upper => lo + rng.gen_range(0..10i64) }
                }
            };
            f.insert(attrs[ranged], range);
            filters.push(f);
        }
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        for (i, f) in filters.iter().enumerate() {
            idx.insert(i, f);
        }
        let prepared: Vec<_> = filters.iter().map(prepare).collect();
        for i in 0..range_only {
            assert!(matches!(&idx.anchors[&i], Anchor::Range { attr } if attr == "a"));
        }
        let residuals = idx
            .anchors
            .values()
            .filter(|a| matches!(a, Anchor::Eq(eq) if eq.residual.is_some()))
            .count();
        assert!(residuals >= 50, "only {residuals} lane entries carry a residual range");
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
            assert_superset(&mut idx, &filters, &prepared, &d);
        }
    }

    /// Differential: a record read in place from its encoding, as a cell
    /// reads a write, is probed and evaluated exactly as the decoded record
    /// is — the probe proposes the same candidates, and the filter's atoms,
    /// each reading one attribute in place or the record whole, decide as
    /// `PreparedFilter::matches` does on the decoded record. Records mix
    /// integers and floats, short and long strings, arrays, nested objects,
    /// nulls and missing attributes; filters are ranges, `$eq`, `$in`,
    /// dotted paths and `$or`.
    #[test]
    fn candidates_and_evaluation_in_place_agree_with_the_decoded_record() {
        use crate::event::Event;
        use crate::matching::Written;
        use invalidb_common::{AfterImage, Key, TenantId};
        let mut rng = test_rng("candidates_and_evaluation_in_place_agree_with_the_decoded_record");
        let attrs = ["a", "b", "c"];
        let long = ["a string of more than twenty-two bytes", "another string past the inline limit"];
        let scalar = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..6) {
                0 => Value::Int(rng.gen_range(-10..10i64)),
                1 => Value::Float(rng.gen_range(-10..10i64) as f64),
                2 => Value::Float(rng.gen_range(-10.0..10.0)),
                3 => Value::from(["red", "blue"][rng.gen_range(0..2usize)]),
                4 => Value::from(long[rng.gen_range(0..2usize)]),
                _ => Value::Null,
            }
        };
        let mut filters = Vec::new();
        for _ in 0..80 {
            let attr = attrs[rng.gen_range(0..attrs.len())];
            let path = if rng.gen_bool(0.2) { "n.x" } else { attr };
            let lo = rng.gen_range(-10..10i64);
            let condition = match rng.gen_range(0..4) {
                0 => Value::Object(doc! { "$gte" => lo, "$lt" => lo + rng.gen_range(1..8i64) }),
                1 => scalar(&mut rng),
                2 => Value::Object(doc! { "$in" => vec![scalar(&mut rng), scalar(&mut rng)] }),
                _ => Value::Object(doc! { "$gt" => lo }),
            };
            let mut filter = Document::new();
            filter.insert(path, condition);
            if rng.gen_bool(0.3) {
                let other = attrs[rng.gen_range(0..attrs.len())];
                let either = vec![
                    Value::Object(doc! { other => scalar(&mut rng) }),
                    Value::Object(doc! { "n.x" => doc! { "$lte" => lo } }),
                ];
                filter.insert("$or", either);
            }
            filters.push(filter);
        }
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        for (i, f) in filters.iter().enumerate() {
            idx.insert(i, f);
        }
        let prepared: Vec<_> = filters.iter().map(prepare).collect();
        let compiled: Vec<_> =
            filters.iter().map(|f| MongoQueryEngine.prepare_filter(f).unwrap()).collect();
        for _ in 0..400 {
            let mut d = Document::new();
            for attr in attrs {
                match rng.gen_range(0..5) {
                    0 => {} // missing
                    1 => {
                        d.insert(
                            attr,
                            Value::Array((0..rng.gen_range(0..3)).map(|_| scalar(&mut rng)).collect()),
                        );
                    }
                    _ => {
                        d.insert(attr, scalar(&mut rng));
                    }
                }
            }
            if rng.gen_bool(0.5) {
                d.insert("n", doc! { "x" => scalar(&mut rng), "y" => vec![scalar(&mut rng)] });
            }
            assert_superset(&mut idx, &filters, &prepared, &d);
            let image = AfterImage {
                tenant: TenantId::new("app"),
                collection: "t".into(),
                key: Key::of(1i64),
                version: 1,
                doc: Some(d.clone()),
                written_at: 0,
                trace: None,
            };
            let mut w = invalidb_json::WireCodec.writer();
            image.as_ref().write_to(&mut w);
            let Some(Event::Write(write)) = crate::ingest::decode_event_with(w.finish(), TenantId::new)
            else {
                panic!("a write envelope")
            };
            let written = Written::live(&write);
            let materialized = write.doc().expect("a record").materialize();
            assert_eq!(materialized, d);
            for (filter, compiled) in filters.iter().zip(&compiled) {
                let atoms = compiled.conjuncts().expect("mongo filters decompose");
                assert_eq!(
                    atoms.iter().all(|atom| atom.matches_in(&written)),
                    compiled.matches(&materialized),
                    "{filter:?} on {d}"
                );
            }
        }
    }

    /// The admission test read in place walks an encoding only up to the
    /// attributes it needs: it agrees with the probe wherever they sit
    /// among fields of every type, nested namesakes included.
    #[test]
    fn candidates_and_the_in_place_admission_agree_wherever_the_attributes_sit() {
        let mut rng =
            test_rng("candidates_and_the_in_place_admission_agree_wherever_the_attributes_sit");
        let colors = ["red", "green"];
        let mut filters = vec![doc! { "a" => doc! { "$ne" => 0i64 } }];
        for _ in 0..60 {
            let lo = rng.gen_range(-10..10i64);
            let range = doc! { "$gte" => lo, "$lt" => lo + rng.gen_range(1..8i64) };
            filters.push(match rng.gen_range(0..3) {
                0 => doc! { "a" => range },
                1 => doc! { "b" => colors[rng.gen_range(0..2usize)], "a" => range },
                _ => doc! { "a" => rng.gen_range(-10..10i64) },
            });
        }
        let mut idx: QueryIndex<usize> = QueryIndex::default();
        for (i, f) in filters.iter().enumerate() {
            idx.insert(i, f);
        }
        let prepared: Vec<_> = filters.iter().map(prepare).collect();
        let fillers = [
            Value::Null,
            Value::Float(2.5),
            Value::from("a string too long to be held inline"),
            Value::Array(vec![Value::Object(doc! { "a" => 1i64 })]),
            Value::Object(doc! { "a" => 3i64, "b" => "red" }),
        ];
        for _ in 0..300 {
            let mut fields = Vec::new();
            for name in ["x", "y", "z"] {
                if rng.gen_bool(0.6) {
                    fields.push((name, fillers[rng.gen_range(0..fillers.len())].clone()));
                }
            }
            if rng.gen_bool(0.8) {
                let n = Value::Int(rng.gen_range(-10..10i64));
                fields.push((
                    "a",
                    if rng.gen_bool(0.2) { Value::Array(vec![n, Value::Int(4)]) } else { n },
                ));
            }
            if rng.gen_bool(0.7) {
                fields.push(("b", Value::from(colors[rng.gen_range(0..2usize)])));
            }
            fields.shuffle(&mut rng);
            let d = fields.into_iter().map(|(name, value)| (name.to_owned(), value)).collect();
            assert_superset(&mut idx, &filters, &prepared, &d);
        }
    }
}
