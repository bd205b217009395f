//! Sorted-result window maintenance (§5.2, "Sorted Filter Queries").
//!
//! A [`SortedWindow`] is the per-query state a sorting-stage node keeps for
//! a sorted filter query with limit/offset: *all items in the offset, the
//! actual result, and `slack` known items beyond the limit* — exactly the
//! auxiliary data of Figure 3. Incoming filtering-stage changes mutate the
//! window; the client-visible slice `[offset, offset+limit)` is diffed
//! before/after and the difference is emitted as an *edit script* of
//! `add` / `change` / `changeIndex` / `remove` events whose indices are
//! valid when applied sequentially to the client's local result list.
//!
//! When the window can no longer prove what the visible result is — a
//! removal shrinks it below `offset+limit` while items beyond the horizon
//! had been discarded — a **query maintenance error** is raised: the query
//! must be renewed from a fresh database result ([`SortedWindow::reseed`]),
//! after which the incremental delta from the last valid visible state is
//! emitted.

use invalidb_common::{Document, Key, ResultItem, Version};
use invalidb_query::PreparedQuery;
use std::sync::Arc;

/// One record inside the maintained window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowItem {
    /// Primary key.
    pub key: Key,
    /// Record version.
    pub version: Version,
    /// Record content, shared: the window, the edit scripts it emits and
    /// the client state kept beside it all point at the one copy.
    pub doc: Arc<Document>,
}

/// A client-visible result change with list positions.
#[derive(Debug, Clone, PartialEq)]
pub enum VisibleEvent {
    /// Insert `item` at `index`.
    Add {
        /// The entering record.
        item: WindowItem,
        /// Insert position in the client's list.
        index: usize,
    },
    /// Replace the item at `index` (same position, new content).
    Change {
        /// The updated record.
        item: WindowItem,
        /// Position in the client's list.
        index: usize,
    },
    /// The item moved: remove at `old_index`, insert at `index`.
    ChangeIndex {
        /// The updated record.
        item: WindowItem,
        /// Position to remove from.
        old_index: usize,
        /// Position to insert at.
        index: usize,
    },
    /// Remove the item at `old_index`.
    Remove {
        /// Key of the leaving record.
        key: Key,
        /// Version that caused the removal.
        version: Version,
        /// Position to remove from.
        old_index: usize,
    },
}

/// Result of applying one write to the window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowOutcome {
    /// Client-visible edit script (empty when nothing visible changed).
    pub events: Vec<VisibleEvent>,
    /// Set when the query became unmaintainable (slack exhausted).
    pub error: Option<String>,
}

/// Maintained state for one sorted query.
pub struct SortedWindow {
    prepared: Arc<dyn PreparedQuery>,
    offset: usize,
    limit: Option<usize>,
    /// `offset + limit + slack` for bounded queries; unbounded keep all.
    cap: Option<usize>,
    items: Vec<WindowItem>,
    /// True while the window provably contains *all* matching items.
    complete: bool,
}

impl SortedWindow {
    /// Builds a window from the bootstrap query result (the rewritten query:
    /// offset removed, limit extended by offset and `slack`, §5.2).
    pub fn new(prepared: Arc<dyn PreparedQuery>, slack: u64, initial: &[ResultItem]) -> Self {
        let spec = prepared.spec();
        let offset = spec.offset as usize;
        let limit = spec.limit.map(|l| l as usize);
        let cap = limit.map(|l| offset + l + slack as usize);
        let mut items: Vec<WindowItem> = initial
            .iter()
            .filter_map(|r| {
                r.doc.as_ref().map(|doc| WindowItem {
                    key: r.key.clone(),
                    version: r.version,
                    doc: Arc::new(doc.clone()),
                })
            })
            .collect();
        items.sort_by(|a, b| prepared.cmp_items((&a.key, &a.doc), (&b.key, &b.doc)));
        items.dedup_by(|a, b| a.key == b.key);
        // The window is complete iff the bootstrap result did not fill the
        // rewritten limit (the database had nothing more to give).
        let complete = cap.is_none_or(|c| items.len() < c);
        Self { prepared, offset, limit, cap, items, complete }
    }

    /// Number of items currently maintained (offset + result + slack).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items are maintained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current slack: maintained items beyond `offset + limit` — the number
    /// of subsequent removes that can be absorbed (§5.2).
    pub fn current_slack(&self) -> usize {
        match self.limit {
            Some(l) => self.items.len().saturating_sub(self.offset + l),
            None => usize::MAX,
        }
    }

    /// Whether the window still provably holds every matching item.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The client-visible slice `[offset, offset+limit)`.
    pub fn visible(&self) -> &[WindowItem] {
        &self.items[self.visible_range(self.items.len())]
    }

    /// Where the visible slice lies in a maintained list of `len` items.
    fn visible_range(&self, len: usize) -> std::ops::Range<usize> {
        let end = self.limit.map_or(len, |l| (self.offset + l).min(len));
        self.offset.min(len)..end
    }

    /// Snapshot of the visible slice (kept by the sorting node across a
    /// maintenance error so the renewal delta can be computed).
    pub fn snapshot_visible(&self) -> Vec<WindowItem> {
        self.visible().to_vec()
    }

    /// Applies one write (after-image or tombstone) to the window.
    pub fn apply(&mut self, key: &Key, version: Version, doc: Option<&Document>) -> WindowOutcome {
        // Version guard: replay and renewal can cross paths; never move a
        // record backwards.
        let pos = self.position_of(key);
        if pos.is_some_and(|p| self.items[p].version >= version) {
            return WindowOutcome::default();
        }
        let matching = doc.is_some_and(|d| self.prepared.matches(d));
        if !matching && pos.is_none() {
            return WindowOutcome::default();
        }
        // A write moves at most three items: the record's old state leaves,
        // its new state enters, and the last item falls off a full window.
        // What left is kept, so the list as it was can be read back from the
        // list as it is, and nothing has to be copied beforehand.
        let left = pos.map(|p| (p, self.items.remove(p)));
        let mut entered = None;
        let mut fell_off = None;
        if matching {
            let item = WindowItem {
                key: key.clone(),
                version,
                doc: Arc::new(doc.expect("matching implies doc").clone()),
            };
            let insert_at = self.insert_position(&item);
            // Invariant: every *unknown* matching item sorts after the
            // window's last item (items only ever leave the window off
            // its end). An arrival sorting at the very end of an
            // incomplete window is therefore ambiguous — unknown items
            // may belong between — and must be discarded, whether it is
            // new or an updated member that moved past the horizon.
            let beyond_horizon = !self.complete && insert_at == self.items.len();
            if !beyond_horizon {
                self.items.insert(insert_at, item);
                entered = Some(insert_at);
                if self.cap.is_some_and(|cap| self.items.len() > cap) {
                    fell_off = self.items.pop();
                    self.complete = false;
                }
            }
        }
        if let Some(err) = self.maintenance_error() {
            return WindowOutcome { events: Vec::new(), error: Some(err) };
        }
        // The list before the write: the steps above, undone on references.
        let mut before: Vec<&WindowItem> = self.items.iter().chain(&fell_off).collect();
        if let Some(at) = entered {
            before.remove(at);
        }
        if let Some((at, item)) = &left {
            before.insert(*at, item);
        }
        let visible_before =
            before[self.visible_range(before.len())].iter().map(|i| (&i.key, i.version));
        let events = edit_script(visible_before.collect(), self.visible(), Some(key));
        WindowOutcome { events, error: None }
    }

    /// Replaces the window content from a fresh bootstrap result (query
    /// renewal) and returns the edit script from `last_visible` — the
    /// client's last valid state — to the new visible slice.
    pub fn reseed(
        &mut self,
        slack: u64,
        initial: &[ResultItem],
        last_visible: &[WindowItem],
    ) -> Vec<VisibleEvent> {
        let fresh = SortedWindow::new(Arc::clone(&self.prepared), slack, initial);
        self.cap = fresh.cap;
        self.items = fresh.items;
        self.complete = fresh.complete;
        diff_visible(last_visible, self.visible())
    }

    fn maintenance_error(&self) -> Option<String> {
        let limit = self.limit?;
        if !self.complete && self.items.len() < self.offset + limit {
            Some(format!(
                "slack exhausted: {} items maintained, {} required, window incomplete",
                self.items.len(),
                self.offset + limit
            ))
        } else {
            None
        }
    }

    fn position_of(&self, key: &Key) -> Option<usize> {
        self.items.iter().position(|i| &i.key == key)
    }

    fn insert_position(&self, item: &WindowItem) -> usize {
        self.items
            .binary_search_by(|probe| {
                self.prepared.cmp_items((&probe.key, &probe.doc), (&item.key, &item.doc))
            })
            .unwrap_or_else(|p| p)
    }
}

/// Computes the edit script turning `before` into `after`.
///
/// The script is sequentially applicable to a client-side list: removals
/// are emitted first (descending positions), then per-position inserts and
/// moves (ascending).
pub fn diff_visible(before: &[WindowItem], after: &[WindowItem]) -> Vec<VisibleEvent> {
    diff_visible_hinted(before, after, None)
}

/// Like [`diff_visible`], with a hint naming the single written key. A write
/// can reorder at most that one item among survivors, so the hint lets the
/// script attribute `changeIndex` to the item that actually changed (the
/// paper's semantics: "result member was updated and changed its position")
/// instead of to whichever survivor the generic walk reaches first.
pub fn diff_visible_hinted(
    before: &[WindowItem],
    after: &[WindowItem],
    hint: Option<&Key>,
) -> Vec<VisibleEvent> {
    edit_script(before.iter().map(|i| (&i.key, i.version)).collect(), after, hint)
}

/// The edit script from a list known by key and version (`work`, consumed
/// as the client-side list the script is played on) to `after`. Keys are
/// borrowed throughout; an event copies what it carries.
fn edit_script<'a>(
    mut work: Vec<(&'a Key, Version)>,
    after: &'a [WindowItem],
    hint: Option<&Key>,
) -> Vec<VisibleEvent> {
    let mut events = Vec::new();
    // 1. Removals, highest index first so earlier indices stay valid.
    for i in (0..work.len()).rev() {
        if !after.iter().any(|a| &a.key == work[i].0) {
            let (key, version) = work.remove(i);
            events.push(VisibleEvent::Remove { key: key.clone(), version, old_index: i });
        }
    }
    // 2. If the written item survived and moved, emit its move first.
    if let Some(hint) = hint {
        let cur = work.iter().position(|(k, _)| *k == hint);
        let target = after.iter().position(|a| &a.key == hint);
        if let (Some(cur), Some(tgt)) = (cur, target) {
            if cur != tgt && tgt <= work.len() {
                let item = &after[tgt];
                work.remove(cur);
                work.insert(tgt.min(work.len()), (&item.key, item.version));
                events.push(VisibleEvent::ChangeIndex {
                    item: item.clone(),
                    old_index: cur,
                    index: tgt,
                });
            }
        }
    }
    // 3. Walk the target list; insert or move to each remaining position.
    for (i, target) in after.iter().enumerate() {
        if let Some((key, version)) = work.get(i) {
            if **key == target.key {
                if *version != target.version {
                    events.push(VisibleEvent::Change { item: target.clone(), index: i });
                    work[i].1 = target.version;
                }
                continue;
            }
        }
        match work.iter().position(|(k, _)| **k == target.key) {
            Some(j) => {
                // The item exists later in the list: it moved here.
                work.remove(j);
                work.insert(i, (&target.key, target.version));
                events.push(VisibleEvent::ChangeIndex { item: target.clone(), old_index: j, index: i });
            }
            None => {
                work.insert(i, (&target.key, target.version));
                events.push(VisibleEvent::Add { item: target.clone(), index: i });
            }
        }
    }
    events
}

/// Applies an edit script to a client-side list — the client algorithm the
/// indices are designed for (used by `invalidb-client` and by tests).
pub fn apply_events(list: &mut Vec<WindowItem>, events: &[VisibleEvent]) {
    for ev in events {
        match ev {
            VisibleEvent::Add { item, index } => {
                list.insert((*index).min(list.len()), item.clone());
            }
            VisibleEvent::Change { item, index } => {
                if let Some(slot) = list.get_mut(*index) {
                    *slot = item.clone();
                }
            }
            VisibleEvent::ChangeIndex { item, old_index, index } => {
                if *old_index < list.len() {
                    list.remove(*old_index);
                }
                list.insert((*index).min(list.len()), item.clone());
            }
            VisibleEvent::Remove { old_index, .. } => {
                if *old_index < list.len() {
                    list.remove(*old_index);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, QuerySpec, SortDirection};
    use invalidb_query::{MongoQueryEngine, QueryEngine};

    fn prepared(offset: u64, limit: u64) -> Arc<dyn PreparedQuery> {
        let spec = QuerySpec::filter("articles", doc! {})
            .sorted_by("year", SortDirection::Desc)
            .with_offset(offset)
            .with_limit(limit);
        MongoQueryEngine.prepare(&spec).unwrap()
    }

    fn item(id: i64, year: i64, version: Version) -> ResultItem {
        ResultItem::new(Key::of(id), version, doc! { "title" => format!("art-{id}"), "year" => year })
    }

    /// Figure 3's data: offset 2, limit 3, slack 1 → 6 bootstrap items.
    fn figure3_window() -> SortedWindow {
        let initial = vec![
            item(5, 2018, 1),
            item(8, 2018, 1),
            item(3, 2017, 1),
            item(4, 2017, 1),
            item(7, 2016, 1),
            item(9, 2016, 1),
        ];
        SortedWindow::new(prepared(2, 3), 1, &initial)
    }

    fn visible_ids(w: &SortedWindow) -> Vec<i64> {
        w.visible()
            .iter()
            .map(|i| match &i.key.0 {
                invalidb_common::Value::Int(v) => *v,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn figure3_initial_window() {
        let w = figure3_window();
        assert_eq!(w.len(), 6);
        assert_eq!(visible_ids(&w), vec![3, 4, 7], "result = BaaS, Query Languages, Streams");
        assert_eq!(w.current_slack(), 1);
        assert!(!w.is_complete(), "bootstrap filled the rewritten limit");
    }

    #[test]
    fn figure3_offset_removal_shifts_result() {
        // Deleting 'No SQL!' (id 8, offset): 'BaaS' moves into the offset,
        // 'SaaS' (id 9, beyond limit) moves into the result.
        let mut w = figure3_window();
        let out = w.apply(&Key::of(8i64), 2, None);
        assert!(out.error.is_none());
        assert_eq!(visible_ids(&w), vec![4, 7, 9]);
        // Client sees: remove of 3 at index 0 (moved into offset), add of 9
        // at the end.
        assert_eq!(out.events.len(), 2);
        assert!(matches!(&out.events[0], VisibleEvent::Remove { old_index: 0, .. }));
        assert!(matches!(&out.events[1], VisibleEvent::Add { index: 2, .. }));
        assert_eq!(w.current_slack(), 0, "slack used up");
    }

    #[test]
    fn figure3_add_to_offset_pushes_result() {
        // A new 2019 article enters the offset: last offset item moves into
        // the result, last result item moves beyond the limit.
        let mut w = figure3_window();
        let new_doc = doc! { "title" => "fresh", "year" => 2019i64 };
        let out = w.apply(&Key::of(100i64), 1, Some(&new_doc));
        assert!(out.error.is_none());
        assert_eq!(visible_ids(&w), vec![8, 3, 4]);
        // 7 leaves the visible window, 8 enters at the top.
        assert!(matches!(&out.events[0], VisibleEvent::Remove { old_index: 2, .. }));
        assert!(matches!(&out.events[1], VisibleEvent::Add { index: 0, .. }));
        // Window was at cap: one item fell off the end.
        assert_eq!(w.len(), 6);
        assert!(!w.is_complete());
    }

    #[test]
    fn slack_exhaustion_raises_maintenance_error() {
        let mut w = figure3_window();
        assert!(w.apply(&Key::of(9i64), 2, None).error.is_none(), "slack absorbs first remove");
        let out = w.apply(&Key::of(7i64), 2, None);
        assert!(out.error.is_some(), "second remove exhausts the window");
        assert!(out.events.is_empty(), "no visible events on error");
    }

    #[test]
    fn complete_window_never_errors() {
        // Only 3 matching items exist for offset 2 + limit 3 + slack 1 = 6:
        // the window is complete and may shrink freely.
        let initial = vec![item(1, 2018, 1), item(2, 2017, 1), item(3, 2016, 1)];
        let mut w = SortedWindow::new(prepared(2, 3), 1, &initial);
        assert!(w.is_complete());
        assert_eq!(visible_ids(&w), vec![3]);
        let out = w.apply(&Key::of(3i64), 2, None);
        assert!(out.error.is_none());
        assert_eq!(visible_ids(&w), Vec::<i64>::new());
        let out = w.apply(&Key::of(2i64), 2, None);
        assert!(out.error.is_none());
        let out = w.apply(&Key::of(1i64), 2, None);
        assert!(out.error.is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn update_within_result_emits_change() {
        let mut w = figure3_window();
        // Update id 4's title only (sort key unchanged): same position.
        let out = w.apply(&Key::of(4i64), 2, Some(&doc! { "title" => "renamed", "year" => 2017i64 }));
        assert_eq!(out.events.len(), 1);
        assert!(matches!(&out.events[0], VisibleEvent::Change { index: 1, .. }));
    }

    #[test]
    fn update_moving_item_emits_change_index() {
        let mut w = figure3_window();
        // id 7 (year 2016, visible index 2) jumps to 2017.5-equivalent: use
        // 2017 and key ordering. Give it year 2018 → moves into the offset;
        // visible: remove 7, add 9.
        let out = w.apply(&Key::of(7i64), 2, Some(&doc! { "title" => "x", "year" => 2018i64 }));
        assert!(out.error.is_none());
        assert_eq!(visible_ids(&w), vec![8, 3, 4]);
        // Moves across the offset boundary are remove+add, not changeIndex.
        assert!(out.events.iter().any(|e| matches!(e, VisibleEvent::Remove { .. })));
        assert!(out.events.iter().any(|e| matches!(e, VisibleEvent::Add { .. })));

        // Now a move *within* the visible range: swap 3 and 4 by year bump.
        let mut w = figure3_window();
        let out = w.apply(
            &Key::of(4i64),
            2,
            Some(&doc! { "title" => "x", "year" => 2017i64, "boost" => 1i64 }),
        );
        // Same year, key 4 > key 3: no move. Instead bump year to 2017 with
        // key 2 — insert a fresh item that lands between.
        drop(out);
        let out = w.apply(&Key::of(3i64), 2, Some(&doc! { "title" => "x", "year" => 2016i64 }));
        // id 3 drops from 2017 to 2016: moves below id 4/7 but above 9
        // (key 3 < 7? canonical: year desc then key asc → 2016 items: 7, 9;
        // id 3 sorts before 7). Visible before: [3,4,7] after: [4,3,7]...
        assert!(out.error.is_none());
        assert_eq!(visible_ids(&w), vec![4, 3, 7]);
        assert!(
            out.events.iter().any(|e| matches!(e, VisibleEvent::ChangeIndex { .. })),
            "in-window move is a changeIndex: {:?}",
            out.events
        );
    }

    #[test]
    fn stale_version_ignored() {
        let mut w = figure3_window();
        let out = w.apply(&Key::of(4i64), 1, Some(&doc! { "title" => "stale", "year" => 1999i64 }));
        assert!(out.events.is_empty());
        assert_eq!(visible_ids(&w), vec![3, 4, 7]);
    }

    #[test]
    fn irrelevant_write_is_noop() {
        let mut w = figure3_window();
        // Unknown key sorting beyond the horizon while window is at cap.
        let out = w.apply(&Key::of(555i64), 1, Some(&doc! { "title" => "old", "year" => 1990i64 }));
        assert!(out.events.is_empty());
        assert!(!w.is_complete());
        // Unknown key, not matching (no doc = delete of unknown).
        let out = w.apply(&Key::of(556i64), 1, None);
        assert!(out.events.is_empty());
    }

    #[test]
    fn unbounded_sorted_query_keeps_everything() {
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc);
        let prepared = MongoQueryEngine.prepare(&spec).unwrap();
        let mut w = SortedWindow::new(prepared, 0, &[]);
        assert!(w.is_complete());
        for i in 0..50i64 {
            let out = w.apply(&Key::of(i), 1, Some(&doc! { "n" => 50 - i }));
            assert!(out.error.is_none());
            assert_eq!(out.events.len(), 1);
        }
        assert_eq!(w.len(), 50);
        assert_eq!(w.visible().len(), 50);
        // Ordered ascending by n.
        let ns: Vec<i64> =
            w.visible().iter().map(|i| i.doc.get("n").unwrap().as_i64().unwrap()).collect();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        assert_eq!(ns, sorted);
    }

    #[test]
    fn reseed_emits_delta_from_last_valid_state() {
        let mut w = figure3_window();
        let last = w.snapshot_visible();
        // Renewal returns a fresh result where id 4 is gone and id 11 is new.
        let fresh = vec![
            item(5, 2018, 1),
            item(8, 2018, 1),
            item(3, 2017, 1),
            item(11, 2017, 1),
            item(7, 2016, 1),
            item(9, 2016, 1),
        ];
        let events = w.reseed(1, &fresh, &last);
        assert_eq!(visible_ids(&w), vec![3, 11, 7]);
        // Client held [3, 4, 7]: one remove (4), one add (11).
        let mut client: Vec<WindowItem> = last;
        apply_events(&mut client, &events);
        let ids: Vec<String> = client.iter().map(|i| i.key.to_string()).collect();
        assert_eq!(ids, vec!["3", "11", "7"]);
    }

    #[test]
    fn client_replay_matches_window_through_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBA0E);
        for trial in 0..50 {
            let mut w = figure3_window();
            let mut client = w.snapshot_visible();
            let mut versions = std::collections::HashMap::new();
            for (id, v) in [(5i64, 1u64), (8, 1), (3, 1), (4, 1), (7, 1), (9, 1)] {
                versions.insert(id, v);
            }
            for _step in 0..60 {
                let id = rng.gen_range(0..15i64);
                let ver = versions.entry(id).or_insert(0);
                *ver += 1;
                let out = if rng.gen_bool(0.25) {
                    w.apply(&Key::of(id), *ver, None)
                } else {
                    let year = rng.gen_range(2014..2021i64);
                    w.apply(&Key::of(id), *ver, Some(&doc! { "title" => "t", "year" => year }))
                };
                if out.error.is_some() {
                    break; // renewal path covered elsewhere
                }
                apply_events(&mut client, &out.events);
                let expect: Vec<&Key> = w.visible().iter().map(|i| &i.key).collect();
                let got: Vec<&Key> = client.iter().map(|i| &i.key).collect();
                assert_eq!(got, expect, "trial {trial} diverged");
            }
        }
    }
}
