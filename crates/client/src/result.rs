//! Client-side result maintenance.
//!
//! A [`LiveResult`] applies the notification stream of one real-time query
//! to a local list, exactly as InvaliDB's sorting stage expects its edit
//! scripts to be applied: `add` inserts at `index`, `changeIndex` moves from
//! `old_index` to `index`, `remove` deletes at `old_index`. Unsorted queries
//! carry no indices: their result is a set, held in key order, so a change
//! finds its key by binary search — O(log n) per change, not a pass over
//! the whole result.
//!
//! An entry does not copy its document: it shares the change that
//! delivered it, so a change addressed to N subscriptions is held once by
//! all N live results.

use crate::server::ClientEvent;
use invalidb_common::{
    ChangeItem, Document, Key, MatchType, Notification, NotificationKind, ResultItem, Version,
};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One entry of a maintained result.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveEntry {
    /// Primary key.
    pub key: Key,
    /// Version last seen.
    pub version: Version,
    /// Record content.
    pub doc: SharedDoc,
}

/// A read-only record document shared with whatever delivered it; derefs
/// to [`Document`].
#[derive(Clone)]
pub struct SharedDoc(Source);

#[derive(Clone)]
enum Source {
    /// The after-image of a delivered change (one whose `item.doc` is set).
    Change(Arc<ChangeItem>),
    /// One item of an initial result.
    Item(Arc<Document>),
}

impl SharedDoc {
    /// The after-image `change` carries, shared; `None` for a remove.
    fn of_change(change: &Arc<ChangeItem>) -> Option<Self> {
        change.item.doc.is_some().then(|| Self(Source::Change(Arc::clone(change))))
    }
}

impl Deref for SharedDoc {
    type Target = Document;

    fn deref(&self) -> &Document {
        static EMPTY: Document = Document::new();
        match &self.0 {
            // `of_change` never shares a change without a document.
            Source::Change(change) => change.item.doc.as_ref().unwrap_or(&EMPTY),
            Source::Item(doc) => doc,
        }
    }
}

impl PartialEq for SharedDoc {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for SharedDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A locally maintained query result.
#[derive(Debug, Clone, Default)]
pub struct LiveResult {
    /// In result order: sort order for a sorted query, key order for an
    /// unsorted one.
    entries: Vec<LiveEntry>,
    /// Set after a maintenance error until the renewal delta arrives.
    degraded: bool,
    /// Client-side staleness avoidance for *unsorted* results (mirrors the
    /// matching nodes' scheme, §5.1), so that notifications arriving out of
    /// order over a misbehaving channel never resurrect old state: the
    /// newest version seen of every key that is *not* held. A held key's
    /// version is its entry's. Sorted edit scripts are index-based and
    /// assume an ordered channel (like the production WebSocket), so they
    /// bypass the guard.
    tombstones: std::collections::HashMap<Key, Version>,
}

impl LiveResult {
    /// Empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current entries in result order: the query's sort order, or key
    /// order for an unsorted query (whose result is a set).
    pub fn entries(&self) -> &[LiveEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in result order (see [`LiveResult::entries`]).
    pub fn keys(&self) -> Vec<Key> {
        self.entries.iter().map(|e| e.key.clone()).collect()
    }

    /// The keys of an unsorted result that were notified but are not held,
    /// each with the newest version seen: what keeps a late notification
    /// from resurrecting a removed record. No key here is also an entry.
    pub fn tombstones(&self) -> impl Iterator<Item = (&Key, Version)> {
        self.tombstones.iter().map(|(key, version)| (key, *version))
    }

    /// True between a maintenance error and the renewal delta.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Applies one notification. The notification owns its change, so an
    /// entry made from it shares a copy; [`LiveResult::apply_event`] shares
    /// the delivered change itself.
    pub fn apply(&mut self, notification: &Notification) {
        match &notification.kind {
            NotificationKind::InitialResult { items } => self.reset(items),
            NotificationKind::Change(change) => self.apply_change(&Arc::new(change.clone())),
            // Keep the last valid state; the renewal delta follows.
            NotificationKind::Error(_) => self.degraded = true,
            // Aggregate values are not item lists; handled at the
            // subscription level (`Subscription::aggregate`).
            NotificationKind::Aggregate { .. } => {}
        }
    }

    /// Applies one client event, by reference: an entry it adds or changes
    /// shares the event's change, and copies only its key.
    pub fn apply_event(&mut self, event: &ClientEvent) {
        match event {
            ClientEvent::Initial(items) => self.reset(items),
            ClientEvent::Change(change) => self.apply_change(change),
            ClientEvent::MaintenanceError(_) => self.degraded = true,
            ClientEvent::ConnectionLost | ClientEvent::Aggregate { .. } => {}
        }
    }

    /// Replaces the result wholesale (initial result or renewal); each
    /// entry gets its document in an `Arc` of its own. Items without an
    /// index are an unsorted result and are put in key order.
    fn reset(&mut self, items: &[ResultItem]) {
        self.entries = items
            .iter()
            .filter_map(|item| {
                let doc = SharedDoc(Source::Item(Arc::new(item.doc.clone()?)));
                Some(entry(item, doc))
            })
            .collect();
        if items.iter().all(|item| item.index.is_none()) {
            self.entries.sort_by(|a, b| a.key.cmp(&b.key));
        }
        self.tombstones = items
            .iter()
            .filter(|item| item.doc.is_none())
            .map(|item| (item.key.clone(), item.version))
            .collect();
        self.degraded = false;
    }

    fn apply_change(&mut self, change: &Arc<ChangeItem>) {
        // Any change ends the degraded phase a maintenance error began.
        self.degraded = false;
        if change.item.index.is_none() && change.old_index.is_none() {
            self.apply_unsorted(change);
            return;
        }
        // The entry an add or change makes shares the change itself.
        let new_entry = || SharedDoc::of_change(change).map(|doc| entry(&change.item, doc));
        match change.match_type {
            MatchType::Add => match (new_entry(), change.item.index) {
                (Some(entry), Some(index)) => {
                    let at = (index as usize).min(self.entries.len());
                    self.entries.insert(at, entry);
                }
                (Some(entry), None) => {
                    self.remove_key(&change.item.key);
                    self.entries.push(entry);
                }
                (None, _) => {}
            },
            MatchType::Change => {
                if let Some(entry) = new_entry() {
                    match change.item.index {
                        Some(index) if (index as usize) < self.entries.len() => {
                            self.entries[index as usize] = entry;
                        }
                        _ => {
                            self.remove_key(&change.item.key);
                            self.entries.push(entry);
                        }
                    }
                }
            }
            MatchType::ChangeIndex => {
                if let Some(entry) = new_entry() {
                    if let Some(old) = change.old_index {
                        let old = old as usize;
                        if old < self.entries.len() {
                            self.entries.remove(old);
                        }
                    } else {
                        self.remove_key(&change.item.key);
                    }
                    let at = change.item.index.map(|i| i as usize).unwrap_or(self.entries.len());
                    self.entries.insert(at.min(self.entries.len()), entry);
                }
            }
            MatchType::Remove => match change.old_index {
                Some(old) if (old as usize) < self.entries.len() => {
                    self.entries.remove(old as usize);
                }
                _ => self.remove_key(&change.item.key),
            },
        }
    }

    /// One change of an unsorted result (no index): membership by key, the
    /// key found by binary search, guarded by version against reordered
    /// delivery. Removes pass on *equal* versions too: a poll-and-diff
    /// provider can only report the last version it saw (the tombstone
    /// version is unknowable from a result diff), and a remove of the
    /// version we hold is never stale.
    fn apply_unsorted(&mut self, change: &Arc<ChangeItem>) {
        let (key, version) = (&change.item.key, change.item.version);
        let at = self.entries.binary_search_by(|e| e.key.cmp(key));
        let seen = match at {
            Ok(i) => self.entries[i].version,
            Err(_) => self.tombstones.get(key).copied().unwrap_or(0),
        };
        let stale =
            if change.match_type == MatchType::Remove { version < seen } else { version <= seen };
        if stale {
            return;
        }
        if change.match_type == MatchType::Remove {
            match at {
                Ok(i) => {
                    let gone = self.entries.remove(i);
                    self.tombstones.insert(gone.key, version);
                }
                Err(_) => self.tombstone(key, version),
            }
            return;
        }
        // An add, change or changeIndex is an UPSERT: when delivery is
        // reordered, a `change` can overtake the `add` that establishes
        // membership — the version guard already proved this event is the
        // newest state, so membership follows from it. The entry shares the
        // change itself.
        match (SharedDoc::of_change(change), at) {
            (Some(doc), Ok(i)) => self.entries[i] = entry(&change.item, doc),
            (Some(doc), Err(i)) => {
                self.tombstones.remove(key);
                self.entries.insert(i, entry(&change.item, doc));
            }
            // Nothing to hold: a held key keeps its entry, an absent one
            // records the version.
            (None, Ok(_)) => {}
            (None, Err(_)) => self.tombstone(key, version),
        }
    }

    /// Records the newest version of a key that is not held; the key is
    /// copied the first time it is seen.
    fn tombstone(&mut self, key: &Key, version: Version) {
        match self.tombstones.get_mut(key) {
            Some(seen) => *seen = version,
            None => {
                self.tombstones.insert(key.clone(), version);
            }
        }
    }

    fn remove_key(&mut self, key: &Key) {
        self.entries.retain(|e| &e.key != key);
    }
}

/// The entry of `item`, holding `doc`: the key is the one copy it makes.
fn entry(item: &ResultItem, doc: SharedDoc) -> LiveEntry {
    LiveEntry { key: item.key.clone(), version: item.version, doc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, MaintenanceError, SubscriptionId, TenantId};

    fn note(kind: NotificationKind) -> Notification {
        Notification {
            tenant: TenantId::new("t"),
            subscription: SubscriptionId(1),
            kind,
            caused_by_write_at: 0,
            trace: None,
        }
    }

    /// The event the dispatcher makes of a notification's payload.
    fn event_of(kind: &NotificationKind) -> ClientEvent {
        match kind.clone() {
            NotificationKind::InitialResult { items } => ClientEvent::Initial(items),
            NotificationKind::Change(change) => ClientEvent::Change(Arc::new(change)),
            NotificationKind::Error(e) => ClientEvent::MaintenanceError(e.reason),
            NotificationKind::Aggregate { value, count } => ClientEvent::Aggregate { value, count },
        }
    }

    /// One result fed through `apply(&Notification)` and one through
    /// `apply_event`: the two must agree after every step.
    #[derive(Default)]
    struct Both {
        by_note: LiveResult,
        by_event: LiveResult,
    }

    impl Both {
        fn apply(&mut self, kind: NotificationKind) -> &LiveResult {
            self.by_event.apply_event(&event_of(&kind));
            self.by_note.apply(&note(kind));
            assert_eq!(self.by_note.entries(), self.by_event.entries());
            assert_eq!(self.by_note.is_degraded(), self.by_event.is_degraded());
            &self.by_event
        }
    }

    fn initial(items: Vec<ResultItem>) -> NotificationKind {
        NotificationKind::InitialResult { items }
    }

    fn change(match_type: MatchType, item: ResultItem, old_index: Option<u64>) -> NotificationKind {
        NotificationKind::Change(ChangeItem { match_type, item, old_index })
    }

    fn item(key: &str, version: Version, index: Option<u64>) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: Some(doc! { "k" => key }), index }
    }

    fn gone(key: &str, version: Version) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: None, index: None }
    }

    fn keys(keys: &[&str]) -> Vec<Key> {
        keys.iter().map(|k| Key::of(*k)).collect()
    }

    #[test]
    fn initial_result_replaces() {
        let mut r = Both::default();
        let r = r.apply(initial(vec![item("a", 1, Some(0)), item("b", 1, Some(1))]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.keys(), keys(&["a", "b"]));
    }

    #[test]
    fn sorted_edit_script() {
        let mut r = Both::default();
        r.apply(initial(vec![item("a", 1, Some(0)), item("b", 1, Some(1)), item("c", 1, Some(2))]));
        // remove b (index 1)
        let after = r.apply(change(MatchType::Remove, gone("b", 2), Some(1)));
        assert_eq!(after.keys(), keys(&["a", "c"]));
        // add d at 1
        let after = r.apply(change(MatchType::Add, item("d", 1, Some(1)), None));
        assert_eq!(after.keys(), keys(&["a", "d", "c"]));
        // move a from 0 to 2
        let after = r.apply(change(MatchType::ChangeIndex, item("a", 2, Some(2)), Some(0)));
        assert_eq!(after.keys(), keys(&["d", "c", "a"]));
        // change c in place
        let after = r.apply(change(MatchType::Change, item("c", 5, Some(1)), None));
        assert_eq!(after.entries()[1].version, 5);
    }

    #[test]
    fn unsorted_membership_by_key() {
        let mut r = Both::default();
        r.apply(initial(vec![item("a", 1, None)]));
        r.apply(change(MatchType::Add, item("b", 1, None), None));
        r.apply(change(MatchType::Change, item("a", 2, None), None));
        let r = r.apply(change(MatchType::Remove, gone("b", 2), None));
        assert_eq!(r.keys(), keys(&["a"]));
        assert_eq!(r.entries()[0].version, 2);
    }

    #[test]
    fn initial_add_change_remove_leaves_the_newest_entries() {
        let mut r = Both::default();
        // An unsorted initial result is put in key order.
        let start = r.apply(initial(vec![item("d", 1, None), item("b", 1, None), item("a", 1, None)]));
        assert_eq!(start.keys(), keys(&["a", "b", "d"]));
        r.apply(change(MatchType::Add, item("c", 1, None), None));
        let a3 = ResultItem::new(Key::of("a"), 3, doc! { "k" => "a", "n" => 3i64 });
        r.apply(change(MatchType::Change, a3, None));
        // A stale change of `c` is dropped by the version guard.
        r.apply(change(MatchType::Change, item("c", 1, None), None));
        r.apply(change(MatchType::Remove, gone("b", 2), None));
        // So is a late add of the removed `b`: its tombstone remembers v2.
        let r = r.apply(change(MatchType::Add, item("b", 2, None), None));
        let held: Vec<(Key, Version, Document)> =
            r.entries().iter().map(|e| (e.key.clone(), e.version, (*e.doc).clone())).collect();
        assert_eq!(
            held,
            [
                (Key::of("a"), 3, doc! { "k" => "a", "n" => 3i64 }),
                (Key::of("c"), 1, doc! { "k" => "c" }),
                (Key::of("d"), 1, doc! { "k" => "d" }),
            ],
            "key order, newest versions"
        );
        assert_eq!(r.tombstones().collect::<Vec<_>>(), [(&Key::of("b"), 2)]);
    }

    #[test]
    fn a_sorted_initial_result_keeps_its_order() {
        let mut r = Both::default();
        let r = r.apply(initial(vec![item("b", 1, Some(0)), item("a", 1, Some(1))]));
        assert_eq!(r.keys(), keys(&["b", "a"]));
    }

    #[test]
    fn results_applying_one_change_share_its_document() {
        let delivered = Arc::new(ChangeItem {
            match_type: MatchType::Add,
            item: item("a", 1, None),
            old_index: None,
        });
        let event = ClientEvent::Change(Arc::clone(&delivered));
        let (mut a, mut b) = (LiveResult::new(), LiveResult::new());
        a.apply_event(&event);
        b.apply_event(&event);
        assert!(std::ptr::eq(&*a.entries()[0].doc, &*b.entries()[0].doc));
        let sent = delivered.item.doc.as_ref().expect("an add carries its document");
        assert!(std::ptr::eq(&*a.entries()[0].doc, sent), "the entry is the delivered change");
    }

    #[test]
    fn error_marks_degraded_until_next_data() {
        let mut r = Both::default();
        r.apply(initial(vec![item("a", 1, Some(0))]));
        let erred =
            r.apply(NotificationKind::Error(MaintenanceError { reason: "slack exhausted".into() }));
        assert!(erred.is_degraded());
        assert_eq!(erred.len(), 1, "keeps last valid state");
        assert!(!r.apply(change(MatchType::Add, item("b", 1, Some(1)), None)).is_degraded());
    }
}
