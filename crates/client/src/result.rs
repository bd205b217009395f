//! Client-side result maintenance.
//!
//! A [`LiveResult`] applies the notification stream of one real-time query
//! to a local list, exactly as InvaliDB's sorting stage expects its edit
//! scripts to be applied: `add` inserts at `index`, `changeIndex` moves from
//! `old_index` to `index`, `remove` deletes at `old_index`. Unsorted queries
//! carry no indices; membership is maintained by key.

use crate::server::ClientEvent;
use invalidb_common::{
    ChangeItem, Document, Key, MatchType, Notification, NotificationKind, ResultItem, Version,
};

/// One entry of a maintained result.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveEntry {
    /// Primary key.
    pub key: Key,
    /// Version last seen.
    pub version: Version,
    /// Record content.
    pub doc: Document,
}

/// A locally maintained query result.
#[derive(Debug, Clone, Default)]
pub struct LiveResult {
    entries: Vec<LiveEntry>,
    /// Set after a maintenance error until the renewal delta arrives.
    degraded: bool,
    /// Client-side staleness avoidance for *unsorted* results (mirrors the
    /// matching nodes' scheme, §5.1): newest version seen per key —
    /// including tombstones — so that notifications arriving out of order
    /// over a misbehaving channel never resurrect old state. Sorted edit
    /// scripts are index-based and assume an ordered channel (like the
    /// production WebSocket), so they bypass this map.
    seen_versions: std::collections::HashMap<Key, Version>,
}

impl LiveResult {
    /// Empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current entries in result order.
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

    /// Keys in result order.
    pub fn keys(&self) -> Vec<Key> {
        self.entries.iter().map(|e| e.key.clone()).collect()
    }

    /// True between a maintenance error and the renewal delta.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Applies one notification.
    pub fn apply(&mut self, notification: &Notification) {
        match &notification.kind {
            NotificationKind::InitialResult { items } => self.reset(items),
            NotificationKind::Change(change) => self.apply_change(change),
            // Keep the last valid state; the renewal delta follows.
            NotificationKind::Error(_) => self.degraded = true,
            // Aggregate values are not item lists; handled at the
            // subscription level (`Subscription::aggregate`).
            NotificationKind::Aggregate { .. } => {}
        }
    }

    /// Applies one client event, by reference: the only thing copied is
    /// what this result keeps for itself.
    pub fn apply_event(&mut self, event: &ClientEvent) {
        match event {
            ClientEvent::Initial(items) => self.reset(items),
            ClientEvent::Change(change) => self.apply_change(change),
            ClientEvent::MaintenanceError(_) => self.degraded = true,
            ClientEvent::ConnectionLost | ClientEvent::Aggregate { .. } => {}
        }
    }

    /// Replaces the result wholesale (initial result or renewal).
    fn reset(&mut self, items: &[ResultItem]) {
        self.entries = items.iter().filter_map(entry_of).collect();
        self.seen_versions = items.iter().map(|i| (i.key.clone(), i.version)).collect();
        self.degraded = false;
    }

    fn apply_change(&mut self, change: &ChangeItem) {
        // Any change ends the degraded phase a maintenance error began.
        self.degraded = false;
        // Unsorted notifications (no index): guard against reordered
        // delivery by version. Removes pass on *equal* versions too: a
        // poll-and-diff provider can only report the last version it saw
        // (the tombstone version is unknowable from a result diff), and a
        // remove of the version we hold is never stale.
        if change.item.index.is_none() && change.old_index.is_none() {
            let is_stale = |seen: Version| {
                if change.match_type == MatchType::Remove {
                    change.item.version < seen
                } else {
                    change.item.version <= seen
                }
            };
            // Updated in place: a key is copied the first time it is seen.
            match self.seen_versions.get_mut(&change.item.key) {
                Some(seen) if is_stale(*seen) => return,
                Some(seen) => *seen = change.item.version,
                None if is_stale(0) => return,
                None => {
                    self.seen_versions.insert(change.item.key.clone(), change.item.version);
                }
            }
        }
        match change.match_type {
            MatchType::Add => match (entry_of(&change.item), change.item.index) {
                (Some(entry), Some(index)) => {
                    let at = (index as usize).min(self.entries.len());
                    self.entries.insert(at, entry);
                }
                (Some(entry), None) => {
                    // Unsorted: dedupe by key, append.
                    self.remove_key(&change.item.key);
                    self.entries.push(entry);
                }
                (None, _) => {}
            },
            MatchType::Change => {
                if let Some(entry) = entry_of(&change.item) {
                    match change.item.index {
                        Some(index) if (index as usize) < self.entries.len() => {
                            self.entries[index as usize] = entry;
                        }
                        _ => {
                            // Unsorted change is an UPSERT: when delivery is
                            // reordered, a `change` can overtake the `add`
                            // that establishes membership — the version
                            // guard above already proved this event is the
                            // newest state, so membership follows from it.
                            self.remove_key(&change.item.key);
                            self.entries.push(entry);
                        }
                    }
                }
            }
            MatchType::ChangeIndex => {
                if let Some(entry) = entry_of(&change.item) {
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

    fn remove_key(&mut self, key: &Key) {
        self.entries.retain(|e| &e.key != key);
    }
}

fn entry_of(item: &ResultItem) -> Option<LiveEntry> {
    item.doc.as_ref().map(|doc| LiveEntry {
        key: item.key.clone(),
        version: item.version,
        doc: doc.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, SubscriptionId, TenantId};

    fn note(kind: NotificationKind) -> Notification {
        Notification {
            tenant: TenantId::new("t"),
            subscription: SubscriptionId(1),
            kind,
            caused_by_write_at: 0,
            trace: None,
        }
    }

    fn item(key: &str, version: Version, index: Option<u64>) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: Some(doc! { "k" => key }), index }
    }

    #[test]
    fn initial_result_replaces() {
        let mut r = LiveResult::new();
        r.apply(&note(NotificationKind::InitialResult {
            items: vec![item("a", 1, Some(0)), item("b", 1, Some(1))],
        }));
        assert_eq!(r.len(), 2);
        assert_eq!(r.keys(), vec![Key::of("a"), Key::of("b")]);
    }

    #[test]
    fn sorted_edit_script() {
        let mut r = LiveResult::new();
        r.apply(&note(NotificationKind::InitialResult {
            items: vec![item("a", 1, Some(0)), item("b", 1, Some(1)), item("c", 1, Some(2))],
        }));
        // remove b (index 1)
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Remove,
            item: ResultItem { key: Key::of("b"), version: 2, doc: None, index: None },
            old_index: Some(1),
        })));
        assert_eq!(r.keys(), vec![Key::of("a"), Key::of("c")]);
        // add d at 1
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Add,
            item: item("d", 1, Some(1)),
            old_index: None,
        })));
        assert_eq!(r.keys(), vec![Key::of("a"), Key::of("d"), Key::of("c")]);
        // move a from 0 to 2
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::ChangeIndex,
            item: item("a", 2, Some(2)),
            old_index: Some(0),
        })));
        assert_eq!(r.keys(), vec![Key::of("d"), Key::of("c"), Key::of("a")]);
        // change c in place
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Change,
            item: item("c", 5, Some(1)),
            old_index: None,
        })));
        assert_eq!(r.entries()[1].version, 5);
    }

    #[test]
    fn unsorted_membership_by_key() {
        let mut r = LiveResult::new();
        r.apply(&note(NotificationKind::InitialResult { items: vec![item("a", 1, None)] }));
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Add,
            item: item("b", 1, None),
            old_index: None,
        })));
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Change,
            item: item("a", 2, None),
            old_index: None,
        })));
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Remove,
            item: ResultItem { key: Key::of("b"), version: 2, doc: None, index: None },
            old_index: None,
        })));
        assert_eq!(r.keys(), vec![Key::of("a")]);
        assert_eq!(r.entries()[0].version, 2);
    }

    #[test]
    fn error_marks_degraded_until_next_data() {
        let mut r = LiveResult::new();
        r.apply(&note(NotificationKind::InitialResult { items: vec![item("a", 1, Some(0))] }));
        r.apply(&note(NotificationKind::Error(invalidb_common::MaintenanceError {
            reason: "slack exhausted".into(),
        })));
        assert!(r.is_degraded());
        assert_eq!(r.len(), 1, "keeps last valid state");
        r.apply(&note(NotificationKind::Change(ChangeItem {
            match_type: MatchType::Add,
            item: item("b", 1, Some(1)),
            old_index: None,
        })));
        assert!(!r.is_degraded());
    }
}
