//! Notification coalescing — an *extension* implementing §8.1's client-
//! performance direction: "collapsing write operations and change
//! notifications to mitigate write hotspots", for consumers on weak devices
//! or metered links.
//!
//! [`collapse`] reduces a batch of change notifications to its *net effect*:
//! for every key only the final state survives, intermediate hot-key churn
//! disappears, and add→remove pairs cancel entirely. Aggregate updates
//! collapse to the latest value. Events carrying sorted-query indices pass
//! through untouched — index-based edit scripts are sequential and must not
//! be reordered; hotspot mitigation for sorted queries happens naturally,
//! since only window-crossing writes reach the client at all.

use crate::server::ClientEvent;
use invalidb_common::{ChangeItem, Key, MatchType};
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Net {
    /// Entered the result within this batch.
    Added,
    /// Was in the result before the batch and changed.
    Changed,
    /// Was in the result before the batch and left.
    Removed,
}

struct KeyState {
    net: Net,
    latest: Arc<ChangeItem>,
}

/// Collapses a batch of client events to its net effect. Ordering among
/// surviving events follows each key's last occurrence.
pub fn collapse(events: Vec<ClientEvent>) -> Vec<ClientEvent> {
    let mut out: Vec<ClientEvent> = Vec::new();
    // (key, state) in last-touched order; batches are small, linear is fine.
    let mut keys: Vec<(Key, KeyState)> = Vec::new();
    let mut latest_aggregate: Option<ClientEvent> = None;
    for ev in events {
        match ev {
            ClientEvent::Change(c) if c.item.index.is_none() && c.old_index.is_none() => {
                let key = c.item.key.clone();
                let pos = keys.iter().position(|(k, _)| *k == key);
                match pos {
                    None => {
                        let net = match c.match_type {
                            MatchType::Add => Net::Added,
                            MatchType::Remove => Net::Removed,
                            _ => Net::Changed,
                        };
                        keys.push((key, KeyState { net, latest: c }));
                    }
                    Some(i) => {
                        let (_, state) = &mut keys[i];
                        state.net = match (state.net, c.match_type) {
                            // Appeared and disappeared within the batch:
                            // nothing to tell the client.
                            (Net::Added, MatchType::Remove) => {
                                keys.remove(i);
                                continue;
                            }
                            (Net::Added, _) => Net::Added,
                            (Net::Removed, MatchType::Add) => Net::Changed,
                            (Net::Removed, _) => Net::Removed,
                            (Net::Changed, MatchType::Remove) => Net::Removed,
                            (Net::Changed, _) => Net::Changed,
                        };
                        state.latest = c;
                        // Move to the back: last-touched order.
                        let entry = keys.remove(i);
                        keys.push(entry);
                    }
                }
            }
            ClientEvent::Aggregate { .. } => latest_aggregate = Some(ev),
            // Initial results, errors, connection loss and index-carrying
            // (sorted) events pass through in place.
            other => out.push(other),
        }
    }
    for (_, state) in keys {
        let mut item = Arc::unwrap_or_clone(state.latest);
        item.match_type = match state.net {
            Net::Added => MatchType::Add,
            Net::Changed => {
                if item.match_type == MatchType::Remove {
                    MatchType::Remove // Removed→Add handled above; keep safe
                } else {
                    MatchType::Change
                }
            }
            Net::Removed => MatchType::Remove,
        };
        // A net remove reported via an earlier doc-carrying event must not
        // leak content.
        if item.match_type == MatchType::Remove {
            item.item.doc = None;
        }
        out.push(ClientEvent::Change(Arc::new(item)));
    }
    if let Some(agg) = latest_aggregate {
        out.push(agg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, ResultItem, Value};

    fn change(mt: MatchType, key: &str, version: u64, n: i64) -> ClientEvent {
        ClientEvent::Change(Arc::new(ChangeItem {
            match_type: mt,
            item: ResultItem {
                key: Key::of(key),
                version,
                doc: (mt != MatchType::Remove).then(|| doc! { "n" => n }),
                index: None,
            },
            old_index: None,
        }))
    }

    fn kinds(events: &[ClientEvent]) -> Vec<(MatchType, String)> {
        events
            .iter()
            .filter_map(|e| match e {
                ClientEvent::Change(c) => Some((c.match_type, c.item.key.to_string())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hot_key_churn_collapses_to_one_change() {
        let events = vec![
            change(MatchType::Change, "k", 2, 1),
            change(MatchType::Change, "k", 3, 2),
            change(MatchType::Change, "k", 4, 3),
        ];
        let out = collapse(events);
        assert_eq!(kinds(&out), vec![(MatchType::Change, "\"k\"".into())]);
        match &out[0] {
            ClientEvent::Change(c) => {
                assert_eq!(c.item.version, 4);
                assert_eq!(c.item.doc.as_ref().unwrap().get("n"), Some(&Value::Int(3)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn add_then_remove_cancels() {
        let events = vec![
            change(MatchType::Add, "k", 1, 1),
            change(MatchType::Change, "k", 2, 2),
            change(MatchType::Remove, "k", 3, 0),
        ];
        assert!(collapse(events).is_empty());
    }

    #[test]
    fn add_then_changes_stays_add_with_latest_content() {
        let events = vec![change(MatchType::Add, "k", 1, 1), change(MatchType::Change, "k", 2, 9)];
        let out = collapse(events);
        assert_eq!(kinds(&out), vec![(MatchType::Add, "\"k\"".into())]);
        match &out[0] {
            ClientEvent::Change(c) => {
                assert_eq!(c.item.doc.as_ref().unwrap().get("n"), Some(&Value::Int(9)))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn remove_then_add_becomes_change() {
        let events = vec![change(MatchType::Remove, "k", 2, 0), change(MatchType::Add, "k", 3, 7)];
        let out = collapse(events);
        assert_eq!(kinds(&out), vec![(MatchType::Change, "\"k\"".into())]);
    }

    #[test]
    fn change_then_remove_is_remove_without_content() {
        let events = vec![change(MatchType::Change, "k", 2, 5), change(MatchType::Remove, "k", 3, 0)];
        let out = collapse(events);
        assert_eq!(kinds(&out), vec![(MatchType::Remove, "\"k\"".into())]);
        match &out[0] {
            ClientEvent::Change(c) => assert!(c.item.doc.is_none()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn independent_keys_keep_last_touched_order() {
        let events = vec![
            change(MatchType::Add, "a", 1, 1),
            change(MatchType::Add, "b", 1, 1),
            change(MatchType::Change, "a", 2, 2),
        ];
        let out = collapse(events);
        assert_eq!(
            kinds(&out),
            vec![(MatchType::Add, "\"b\"".into()), (MatchType::Add, "\"a\"".into())]
        );
    }

    #[test]
    fn aggregates_collapse_to_latest() {
        let events = vec![
            ClientEvent::Aggregate { value: Value::Int(1), count: 1 },
            ClientEvent::Aggregate { value: Value::Int(5), count: 3 },
        ];
        let out = collapse(events);
        assert_eq!(out, vec![ClientEvent::Aggregate { value: Value::Int(5), count: 3 }]);
    }

    #[test]
    fn sorted_events_pass_through_untouched() {
        let indexed = ClientEvent::Change(Arc::new(ChangeItem {
            match_type: MatchType::Add,
            item: ResultItem { key: Key::of("k"), version: 1, doc: Some(doc! {}), index: Some(0) },
            old_index: None,
        }));
        let out = collapse(vec![indexed.clone(), indexed.clone()]);
        assert_eq!(out.len(), 2, "index-based edit scripts are never collapsed");
    }

    #[test]
    fn initial_and_errors_pass_through_in_place() {
        let events = vec![
            ClientEvent::Initial(vec![]),
            change(MatchType::Add, "k", 1, 1),
            ClientEvent::MaintenanceError("x".into()),
        ];
        let out = collapse(events);
        assert!(matches!(out[0], ClientEvent::Initial(_)));
        assert!(matches!(out[1], ClientEvent::MaintenanceError(_)));
        assert!(matches!(out[2], ClientEvent::Change(_)));
    }
}
