//! Poll-and-diff (§3.1): Meteor's original real-time query mechanism.
//!
//! Every subscription re-executes its query against the database on a fixed
//! interval ("poll", default in Meteor: 10 s) and diffs the fresh result
//! against the last known one ("diff"). Expressiveness is inherited from
//! the pull engine in full — but staleness is bounded only by the interval,
//! and every active subscription inflicts recurring query load on the
//! database, which is what makes the approach collapse with many
//! concurrent real-time queries.

use crate::provider::{Capabilities, ChannelLive, LiveQuery, RealTimeProvider};
use invalidb_client::ClientEvent;
use invalidb_common::{ChangeItem, Key, MatchType, QuerySpec, ResultItem, Version};
use invalidb_core::window::{diff_visible, VisibleEvent, WindowItem};
use invalidb_store::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The poll-and-diff provider.
pub struct PollAndDiff {
    store: Arc<Store>,
    interval: Duration,
    shutdown: Arc<AtomicBool>,
    polls: Arc<AtomicU64>,
}

impl PollAndDiff {
    /// Creates a provider polling at `interval`.
    pub fn new(store: Arc<Store>, interval: Duration) -> Self {
        Self {
            store,
            interval,
            shutdown: Arc::new(AtomicBool::new(false)),
            polls: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total pull queries executed so far — the database load this
    /// mechanism inflicts (1 000 subscriptions at a 10 s interval average
    /// 100 queries/s against the store, §3.1).
    pub fn polls_executed(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

impl Drop for PollAndDiff {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

impl RealTimeProvider for PollAndDiff {
    fn name(&self) -> &'static str {
        "poll-and-diff"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scales_with_write_throughput: true,
            scales_with_queries: false,
            lag_free: false,
            composition: true,
            ordering: true,
            limit: true,
            offset: true,
        }
    }

    fn subscribe(&self, spec: &QuerySpec) -> Result<Box<dyn LiveQuery>, String> {
        let initial = self.store.execute(spec).map_err(|e| e.to_string())?;
        self.polls.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = crossbeam::channel::unbounded();
        let _ = tx.send(ClientEvent::Initial(initial.clone()));
        let cancelled = Arc::new(AtomicBool::new(false));
        {
            let store = Arc::clone(&self.store);
            let spec = spec.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let cancelled = Arc::clone(&cancelled);
            let polls = Arc::clone(&self.polls);
            let interval = self.interval;
            std::thread::Builder::new()
                .name("poll-and-diff".into())
                .spawn(move || {
                    let mut last = initial;
                    while !shutdown.load(Ordering::Relaxed) && !cancelled.load(Ordering::Relaxed) {
                        std::thread::sleep(interval);
                        let fresh = match store.execute(&spec) {
                            Ok(r) => r,
                            Err(_) => continue,
                        };
                        polls.fetch_add(1, Ordering::Relaxed);
                        for change in diff_results(&spec, &last, &fresh) {
                            if tx.send(ClientEvent::Change(Arc::new(change))).is_err() {
                                return; // subscriber gone
                            }
                        }
                        last = fresh;
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        let cancel = move || cancelled.store(true, Ordering::Relaxed);
        Ok(Box::new(ChannelLive {
            rx,
            result: invalidb_client::LiveResult::new(),
            on_drop: Some(Box::new(cancel)),
        }))
    }
}

/// Diffs two pull results into change items.
pub(crate) fn diff_results(spec: &QuerySpec, old: &[ResultItem], new: &[ResultItem]) -> Vec<ChangeItem> {
    if spec.sort.is_empty() {
        diff_unordered(old, new)
    } else {
        let to_window = |items: &[ResultItem]| -> Vec<WindowItem> {
            items
                .iter()
                .filter_map(|r| {
                    r.doc.as_ref().map(|d| WindowItem {
                        key: r.key.clone(),
                        version: r.version,
                        doc: Arc::new(d.clone()),
                    })
                })
                .collect()
        };
        diff_visible(&to_window(old), &to_window(new)).iter().map(visible_to_change).collect()
    }
}

fn diff_unordered(old: &[ResultItem], new: &[ResultItem]) -> Vec<ChangeItem> {
    let old_map: HashMap<&Key, Version> = old.iter().map(|r| (&r.key, r.version)).collect();
    let new_map: HashMap<&Key, Version> = new.iter().map(|r| (&r.key, r.version)).collect();
    let mut changes = Vec::new();
    for r in old {
        if !new_map.contains_key(&r.key) {
            changes.push(ChangeItem {
                match_type: MatchType::Remove,
                item: ResultItem { key: r.key.clone(), version: r.version, doc: None, index: None },
                old_index: None,
            });
        }
    }
    for r in new {
        match old_map.get(&r.key) {
            None => changes.push(ChangeItem {
                match_type: MatchType::Add,
                item: ResultItem {
                    key: r.key.clone(),
                    version: r.version,
                    doc: r.doc.clone(),
                    index: None,
                },
                old_index: None,
            }),
            Some(&v) if v != r.version => changes.push(ChangeItem {
                match_type: MatchType::Change,
                item: ResultItem {
                    key: r.key.clone(),
                    version: r.version,
                    doc: r.doc.clone(),
                    index: None,
                },
                old_index: None,
            }),
            _ => {}
        }
    }
    changes
}

pub(crate) fn visible_to_change(ev: &VisibleEvent) -> ChangeItem {
    match ev {
        VisibleEvent::Add { item, index } => ChangeItem {
            match_type: MatchType::Add,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some((*item.doc).clone()),
                index: Some(*index as u64),
            },
            old_index: None,
        },
        VisibleEvent::Change { item, index } => ChangeItem {
            match_type: MatchType::Change,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some((*item.doc).clone()),
                index: Some(*index as u64),
            },
            old_index: None,
        },
        VisibleEvent::ChangeIndex { item, old_index, index } => ChangeItem {
            match_type: MatchType::ChangeIndex,
            item: ResultItem {
                key: item.key.clone(),
                version: item.version,
                doc: Some((*item.doc).clone()),
                index: Some(*index as u64),
            },
            old_index: Some(*old_index as u64),
        },
        VisibleEvent::Remove { key, version, old_index } => ChangeItem {
            match_type: MatchType::Remove,
            item: ResultItem { key: key.clone(), version: *version, doc: None, index: None },
            old_index: Some(*old_index as u64),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn subscription_sees_changes_within_interval() {
        let store = Arc::new(Store::new());
        let provider = PollAndDiff::new(Arc::clone(&store), Duration::from_millis(20));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 5i64 } });
        let mut sub = provider.subscribe(&spec).unwrap();
        assert!(matches!(sub.next_event(Duration::from_secs(1)), Some(ClientEvent::Initial(_))));
        store.insert("t", Key::of(1i64), doc! { "n" => 9i64 }).unwrap();
        match sub.next_event(Duration::from_secs(2)) {
            Some(ClientEvent::Change(c)) => assert_eq!(c.match_type, MatchType::Add),
            other => panic!("expected add, got {other:?}"),
        }
        assert!(provider.polls_executed() >= 2, "polling inflicts pull queries");
    }

    #[test]
    fn sorted_diffs_carry_indices() {
        let store = Arc::new(Store::new());
        for (k, n) in [("a", 1i64), ("b", 3)] {
            store.insert("t", Key::of(k), doc! { "n" => n }).unwrap();
        }
        let provider = PollAndDiff::new(Arc::clone(&store), Duration::from_millis(20));
        let spec = QuerySpec::filter("t", doc! {})
            .sorted_by("n", invalidb_common::SortDirection::Asc)
            .with_limit(10);
        let mut sub = provider.subscribe(&spec).unwrap();
        sub.next_event(Duration::from_secs(1)).unwrap();
        store.insert("t", Key::of("c"), doc! { "n" => 2i64 }).unwrap();
        match sub.next_event(Duration::from_secs(2)) {
            Some(ClientEvent::Change(c)) => {
                assert_eq!(c.match_type, MatchType::Add);
                assert_eq!(c.item.index, Some(1), "inserted between a and b");
            }
            other => panic!("expected add, got {other:?}"),
        }
        assert_eq!(sub.result().keys(), vec![Key::of("a"), Key::of("c"), Key::of("b")]);
    }

    #[test]
    fn staleness_is_bounded_by_interval_not_zero() {
        let store = Arc::new(Store::new());
        let provider = PollAndDiff::new(Arc::clone(&store), Duration::from_millis(150));
        let spec = QuerySpec::filter("t", doc! {});
        let mut sub = provider.subscribe(&spec).unwrap();
        sub.next_event(Duration::from_secs(1)).unwrap();
        let t0 = std::time::Instant::now();
        store.insert("t", Key::of(1i64), doc! {}).unwrap();
        sub.next_event(Duration::from_secs(2)).expect("eventually notified");
        assert!(t0.elapsed() >= Duration::from_millis(50), "not lag-free");
    }

    #[test]
    fn unordered_diff_classifies() {
        let mk = |k: &str, v: Version| ResultItem::new(Key::of(k), v, doc! {});
        let old = vec![mk("a", 1), mk("b", 1)];
        let new = vec![mk("b", 2), mk("c", 1)];
        let spec = QuerySpec::filter("t", doc! {});
        let changes = diff_results(&spec, &old, &new);
        let kinds: Vec<MatchType> = changes.iter().map(|c| c.match_type).collect();
        assert_eq!(kinds, vec![MatchType::Remove, MatchType::Change, MatchType::Add]);
    }
}
