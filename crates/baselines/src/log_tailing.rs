//! Log tailing (§3.1): the mechanism behind Meteor's oplog mode, RethinkDB
//! changefeeds and Parse LiveQuery.
//!
//! One consumer — conceptually the application server — tails the complete
//! database replication log and matches *every* active query against
//! *every* write. Notifications are lag-free and the approach scales with
//! the number of queries (add app servers, partition queries), but the
//! single log consumer must keep up with the combined write throughput of
//! all database partitions: the write stream is never partitioned, which is
//! the scale-prohibitive bottleneck the paper's 2-D scheme removes.
//!
//! Query support mirrors RethinkDB: composition and ordering with `limit`
//! are available, `offset` is not (Table 2).

use crate::poll_and_diff::visible_to_change;
use crate::provider::{Capabilities, ChannelLive, LiveQuery, RealTimeProvider};
use invalidb_client::ClientEvent;
use invalidb_common::{ChangeItem, Key, MatchType, QuerySpec, ResultItem, Version};
use invalidb_core::window::{apply_events, SortedWindow, WindowItem};
use invalidb_query::PreparedQuery;
use invalidb_store::{OplogCursor, OplogEntry, Store};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

enum SubState {
    Unsorted {
        result: HashMap<Key, Version>,
    },
    Sorted {
        window: SortedWindow,
        /// The subscriber's view (last valid visible state) — the baseline
        /// for renewal deltas, maintained by applying emitted edit scripts.
        client: Vec<WindowItem>,
    },
}

struct TailSub {
    spec: QuerySpec,
    prepared: Arc<dyn PreparedQuery>,
    state: SubState,
    tx: crossbeam::channel::Sender<ClientEvent>,
    slack: u64,
}

#[derive(Default)]
struct Registry {
    subs: HashMap<u64, TailSub>,
    next_id: u64,
}

/// The log-tailing provider. One tailer thread consumes the entire oplog.
pub struct LogTailing {
    store: Arc<Store>,
    registry: Arc<Mutex<Registry>>,
    shutdown: Arc<AtomicBool>,
    /// Writes processed by the single tailer — every write of every
    /// partition flows through here (the bottleneck).
    writes_processed: Arc<AtomicU64>,
    slack: u64,
}

impl LogTailing {
    /// Creates a provider tailing the store's oplog from its current head.
    pub fn new(store: Arc<Store>) -> Self {
        let registry: Arc<Mutex<Registry>> = Arc::new(Mutex::new(Registry::default()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let writes_processed = Arc::new(AtomicU64::new(0));
        {
            let mut cursor = OplogCursor::new(store.oplog(), store.oplog().head());
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            let writes_processed = Arc::clone(&writes_processed);
            let store = Arc::clone(&store);
            std::thread::Builder::new()
                .name("log-tailer".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Relaxed) {
                        for entry in cursor.poll_wait(Duration::from_millis(50)) {
                            writes_processed.fetch_add(1, Ordering::Relaxed);
                            let mut reg = registry.lock();
                            let mut dead = Vec::new();
                            for (id, sub) in reg.subs.iter_mut() {
                                if sub.spec.collection == entry.collection
                                    && !process_entry(sub, &entry, &store)
                                {
                                    dead.push(*id);
                                }
                            }
                            for id in dead {
                                reg.subs.remove(&id);
                            }
                        }
                    }
                })
                .expect("spawn log tailer");
        }
        Self { store, registry, shutdown, writes_processed, slack: 3 }
    }

    /// Writes the single tailer has matched so far.
    pub fn writes_processed(&self) -> u64 {
        self.writes_processed.load(Ordering::Relaxed)
    }

    /// Number of active subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        self.registry.lock().subs.len()
    }
}

impl Drop for LogTailing {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Returns `false` when the subscriber channel is gone.
fn process_entry(sub: &mut TailSub, entry: &OplogEntry, store: &Arc<Store>) -> bool {
    match &mut sub.state {
        SubState::Unsorted { result } => {
            let old = result.get(&entry.key).copied();
            if let Some(v) = old {
                if entry.version <= v {
                    return true;
                }
            }
            let matches = entry.doc.as_ref().is_some_and(|d| sub.prepared.matches(d));
            let match_type = match (old.is_some(), matches) {
                (false, true) => MatchType::Add,
                (true, true) => MatchType::Change,
                (true, false) => MatchType::Remove,
                (false, false) => return true,
            };
            if matches {
                result.insert(entry.key.clone(), entry.version);
            } else {
                result.remove(&entry.key);
            }
            sub.tx
                .send(ClientEvent::Change(Arc::new(ChangeItem {
                    match_type,
                    item: ResultItem {
                        key: entry.key.clone(),
                        version: entry.version,
                        doc: if matches { entry.doc.as_deref().cloned() } else { None },
                        index: None,
                    },
                    old_index: None,
                })))
                .is_ok()
        }
        SubState::Sorted { window, client } => {
            let outcome = window.apply(&entry.key, entry.version, entry.doc.as_deref());
            let events = if outcome.error.is_some() {
                // Co-located with the store: renew immediately (no broker
                // hop, no rate limit — one of log tailing's few perks). The
                // delta is computed from the client's last valid state.
                let rewritten = sub.spec.rewrite_for_bootstrap(sub.slack);
                match store.execute(&rewritten) {
                    Ok(fresh) => window.reseed(sub.slack, &fresh, client),
                    Err(_) => return true,
                }
            } else {
                outcome.events
            };
            apply_events(client, &events);
            for ev in &events {
                if sub.tx.send(ClientEvent::Change(Arc::new(visible_to_change(ev)))).is_err() {
                    return false;
                }
            }
            true
        }
    }
}

impl RealTimeProvider for LogTailing {
    fn name(&self) -> &'static str {
        "log-tailing"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scales_with_write_throughput: false,
            scales_with_queries: true,
            lag_free: true,
            composition: true,
            ordering: true,
            limit: true,
            offset: false,
        }
    }

    fn subscribe(&self, spec: &QuerySpec) -> Result<Box<dyn LiveQuery>, String> {
        if spec.offset > 0 {
            return Err("log tailing does not support offset clauses".into());
        }
        let prepared = self.store.prepare(spec).map_err(|e| e.to_string())?;
        let (tx, rx) = crossbeam::channel::unbounded();
        let (state, initial) = if spec.needs_sorting_stage() {
            let rewritten = spec.rewrite_for_bootstrap(self.slack);
            let bootstrap = self.store.execute(&rewritten).map_err(|e| e.to_string())?;
            let window = SortedWindow::new(Arc::clone(&prepared), self.slack, &bootstrap);
            let visible: Vec<ResultItem> = window
                .visible()
                .iter()
                .enumerate()
                .map(|(i, w)| ResultItem {
                    key: w.key.clone(),
                    version: w.version,
                    doc: Some((*w.doc).clone()),
                    index: Some(i as u64),
                })
                .collect();
            let client = window.snapshot_visible();
            (SubState::Sorted { window, client }, visible)
        } else {
            let initial = self.store.execute(spec).map_err(|e| e.to_string())?;
            let result = initial.iter().map(|r| (r.key.clone(), r.version)).collect();
            (SubState::Unsorted { result }, initial)
        };
        let _ = tx.send(ClientEvent::Initial(initial));
        let id = {
            let mut reg = self.registry.lock();
            let id = reg.next_id;
            reg.next_id += 1;
            reg.subs.insert(id, TailSub { spec: spec.clone(), prepared, state, tx, slack: self.slack });
            id
        };
        let registry = Arc::clone(&self.registry);
        let cancel = move || {
            registry.lock().subs.remove(&id);
        };
        Ok(Box::new(ChannelLive {
            rx,
            result: invalidb_client::LiveResult::new(),
            on_drop: Some(Box::new(cancel)),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, SortDirection};

    #[test]
    fn lag_free_notifications() {
        let store = Arc::new(Store::new());
        let provider = LogTailing::new(Arc::clone(&store));
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 5i64 } });
        let mut sub = provider.subscribe(&spec).unwrap();
        assert!(matches!(sub.next_event(Duration::from_secs(1)), Some(ClientEvent::Initial(_))));
        store.insert("t", Key::of(1i64), doc! { "n" => 7i64 }).unwrap();
        match sub.next_event(Duration::from_secs(2)) {
            Some(ClientEvent::Change(c)) => assert_eq!(c.match_type, MatchType::Add),
            other => panic!("expected add, got {other:?}"),
        }
        assert_eq!(provider.writes_processed(), 1);
    }

    #[test]
    fn single_consumer_sees_entire_write_stream() {
        let store = Arc::new(Store::new());
        let provider = LogTailing::new(Arc::clone(&store));
        let spec = QuerySpec::filter("t", doc! { "n" => 9_999i64 });
        let mut sub = provider.subscribe(&spec).unwrap();
        sub.next_event(Duration::from_secs(1)).unwrap();
        // 100 irrelevant writes: no notifications, but ALL processed by the
        // tailer — the bottleneck the paper's design removes.
        for i in 0..100i64 {
            store.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while provider.writes_processed() < 100 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(provider.writes_processed(), 100);
        assert!(sub.try_next_event().is_none());
    }

    #[test]
    fn sorted_with_limit_supported_offset_rejected() {
        let store = Arc::new(Store::new());
        for i in 0..5i64 {
            store.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
        }
        let provider = LogTailing::new(Arc::clone(&store));
        let offset_spec = QuerySpec::filter("t", doc! {}).with_offset(1);
        assert!(provider.subscribe(&offset_spec).is_err(), "offset unsupported (Table 2)");

        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
        let mut sub = provider.subscribe(&spec).unwrap();
        sub.next_event(Duration::from_secs(1)).unwrap();
        assert_eq!(sub.result().keys(), vec![Key::of(0i64), Key::of(1i64)]);
        // New smallest item enters at index 0.
        store.insert("t", Key::of(100i64), doc! { "n" => -1i64 }).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sub.result().keys() != vec![Key::of(100i64), Key::of(0i64)]
            && std::time::Instant::now() < deadline
        {
            let _ = sub.next_event(Duration::from_millis(50));
        }
        assert_eq!(sub.result().keys(), vec![Key::of(100i64), Key::of(0i64)]);
    }

    #[test]
    fn sorted_renewal_is_immediate() {
        let store = Arc::new(Store::new());
        for i in 0..10i64 {
            store.insert("t", Key::of(i), doc! { "n" => i }).unwrap();
        }
        let provider = LogTailing::new(Arc::clone(&store));
        let spec = QuerySpec::filter("t", doc! {}).sorted_by("n", SortDirection::Asc).with_limit(2);
        let mut sub = provider.subscribe(&spec).unwrap();
        sub.next_event(Duration::from_secs(1)).unwrap();
        // Exhaust the slack (3) + visible (2): the provider renews in place.
        for i in 0..6i64 {
            store.delete("t", Key::of(i)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sub.result().keys() != vec![Key::of(6i64), Key::of(7i64)]
            && std::time::Instant::now() < deadline
        {
            let _ = sub.next_event(Duration::from_millis(50));
        }
        assert_eq!(sub.result().keys(), vec![Key::of(6i64), Key::of(7i64)]);
    }

    #[test]
    fn unsubscribe_via_drop() {
        let store = Arc::new(Store::new());
        let provider = LogTailing::new(Arc::clone(&store));
        let spec = QuerySpec::filter("t", doc! {});
        let sub = provider.subscribe(&spec).unwrap();
        assert_eq!(provider.active_subscriptions(), 1);
        drop(sub);
        assert_eq!(provider.active_subscriptions(), 0);
    }
}
