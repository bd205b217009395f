//! Property tests for the sorted-window maintenance (§5.2) — the invariant
//! called out in DESIGN.md: *any op sequence processed incrementally equals
//! recomputation from scratch when no renewal fired*, and the emitted edit
//! scripts keep a client list identical to the window's visible slice.

use invalidb_common::{doc, Document, Key, QuerySpec, ResultItem, SortDirection, Version};
use invalidb_core::window::{apply_events, SortedWindow, WindowItem};
use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Upsert key with a new sort value.
    Put(i64, i64),
    /// Delete key.
    Del(i64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..20i64), (0..50i64)).prop_map(|(k, s)| Op::Put(k, s)),
            (0..20i64).prop_map(Op::Del),
        ],
        0..80,
    )
}

fn prepared(offset: u64, limit: u64) -> Arc<dyn PreparedQuery> {
    let spec = QuerySpec::filter("t", doc! {})
        .sorted_by("s", SortDirection::Asc)
        .with_offset(offset)
        .with_limit(limit);
    MongoQueryEngine.prepare(&spec).unwrap()
}

fn doc_of(s: i64) -> Document {
    doc! { "s" => s }
}

/// Authoritative database state.
#[derive(Default, Clone)]
struct Db {
    live: BTreeMap<i64, (Version, i64)>,
    tombstones: BTreeMap<i64, Version>,
}

impl Db {
    fn put(&mut self, k: i64, s: i64) -> Version {
        let v = self.next_version(k);
        self.tombstones.remove(&k);
        self.live.insert(k, (v, s));
        v
    }

    fn del(&mut self, k: i64) -> Option<Version> {
        let (v, _) = self.live.remove(&k)?;
        self.tombstones.insert(k, v + 1);
        Some(v + 1)
    }

    fn next_version(&self, k: i64) -> Version {
        self.live
            .get(&k)
            .map(|(v, _)| v + 1)
            .or_else(|| self.tombstones.get(&k).map(|v| v + 1))
            .unwrap_or(1)
    }

    /// The rewritten bootstrap result: sorted ascending by (s, key), first
    /// `n` items.
    fn bootstrap(&self, n: usize) -> Vec<ResultItem> {
        let mut items: Vec<(i64, Version, i64)> =
            self.live.iter().map(|(k, (v, s))| (*k, *v, *s)).collect();
        items.sort_by_key(|(k, _, s)| (*s, *k));
        items.into_iter().take(n).map(|(k, v, s)| ResultItem::new(Key::of(k), v, doc_of(s))).collect()
    }

    /// The true visible window `[offset, offset+limit)`.
    fn visible(&self, offset: usize, limit: usize) -> Vec<i64> {
        let mut items: Vec<(i64, i64)> = self.live.iter().map(|(k, (_, s))| (*k, *s)).collect();
        items.sort_by_key(|(k, s)| (*s, *k));
        items.into_iter().skip(offset).take(limit).map(|(k, _)| k).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental window maintenance equals from-scratch recomputation —
    /// with renewals (reseed) allowed whenever the window reports a
    /// maintenance error — and the client replica tracks it exactly.
    #[test]
    fn incremental_equals_recompute(
        seed_items in prop::collection::btree_map(0..20i64, 0..50i64, 0..15),
        ops in ops_strategy(),
        offset in 0u64..4,
        limit in 1u64..5,
        slack in 0u64..4,
    ) {
        let mut db = Db::default();
        for (k, s) in &seed_items {
            db.put(*k, *s);
        }
        let prepared = prepared(offset, limit);
        let fetch = (offset + limit + slack) as usize;
        let mut window = SortedWindow::new(Arc::clone(&prepared), slack, &db.bootstrap(fetch));
        let mut client: Vec<WindowItem> = window.visible().to_vec();
        let mut renewals = 0u32;

        for op in &ops {
            let outcome = match *op {
                Op::Put(k, s) => {
                    let v = db.put(k, s);
                    window.apply(&Key::of(k), v, Some(&doc_of(s)))
                }
                Op::Del(k) => match db.del(k) {
                    Some(v) => window.apply(&Key::of(k), v, None),
                    None => continue,
                },
            };
            let events = if outcome.error.is_some() {
                renewals += 1;
                window.reseed(slack, &db.bootstrap(fetch), &client)
            } else {
                outcome.events
            };
            apply_events(&mut client, &events);

            // Invariant 1: the window's visible slice equals the truth.
            let visible: Vec<i64> = window
                .visible()
                .iter()
                .map(|i| i.key.0.as_i64().unwrap())
                .collect();
            prop_assert_eq!(&visible, &db.visible(offset as usize, limit as usize), "after {:?}", op);

            // Invariant 2: the client replica equals the visible slice.
            let client_keys: Vec<i64> = client.iter().map(|i| i.key.0.as_i64().unwrap()).collect();
            prop_assert_eq!(client_keys, visible, "client after {:?}", op);
        }
        // Sanity: renewals only happen for bounded windows.
        if slack > 0 && db.live.len() < (offset + limit) as usize {
            let _ = renewals;
        }
    }

    /// Stale versions never change the window.
    #[test]
    fn stale_applies_are_noops(
        seed_items in prop::collection::btree_map(0..10i64, 0..50i64, 3..10),
        k in 0..10i64,
        s_new in 0..50i64,
    ) {
        let mut db = Db::default();
        for (key, s) in &seed_items {
            db.put(*key, *s);
        }
        let prepared = prepared(0, 3);
        let mut window = SortedWindow::new(Arc::clone(&prepared), 2, &db.bootstrap(5));
        // Bump the key twice in the DB, apply only the newest, then replay
        // the older version: nothing may change.
        let _v1 = db.put(k, s_new);
        let v2 = db.put(k, s_new + 1);
        let _ = window.apply(&Key::of(k), v2, Some(&doc_of(s_new + 1)));
        let before: Vec<WindowItem> = window.visible().to_vec();
        let out = window.apply(&Key::of(k), v2 - 1, Some(&doc_of(s_new)));
        prop_assert!(out.events.is_empty());
        prop_assert!(out.error.is_none());
        prop_assert_eq!(window.visible(), &before[..]);
    }
}
