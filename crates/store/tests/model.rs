//! Model-based property tests: the store against a naive in-memory model.

use invalidb_common::{doc, Document, Key, QuerySpec, SortDirection, Value};
use invalidb_store::{Store, StoreError, UpdateSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Save(i64, i64),
    IncN(i64, i64),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0..12i64), (-50..50i64)).prop_map(|(k, n)| Op::Insert(k, n)),
        ((0..12i64), (-50..50i64)).prop_map(|(k, n)| Op::Save(k, n)),
        ((0..12i64), (-10..10i64)).prop_map(|(k, d)| Op::IncN(k, d)),
        (0..12i64).prop_map(Op::Delete),
    ]
}

/// Naive model: a map of key -> (version, n).
#[derive(Default)]
struct Model {
    live: BTreeMap<i64, (u64, i64)>,
    tombstones: BTreeMap<i64, u64>,
}

impl Model {
    fn next_version(&self, k: i64) -> u64 {
        self.live
            .get(&k)
            .map(|(v, _)| v + 1)
            .or_else(|| self.tombstones.get(&k).map(|v| v + 1))
            .unwrap_or(1)
    }

    fn apply(&mut self, op: &Op) -> Result<(), ()> {
        match *op {
            Op::Insert(k, n) => {
                if self.live.contains_key(&k) {
                    return Err(());
                }
                let v = self.next_version(k);
                self.tombstones.remove(&k);
                self.live.insert(k, (v, n));
            }
            Op::Save(k, n) => {
                let v = self.next_version(k);
                self.tombstones.remove(&k);
                self.live.insert(k, (v, n));
            }
            Op::IncN(k, d) => match self.live.get_mut(&k) {
                Some((v, n)) => {
                    *v += 1;
                    *n += d;
                }
                None => return Err(()),
            },
            Op::Delete(k) => match self.live.remove(&k) {
                Some((v, _)) => {
                    self.tombstones.insert(k, v + 1);
                }
                None => return Err(()),
            },
        }
        Ok(())
    }
}

fn doc_of(n: i64) -> Document {
    doc! { "n" => n }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every operation's outcome (success/failure, version, after-image)
    /// and the final store content must match the model exactly.
    #[test]
    fn store_matches_model(ops in prop::collection::vec(op_strategy(), 1..120), indexed in any::<bool>()) {
        let store = Store::new();
        if indexed {
            store.collection("m").create_index("n").unwrap();
        }
        let mut model = Model::default();
        for op in &ops {
            let model_result = model.apply(op);
            let store_result = match *op {
                Op::Insert(k, n) => store.insert("m", Key::of(k), doc_of(n)),
                Op::Save(k, n) => store.save("m", Key::of(k), doc_of(n)),
                Op::IncN(k, d) => store.update(
                    "m",
                    Key::of(k),
                    &UpdateSpec::from_document(&doc! { "$inc" => doc! { "n" => d } }).unwrap(),
                ),
                Op::Delete(k) => store.delete("m", Key::of(k)),
            };
            match (model_result, store_result) {
                (Ok(()), Ok(w)) => {
                    let k = match *op {
                        Op::Insert(k, _) | Op::Save(k, _) | Op::IncN(k, _) | Op::Delete(k) => k,
                    };
                    if let Some((v, n)) = model.live.get(&k) {
                        prop_assert_eq!(w.version, *v, "version for {:?}", op);
                        prop_assert_eq!(
                            w.doc.as_ref().and_then(|d| d.get("n")).and_then(Value::as_i64),
                            Some(*n),
                            "after-image for {:?}", op
                        );
                    } else {
                        prop_assert!(w.doc.is_none(), "tombstone for {:?}", op);
                        prop_assert_eq!(w.version, model.tombstones[&k]);
                    }
                }
                (Err(()), Err(StoreError::DuplicateKey(_) | StoreError::NotFound(_))) => {}
                (m, s) => prop_assert!(false, "divergence on {:?}: model {:?} store {:?}", op, m, s),
            }
        }
        // Final contents agree (via an indexed-or-not full scan).
        let all = store.execute(&QuerySpec::filter("m", doc! {})).unwrap();
        prop_assert_eq!(all.len(), model.live.len());
        for item in all {
            let k = item.key.0.as_i64().unwrap();
            let (v, n) = model.live[&k];
            prop_assert_eq!(item.version, v);
            prop_assert_eq!(item.doc.unwrap().get("n").and_then(Value::as_i64), Some(n));
        }
        // Range queries agree with the model, indexed or not.
        let range = QuerySpec::filter("m", doc! { "n" => doc! { "$gte" => -10i64, "$lt" => 10i64 } });
        let got: Vec<i64> = store
            .execute(&range)
            .unwrap()
            .into_iter()
            .map(|r| r.key.0.as_i64().unwrap())
            .collect();
        let expect: Vec<i64> = model
            .live
            .iter()
            .filter(|(_, (_, n))| (-10..10).contains(n))
            .map(|(k, _)| *k)
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The oplog replays to exactly the final store state.
    #[test]
    fn oplog_replay_reconstructs_state(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let store = Store::new();
        for op in &ops {
            let _ = match *op {
                Op::Insert(k, n) => store.insert("m", Key::of(k), doc_of(n)),
                Op::Save(k, n) => store.save("m", Key::of(k), doc_of(n)),
                Op::IncN(k, d) => store.update(
                    "m",
                    Key::of(k),
                    &UpdateSpec::from_document(&doc! { "$inc" => doc! { "n" => d } }).unwrap(),
                ),
                Op::Delete(k) => store.delete("m", Key::of(k)),
            };
        }
        // Replay the oplog into a fresh map.
        let mut replayed: BTreeMap<Key, (u64, Document)> = BTreeMap::new();
        for entry in store.oplog().read_from(0) {
            match entry.doc {
                Some(doc) => {
                    replayed.insert(entry.key, (entry.version, Document::clone(&doc)));
                }
                None => {
                    replayed.remove(&entry.key);
                }
            }
        }
        let live = store.collection("m").scan_all();
        prop_assert_eq!(live.len(), replayed.len());
        for (key, version, doc) in live {
            let (rv, rdoc) = replayed.get(&key).expect("key in replay");
            prop_assert_eq!(&version, rv);
            prop_assert_eq!(&doc, rdoc);
        }
    }

    /// Sorted pull queries return a correctly ordered prefix window.
    #[test]
    fn sorted_window_queries_agree_with_full_sort(
        ops in prop::collection::vec(op_strategy(), 1..60),
        offset in 0u64..5,
        limit in 1u64..6,
    ) {
        let store = Store::new();
        for op in &ops {
            let _ = match *op {
                Op::Insert(k, n) => store.insert("m", Key::of(k), doc_of(n)),
                Op::Save(k, n) => store.save("m", Key::of(k), doc_of(n)),
                Op::IncN(k, d) => store.update(
                    "m",
                    Key::of(k),
                    &UpdateSpec::from_document(&doc! { "$inc" => doc! { "n" => d } }).unwrap(),
                ),
                Op::Delete(k) => store.delete("m", Key::of(k)),
            };
        }
        let full = QuerySpec::filter("m", doc! {}).sorted_by("n", SortDirection::Desc);
        let window = full.clone().with_offset(offset).with_limit(limit);
        let full_keys: Vec<Key> = store.execute(&full).unwrap().into_iter().map(|r| r.key).collect();
        let window_keys: Vec<Key> = store.execute(&window).unwrap().into_iter().map(|r| r.key).collect();
        let expect: Vec<Key> = full_keys
            .into_iter()
            .skip(offset as usize)
            .take(limit as usize)
            .collect();
        prop_assert_eq!(window_keys, expect);
    }
}
