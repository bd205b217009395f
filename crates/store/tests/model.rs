//! Model-based property tests: the store against a naive in-memory model,
//! and the store's records, kept and read as bytes, against their trees.

use invalidb_common::{doc, Document, EncodedObject, Key, QuerySpec, ResultItem, SortDirection, Value};
use invalidb_json::bin;
use invalidb_query::{compare_items, parse_filter};
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
                            w.doc.map(|d| d.to_document()).and_then(|d| d.get("n").and_then(Value::as_i64)),
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
                    replayed.insert(entry.key, (entry.version, doc.to_document()));
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

// ---------------------------------------------------------------------------
// The store over bytes against a tree oracle
// ---------------------------------------------------------------------------

/// A string of `a`–`c`, either short or past the 22 bytes a `Str` holds
/// inline.
fn string() -> impl Strategy<Value = Value> {
    prop_oneof!["[a-c]{0,3}", "[a-c]{23,30}"].prop_map(|s: String| Value::String(s.into()))
}

/// A small number, as an integer or an integral float.
fn number() -> impl Strategy<Value = Value> {
    prop_oneof![(-5..5i64).prop_map(Value::Int), (-5..5i64).prop_map(|i| Value::Float(i as f64))]
}

/// `a`: an object whose `b` is a number or a string and whose `c.d` is a
/// number, an array of such objects (a dotted path fans out over it), or a
/// scalar (the path stops there).
fn nested() -> impl Strategy<Value = Value> {
    let object = (prop_oneof![number(), string()], prop_oneof![Just(None), number().prop_map(Some)])
        .prop_map(|(b, d)| {
            let mut o = doc! { "b" => b };
            if let Some(d) = d {
                o.insert("c", doc! { "d" => d });
            }
            Value::Object(o)
        });
    prop_oneof![object.clone(), prop::collection::vec(object, 0..3).prop_map(Value::Array), number(),]
}

/// A record of every shape the store's bytes must keep as the tree does:
/// nested objects, arrays (empty ones included), integral floats and
/// strings past the inline limit, each field present or missing. NaN is
/// left out: its bits survive the round trip, but `Value` equality calls
/// no NaN equal to itself (pinned on its own below).
fn record() -> impl Strategy<Value = Document> {
    let n = prop_oneof![
        number(),
        prop::collection::vec(number(), 0..3).prop_map(Value::Array),
        Just(Value::Null),
    ];
    let tags = prop::collection::vec(string(), 0..4).prop_map(Value::Array);
    let big = (-1_000_000..1_000_000i64).prop_map(|i| Value::Float(i as f64 * 1024.0));
    let field = |value: BoxedStrategy<Value>| prop_oneof![Just(None), value.prop_map(Some)];
    (
        field(n.boxed()),
        field(tags.boxed()),
        field(nested().boxed()),
        field(string().boxed()),
        field(big.boxed()),
    )
        .prop_map(|(n, tags, a, s, f)| {
            let mut d = Document::new();
            for (name, value) in [("n", n), ("tags", tags), ("a", a), ("s", s), ("f", f)] {
                if let Some(value) = value {
                    d.insert(name, value);
                }
            }
            d
        })
}

/// Filters on the indexed paths (a range, a point, `null`, a dotted path,
/// a multikey field) and off them, one of them read whole (`$or`).
fn filter() -> impl Strategy<Value = Document> {
    prop_oneof![
        Just(doc! {}),
        (number(), number()).prop_map(|(lo, hi)| doc! { "n" => doc! { "$gte" => lo, "$lt" => hi } }),
        number().prop_map(|v| doc! { "n" => v }),
        Just(doc! { "n" => Value::Null }),
        prop_oneof![number(), string()].prop_map(|v| doc! { "a.b" => v }),
        number().prop_map(|v| doc! { "a.b" => doc! { "$gt" => v } }),
        string().prop_map(|t| doc! { "tags" => t }),
        (string(), string()).prop_map(|(lo, hi)| doc! { "tags" => doc! { "$gte" => lo, "$lte" => hi } }),
        (number(), number()).prop_map(|(n, d)| doc! {
            "$or" => vec![Value::Object(doc! { "n" => n }), Value::Object(doc! { "a.c.d" => d })],
        }),
        string().prop_map(|s| doc! { "s" => doc! { "$gte" => s } }),
    ]
}

/// A filter, unsorted or sorted on a plain or a dotted path, with a window.
fn query() -> impl Strategy<Value = QuerySpec> {
    let sort = prop_oneof![
        Just(None),
        Just(Some(("n", SortDirection::Asc))),
        Just(Some(("n", SortDirection::Desc))),
        Just(Some(("a.b", SortDirection::Desc))),
    ];
    (filter(), sort, 0u64..3, prop_oneof![Just(None), (1u64..5).prop_map(Some)]).prop_map(
        |(filter, sort, offset, limit)| {
            let mut spec = QuerySpec::filter("m", filter);
            if let Some((path, direction)) = sort {
                spec = spec.sorted_by(path, direction).with_offset(offset);
                if let Some(limit) = limit {
                    spec = spec.with_limit(limit);
                }
            }
            spec
        },
    )
}

#[derive(Debug, Clone)]
enum Write {
    Save(i64, Document),
    SetN(i64, i64),
    Delete(i64),
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        ((0..10i64), record()).prop_map(|(k, d)| Write::Save(k, d)),
        ((0..10i64), (-5..5i64)).prop_map(|(k, n)| Write::SetN(k, n)),
        (0..10i64).prop_map(Write::Delete),
    ]
}

/// The pull query over the saved trees: every record `Filter::matches`,
/// ordered as the spec says (by key without a sort), cut to the window.
fn oracle(spec: &QuerySpec, records: &BTreeMap<Key, (u64, Document)>) -> Vec<ResultItem> {
    let filter = parse_filter(&spec.filter).expect("a valid filter");
    let mut matched: Vec<(&Key, &(u64, Document))> =
        records.iter().filter(|(_, (_, doc))| filter.matches(doc)).collect();
    matched.sort_by(|a, b| compare_items(&spec.sort, (a.0, &a.1 .1), (b.0, &b.1 .1)));
    let sorted = !spec.sort.is_empty();
    matched
        .into_iter()
        .skip(spec.offset as usize)
        .take(spec.limit.map_or(usize::MAX, |limit| limit as usize))
        .enumerate()
        .map(|(i, (key, (version, doc)))| ResultItem {
            index: sorted.then_some(i as u64),
            ..ResultItem::new(key.clone(), *version, doc.clone())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The store keeps each record as its bytes, and reads them in place to
    /// index and to query: whatever was written, an index-planned query
    /// equals a full scan, both equal filtering the saved trees, and `get`
    /// returns what the push side decodes from the record's payload.
    #[test]
    fn the_store_over_bytes_answers_as_its_trees(
        writes in prop::collection::vec(write_strategy(), 1..40),
        queries in prop::collection::vec(query(), 1..6),
    ) {
        let (indexed, plain) = (Store::new(), Store::new());
        for path in ["n", "a.b", "tags"] {
            indexed.collection("m").create_index(path).unwrap();
        }
        let mut model: BTreeMap<Key, (u64, Document)> = BTreeMap::new();
        for write in &writes {
            let (key, outcome) = match write {
                Write::Save(k, doc) => {
                    let key = Key::of(*k);
                    plain.save("m", key.clone(), doc.clone()).unwrap();
                    (key.clone(), indexed.save("m", key, doc.clone()).map(|w| (w.version, Some(doc.clone()))))
                }
                Write::SetN(k, n) => {
                    let key = Key::of(*k);
                    let spec = UpdateSpec::from_document(&doc! { "$set" => doc! { "n" => *n } }).unwrap();
                    let _ = plain.update("m", key.clone(), &spec);
                    let expected = model.get(&key).map(|(_, doc)| spec.apply(doc).unwrap());
                    (key.clone(), indexed.update("m", key, &spec).map(|w| (w.version, expected)))
                }
                Write::Delete(k) => {
                    let key = Key::of(*k);
                    let _ = plain.delete("m", key.clone());
                    (key.clone(), indexed.delete("m", key).map(|w| (w.version, None)))
                }
            };
            let Ok((version, doc)) = outcome else { continue };
            match doc {
                Some(doc) => {
                    // What the push side sees: the record's payload, decoded.
                    let pushed = bin::decode_document(&bin::encode_document(&doc)).unwrap();
                    let got = indexed.collection("m").get(&key);
                    prop_assert_eq!(got, Some((version, pushed.clone())), "get after {:?}", write);
                    prop_assert_eq!(&pushed, &doc, "a value that did not survive {:?}", write);
                    model.insert(key, (version, doc));
                }
                None => {
                    prop_assert!(indexed.collection("m").get(&key).is_none());
                    model.remove(&key);
                }
            }
        }
        for spec in &queries {
            let expected = oracle(spec, &model);
            prop_assert_eq!(indexed.execute(spec).unwrap(), expected.clone(), "indexed {:?}", spec);
            prop_assert_eq!(plain.execute(spec).unwrap(), expected, "full scan {:?}", spec);
        }
    }
}

/// NaN, left out of the property above, survives the store bit for bit.
#[test]
fn a_nan_survives_the_store_bit_for_bit() {
    let store = Store::new();
    let nan = f64::from_bits(0x7ff8_0000_0000_0123);
    store.save("m", Key::of(1i64), doc! { "x" => nan }).unwrap();
    let (_, doc) = store.collection("m").get(&Key::of(1i64)).unwrap();
    let Some(Value::Float(got)) = doc.get("x") else { panic!("a float, got {doc}") };
    assert_eq!(got.to_bits(), nan.to_bits());
}
