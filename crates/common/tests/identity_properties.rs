//! Property tests for the identity model: names and keys are resolved
//! without allocating, and nothing observable moved when they stopped.
//!
//! * A [`Key`] hashes and partitions by *streaming* its canonical encoding
//!   into the hasher. Routing across processes depends on the result, so the
//!   streamed `stable_hash`, `Hash` and `write_partition` are compared bit
//!   for bit with the collect-then-hash form they replaced — against
//!   [`Key::canonical_bytes`], and against a copy of the encoder as it was
//!   before it learned to stream, kept here as the reference.
//! * A [`Document`] stores field names inline up to 22 bytes and boxed
//!   beyond. Which of the two a name got must be invisible: lookups,
//!   order, comparison, display, cloning and the canonical encoding are
//!   checked against a plain `Vec<(String, Value)>` model across the
//!   boundary (names of 0, 1, 22, 23 and 64 bytes, multi-byte characters
//!   ending exactly on and just past it).

use invalidb_common::{
    canonical_cmp, stable_hash64, CanonicalSink, Document, DocumentBuilder, FieldWriter, Fnv1a,
    GridShape, Key, Value,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Field names on both sides of the inline/boxed boundary.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,3}",
        Just("x".repeat(22)),
        Just("x".repeat(23)),
        Just("x".repeat(64)),
        // 22 and 23 bytes of two-byte characters: the boundary must fall
        // between characters, never inside one.
        Just("é".repeat(11)),
        Just(format!("a{}", "é".repeat(11))),
        "\\PC{0,12}",
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    values(prop_oneof![
        // The integral floats are the interesting ones: they must encode as
        // the integer they equal.
        any::<i32>().prop_map(|i| Value::Float(i as f64)),
        any::<f64>().prop_map(Value::Float), // includes NaN and infinities
    ])
}

/// Values that equal themselves (no NaN), for the tests that compare
/// documents with `==`.
fn reflexive_value_strategy() -> impl Strategy<Value = Value> {
    values((-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 4.0)))
}

fn values(floats: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        floats,
        "\\PC{0,6}".prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((name_strategy(), inner), 0..4)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect::<Document>())),
        ]
    })
}

/// The canonical encoder as it was when it wrote into a `Vec<u8>` only —
/// the bytes every deployed process partitions by.
fn reference_canonical(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x05);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            if let Some(i) = v.as_i64() {
                out.push(0x01);
                out.extend_from_slice(&i.to_be_bytes());
            } else {
                out.push(0x02);
                let bits = if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() };
                out.extend_from_slice(&bits.to_be_bytes());
            }
        }
        Value::String(s) => {
            out.push(0x03);
            out.extend_from_slice(&(s.len() as u64).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(0x04);
            out.extend_from_slice(&(items.len() as u64).to_be_bytes());
            for item in items {
                reference_canonical(item, out);
            }
        }
        Value::Object(doc) => {
            out.push(0x06);
            out.extend_from_slice(&(doc.len() as u64).to_be_bytes());
            for (k, v) in doc.iter() {
                out.extend_from_slice(&(k.len() as u64).to_be_bytes());
                out.extend_from_slice(k.as_bytes());
                reference_canonical(v, out);
            }
        }
    }
}

/// A sink that remembers how the stream was cut, to show the cut is not
/// part of the contract.
#[derive(Default)]
struct Pieces(Vec<Vec<u8>>);

impl CanonicalSink for Pieces {
    fn put(&mut self, bytes: &[u8]) {
        self.0.push(bytes.to_vec());
    }
}

/// `Document` as it used to be: names as owned strings, last duplicate wins.
fn model_insert(model: &mut Vec<(String, Value)>, name: &str, value: Value) {
    match model.iter_mut().find(|(k, _)| k == name) {
        Some((_, slot)) => *slot = value,
        None => model.push((name.to_owned(), value)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_bytes_are_the_deployed_encoding(v in value_strategy()) {
        let mut expected = Vec::new();
        reference_canonical(&v, &mut expected);
        prop_assert_eq!(Key(v.clone()).canonical_bytes(), expected.clone());
        // However the stream is cut, it is that byte string.
        let mut pieces = Pieces::default();
        v.write_canonical(&mut pieces);
        prop_assert_eq!(pieces.0.concat(), expected);
    }

    #[test]
    fn streamed_hashes_equal_the_collected_ones(v in value_strategy()) {
        let key = Key(v);
        let bytes = key.canonical_bytes();
        // The partitioning hash, and its FNV core fed in pieces.
        prop_assert_eq!(key.stable_hash(), stable_hash64(&bytes));
        let mut fnv = Fnv1a::new();
        for chunk in bytes.chunks(3) {
            fnv.write(chunk);
        }
        prop_assert_eq!(fnv.finish(), invalidb_common::fnv1a64(&bytes));
        // `impl Hash`: what every `HashMap<Key, _>` lookup computes.
        let mut streamed = DefaultHasher::new();
        key.hash(&mut streamed);
        let mut collected = DefaultHasher::new();
        collected.write(&bytes);
        prop_assert_eq!(streamed.finish(), collected.finish());
    }

    #[test]
    fn write_partition_routes_as_before(v in value_strategy(), wp in 1usize..9) {
        let key = Key(v);
        let mut bytes = Vec::new();
        reference_canonical(&key.0, &mut bytes);
        let expected = invalidb_common::partition::partition_of(stable_hash64(&bytes), wp);
        prop_assert_eq!(GridShape::new(1, wp).write_partition(&key), expected);
        prop_assert_eq!(GridShape::new(2, wp).tasks_for_key(&key), vec![expected, wp + expected]);
    }

    #[test]
    fn documents_behave_like_the_string_keyed_model(
        fields in prop::collection::vec((name_strategy(), reflexive_value_strategy()), 0..8),
        removed in name_strategy(),
    ) {
        let mut doc = Document::new();
        let mut model: Vec<(String, Value)> = Vec::new();
        for (name, value) in &fields {
            let previous = model.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
            prop_assert_eq!(doc.insert(name, value.clone()), previous);
            model_insert(&mut model, name, value.clone());
        }
        let check = |doc: &Document, model: &[(String, Value)]| -> Result<(), TestCaseError> {
            prop_assert_eq!(doc.len(), model.len());
            let listed: Vec<(&str, &Value)> = doc.iter().collect();
            let expected: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
            prop_assert_eq!(&listed, &expected, "insertion order, last duplicate wins");
            prop_assert_eq!(doc.keys().collect::<Vec<_>>(), expected.iter().map(|(k, _)| *k).collect::<Vec<_>>());
            for (name, value) in model {
                prop_assert_eq!(doc.get(name), Some(value));
                prop_assert!(doc.contains_key(name));
            }
            Ok(())
        };
        check(&doc, &model)?;

        // A clone, a rebuild from owned pairs and a field-by-field rebuild
        // are the same document, whatever representation each name got.
        prop_assert_eq!(&doc.clone(), &doc);
        let collected: Document = model.iter().cloned().collect();
        prop_assert_eq!(&collected, &doc);
        prop_assert_eq!(doc.clone().into_iter().collect::<Vec<_>>(), model.clone());
        let mut builder = DocumentBuilder::new();
        builder.document(&doc);
        let mut root = DocumentBuilder::new();
        root.begin_object(doc.len());
        for (name, value) in doc.iter() {
            root.key(name);
            root.value(value);
        }
        root.end_object();
        prop_assert_eq!(&root.finish(), &doc);

        // Display and Debug show names as the strings they are.
        let shown = model.iter().map(|(k, v)| format!("{k}: {v}")).collect::<Vec<_>>().join(", ");
        prop_assert_eq!(doc.to_string(), format!("{{{shown}}}"));
        prop_assert_eq!(format!("{doc:?}"), format!("Document {{ entries: {model:?} }}"));

        // Removal by borrowed name.
        let expected = model.iter().position(|(k, _)| *k == removed).map(|at| model.remove(at).1);
        prop_assert_eq!(doc.remove(&removed), expected);
        check(&doc, &model)?;
    }

    #[test]
    fn documents_compare_by_name_text(
        a in prop::collection::vec((name_strategy(), reflexive_value_strategy()), 0..4),
        b in prop::collection::vec((name_strategy(), reflexive_value_strategy()), 0..4),
    ) {
        let (da, db): (Document, Document) = (a.into_iter().collect(), b.into_iter().collect());
        // The order objects sort in: entry by entry, name (as text) first.
        let mut expected = std::cmp::Ordering::Equal;
        for ((ka, va), (kb, vb)) in da.iter().zip(db.iter()) {
            expected = ka.cmp(kb).then_with(|| canonical_cmp(va, vb));
            if expected.is_ne() {
                break;
            }
        }
        let expected = expected.then(da.len().cmp(&db.len()));
        let (va, vb) = (Value::Object(da.clone()), Value::Object(db.clone()));
        prop_assert_eq!(canonical_cmp(&va, &vb), expected);
        // `==` is stricter than the canonical order only inside values;
        // the names agree on both.
        if da == db {
            prop_assert_eq!(expected, std::cmp::Ordering::Equal);
        }
    }
}
