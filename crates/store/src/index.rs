//! Secondary indexes.
//!
//! A [`FieldIndex`] maps field values to the primary keys of records
//! containing them, ordered by the canonical value order so range scans are
//! possible. Array fields are *multikey*: every element is indexed. Missing
//! fields index as `Null` (so `{field: null}` queries stay index-eligible).

use invalidb_common::{Document, Key, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Ordered index over one (dotted) field path.
#[derive(Debug, Default)]
pub struct FieldIndex {
    /// field value -> primary keys of documents holding that value.
    buckets: BTreeMap<Key, Bucket>,
}

/// The primary keys under one indexed value. On a field of many distinct
/// values almost every value is held by one record, and such a bucket
/// allocates nothing of its own: a set would be one B-tree leaf per value.
#[derive(Debug)]
enum Bucket {
    One(Key),
    Many(BTreeSet<Key>),
}

impl Bucket {
    fn insert(&mut self, pk: &Key) {
        match self {
            Bucket::Many(set) => {
                set.insert(pk.clone());
            }
            Bucket::One(held) if held == pk => {}
            Bucket::One(held) => {
                let held = std::mem::replace(held, Key(Value::Null));
                *self = Bucket::Many(BTreeSet::from([held, pk.clone()]));
            }
        }
    }

    /// Removes `pk`; `true` when no key is left. A set down to one key
    /// becomes that key again.
    fn remove(&mut self, pk: &Key) -> bool {
        let Bucket::Many(set) = self else { return matches!(self, Bucket::One(held) if held == pk) };
        set.remove(pk);
        if set.len() == 1 {
            *self = Bucket::One(set.pop_first().expect("one key"));
        }
        false
    }

    fn keys(&self) -> impl Iterator<Item = &Key> {
        let (one, many) = match self {
            Bucket::One(held) => (Some(held), None),
            Bucket::Many(set) => (None, Some(set)),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl FieldIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands `f` each value a document contributes to this index for `path`,
    /// borrowed: every element of an array (multikey), `Null` for an empty
    /// array or a missing field.
    fn for_each_value(doc: &Document, path: &str, mut f: impl FnMut(&Value)) {
        invalidb_query::path::with_resolved(doc, path, |candidates| {
            if candidates.is_empty() {
                f(&Value::Null);
            }
            for candidate in candidates {
                match candidate {
                    Value::Array(items) if !items.is_empty() => items.iter().for_each(&mut f),
                    Value::Array(_) => f(&Value::Null),
                    other => f(other),
                }
            }
        })
    }

    /// Indexes a document under its primary key.
    pub fn insert(&mut self, path: &str, pk: &Key, doc: &Document) {
        Self::for_each_value(doc, path, |v| match self.buckets.entry(Key(v.clone())) {
            Entry::Vacant(e) => {
                e.insert(Bucket::One(pk.clone()));
            }
            Entry::Occupied(mut e) => e.get_mut().insert(pk),
        });
    }

    /// Removes a document's entries.
    pub fn remove(&mut self, path: &str, pk: &Key, doc: &Document) {
        Self::for_each_value(doc, path, |v| {
            let value = Key(v.clone());
            if self.buckets.get_mut(&value).is_some_and(|bucket| bucket.remove(pk)) {
                self.buckets.remove(&value);
            }
        });
    }

    /// Re-indexes a record whose document was replaced. The common update
    /// leaves the indexed field alone, and then the entries stay as they
    /// are: nothing is removed only to be inserted again.
    pub fn replace(&mut self, path: &str, pk: &Key, old: &Document, new: &Document) {
        use invalidb_query::path::with_resolved;
        // Equal resolved values contribute equal entries. (`Value` equality
        // is stricter than the buckets' canonical one — `1` vs `1.0`, NaN —
        // which only ever costs a re-index that was not needed.)
        if with_resolved(old, path, |was| with_resolved(new, path, |is| was == is)) {
            return;
        }
        self.remove(path, pk, old);
        self.insert(path, pk, new);
    }

    /// Primary keys of documents whose field equals `value`.
    pub fn lookup_eq(&self, value: &Value) -> Vec<Key> {
        self.buckets.get(&Key(value.clone())).map(|b| b.keys().cloned().collect()).unwrap_or_default()
    }

    /// Primary keys of documents whose field lies in the value range.
    /// Results are deduplicated (multikey documents can hit several buckets).
    pub fn lookup_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Vec<Key> {
        let to_key = |b: Bound<&Value>| match b {
            Bound::Included(v) => Bound::Included(Key(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(Key(v.clone())),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut seen = BTreeSet::new();
        for (_, pks) in self.buckets.range((to_key(lower), to_key(upper))) {
            seen.extend(pks.keys().cloned());
        }
        seen.into_iter().collect()
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn keys(v: Vec<Key>) -> Vec<String> {
        v.into_iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn eq_lookup() {
        let mut idx = FieldIndex::new();
        idx.insert("n", &Key::of("a"), &doc! { "n" => 5i64 });
        idx.insert("n", &Key::of("b"), &doc! { "n" => 5i64 });
        idx.insert("n", &Key::of("c"), &doc! { "n" => 7i64 });
        assert_eq!(keys(idx.lookup_eq(&Value::Int(5))).len(), 2);
        assert_eq!(keys(idx.lookup_eq(&Value::Int(7))), vec!["\"c\""]);
        assert!(idx.lookup_eq(&Value::Int(9)).is_empty());
        // Cross-numeric equality via canonical keys.
        assert_eq!(idx.lookup_eq(&Value::Float(5.0)).len(), 2);
    }

    #[test]
    fn range_lookup() {
        let mut idx = FieldIndex::new();
        for i in 0..10i64 {
            idx.insert("n", &Key::of(i), &doc! { "n" => i });
        }
        let pks = idx.lookup_range(Bound::Included(&Value::Int(3)), Bound::Excluded(&Value::Int(6)));
        assert_eq!(pks.len(), 3);
    }

    #[test]
    fn multikey_arrays() {
        let mut idx = FieldIndex::new();
        let d = doc! { "tags" => vec!["x", "y"] };
        idx.insert("tags", &Key::of(1i64), &d);
        assert_eq!(idx.lookup_eq(&Value::from("x")).len(), 1);
        assert_eq!(idx.lookup_eq(&Value::from("y")).len(), 1);
        // Range spanning both values must dedupe to a single pk.
        let pks =
            idx.lookup_range(Bound::Included(&Value::from("x")), Bound::Included(&Value::from("y")));
        assert_eq!(pks.len(), 1);
        idx.remove("tags", &Key::of(1i64), &d);
        assert!(idx.lookup_eq(&Value::from("x")).is_empty());
        assert_eq!(idx.distinct_values(), 0);
    }

    #[test]
    fn replace_moves_entries_only_when_the_indexed_value_changed() {
        let mut idx = FieldIndex::new();
        let pk = Key::of("k");
        let v1 = doc! { "n" => 1i64, "other" => "a" };
        idx.insert("n", &pk, &v1);
        // Same indexed value, another field changed: entries untouched.
        let v2 = doc! { "n" => 1i64, "other" => "b" };
        idx.replace("n", &pk, &v1, &v2);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), vec![pk.clone()]);
        // Indexed value changed, dropped, became multikey.
        let v3 = doc! { "n" => 2i64 };
        idx.replace("n", &pk, &v2, &v3);
        assert!(idx.lookup_eq(&Value::Int(1)).is_empty());
        assert_eq!(idx.lookup_eq(&Value::Int(2)), vec![pk.clone()]);
        let v4 = doc! { "other" => "c" };
        idx.replace("n", &pk, &v3, &v4);
        assert_eq!(idx.lookup_eq(&Value::Null), vec![pk.clone()]);
        let v5 = doc! { "n" => vec![7i64, 8] };
        idx.replace("n", &pk, &v4, &v5);
        assert_eq!(idx.lookup_eq(&Value::Int(8)), vec![pk.clone()]);
        assert_eq!(idx.distinct_values(), 2);
        // Whatever the path taken, the index equals one built from scratch.
        idx.replace("n", &pk, &v5, &v1);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), vec![pk]);
        assert_eq!(idx.distinct_values(), 1);
    }

    /// Random inserts, removes and replaces, multikey documents included,
    /// checked after every step against a map rebuilt from the records: one-key
    /// buckets grow into sets and shrink back without losing or keeping a
    /// key they should not.
    #[test]
    fn buckets_agree_with_a_model_through_one_and_many_transitions() {
        struct Lcg(u64);
        impl Lcg {
            fn below(&mut self, n: u64) -> u64 {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (self.0 >> 33) % n
            }
        }
        let mut rng = Lcg(11);
        // Few values, so buckets are shared, split and merged all the time;
        // arrays (repeats included) make records multikey.
        let value = |rng: &mut Lcg| -> Value {
            match rng.below(8) {
                0 => Value::Array((0..rng.below(4)).map(|_| Value::Int(rng.below(6) as i64)).collect()),
                1 => Value::Float(rng.below(6) as f64),
                _ => Value::Int(rng.below(6) as i64),
            }
        };
        let mut docs: BTreeMap<Key, Document> = BTreeMap::new();
        let mut idx = FieldIndex::new();
        let mut shapes = (0, 0);
        for step in 0..4_000 {
            let pk = Key::of(rng.below(12) as i64);
            let new = (rng.below(10) > 0).then(|| match rng.below(10) {
                0 => doc! { "other" => 1i64 },
                _ => doc! { "n" => value(&mut rng) },
            });
            match (docs.remove(&pk), new) {
                (Some(old), Some(new)) => {
                    idx.replace("n", &pk, &old, &new);
                    docs.insert(pk, new);
                }
                (Some(old), None) => idx.remove("n", &pk, &old),
                (None, Some(new)) => {
                    idx.insert("n", &pk, &new);
                    docs.insert(pk, new);
                }
                (None, None) => {}
            }
            let mut model: BTreeMap<Key, BTreeSet<Key>> = BTreeMap::new();
            for (pk, doc) in &docs {
                FieldIndex::for_each_value(doc, "n", |v| {
                    model.entry(Key(v.clone())).or_default().insert(pk.clone());
                });
            }
            assert_eq!(idx.distinct_values(), model.len(), "step {step}");
            for (v, pks) in &model {
                let mut got = idx.lookup_eq(&v.0);
                got.sort();
                assert_eq!(got, pks.iter().cloned().collect::<Vec<_>>(), "step {step}, value {v}");
            }
            let all: BTreeSet<Key> = model.values().flatten().cloned().collect();
            let got = idx.lookup_range(Bound::Unbounded, Bound::Unbounded);
            assert_eq!(got, all.into_iter().collect::<Vec<_>>(), "step {step}");
            for bucket in idx.buckets.values() {
                match bucket {
                    Bucket::One(_) => shapes.0 += 1,
                    Bucket::Many(set) => {
                        assert!(set.len() > 1, "a set of {} keys", set.len());
                        shapes.1 += 1;
                    }
                }
            }
        }
        assert!(shapes.0 > 0 && shapes.1 > 0, "both shapes seen: {shapes:?}");
    }

    #[test]
    fn missing_field_indexes_as_null() {
        let mut idx = FieldIndex::new();
        idx.insert("n", &Key::of(1i64), &doc! { "other" => 1i64 });
        assert_eq!(idx.lookup_eq(&Value::Null).len(), 1);
    }

    #[test]
    fn remove_then_reinsert_updated_doc() {
        let mut idx = FieldIndex::new();
        let old = doc! { "n" => 1i64 };
        let new = doc! { "n" => 2i64 };
        idx.insert("n", &Key::of("k"), &old);
        idx.remove("n", &Key::of("k"), &old);
        idx.insert("n", &Key::of("k"), &new);
        assert!(idx.lookup_eq(&Value::Int(1)).is_empty());
        assert_eq!(idx.lookup_eq(&Value::Int(2)).len(), 1);
    }
}
