//! Property-based tests for the query engine.

use invalidb_common::{doc, Document, Key, QuerySpec, SortDirection, SortSpec, Value};
use invalidb_query::{compare_items, normalize_spec, parse_filter, MongoQueryEngine, QueryEngine};
use proptest::prelude::*;
use std::cmp::Ordering;

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-d]{0,3}".prop_map(|s: String| Value::String(s.into())),
    ]
}

fn small_doc() -> impl Strategy<Value = Document> {
    prop::collection::vec(("[abc]", scalar()), 0..4).prop_map(|pairs| pairs.into_iter().collect())
}

/// Random filter documents over fields a/b/c with random operators.
fn filter_doc() -> impl Strategy<Value = Document> {
    let pred = prop_oneof![
        scalar().prop_map(|v| Value::Object(doc! { "$eq" => v })),
        scalar().prop_map(|v| Value::Object(doc! { "$ne" => v })),
        scalar().prop_map(|v| Value::Object(doc! { "$gt" => v })),
        scalar().prop_map(|v| Value::Object(doc! { "$lte" => v })),
        prop::collection::vec(scalar(), 0..3).prop_map(|vs| Value::Object(doc! { "$in" => vs })),
        any::<bool>().prop_map(|b| Value::Object(doc! { "$exists" => b })),
        scalar(), // literal equality
    ];
    prop::collection::vec(("[abc]", pred), 1..3).prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matching_never_panics(f in filter_doc(), d in small_doc()) {
        let filter = parse_filter(&f).unwrap();
        let _ = filter.matches(&d);
    }

    #[test]
    fn negation_pairs_are_complementary(d in small_doc(), v in scalar()) {
        // $ne is the exact complement of $eq; $nin of $in.
        let eq = parse_filter(&doc! { "a" => doc! { "$eq" => v.clone() } }).unwrap();
        let ne = parse_filter(&doc! { "a" => doc! { "$ne" => v.clone() } }).unwrap();
        prop_assert_ne!(eq.matches(&d), ne.matches(&d));
        let inn = parse_filter(&doc! { "a" => doc! { "$in" => vec![v.clone()] } }).unwrap();
        let nin = parse_filter(&doc! { "a" => doc! { "$nin" => vec![v] } }).unwrap();
        prop_assert_ne!(inn.matches(&d), nin.matches(&d));
    }

    #[test]
    fn and_or_laws(f1 in filter_doc(), f2 in filter_doc(), d in small_doc()) {
        let a = parse_filter(&f1).unwrap();
        let b = parse_filter(&f2).unwrap();
        let and = parse_filter(&doc! { "$and" => vec![Value::Object(f1.clone()), Value::Object(f2.clone())] }).unwrap();
        let or = parse_filter(&doc! { "$or" => vec![Value::Object(f1.clone()), Value::Object(f2.clone())] }).unwrap();
        let nor = parse_filter(&doc! { "$nor" => vec![Value::Object(f1), Value::Object(f2)] }).unwrap();
        prop_assert_eq!(and.matches(&d), a.matches(&d) && b.matches(&d));
        prop_assert_eq!(or.matches(&d), a.matches(&d) || b.matches(&d));
        prop_assert_eq!(nor.matches(&d), !(a.matches(&d) || b.matches(&d)));
    }

    #[test]
    fn normalization_preserves_matching(f in filter_doc(), d in small_doc()) {
        let spec = QuerySpec::filter("t", f);
        let norm = normalize_spec(&spec);
        let orig = MongoQueryEngine.prepare(&spec).unwrap();
        let canon = MongoQueryEngine.prepare(&norm).unwrap();
        prop_assert_eq!(orig.matches(&d), canon.matches(&d));
    }

    #[test]
    fn normalization_is_idempotent(f in filter_doc()) {
        let spec = QuerySpec::filter("t", f);
        let once = normalize_spec(&spec);
        let twice = normalize_spec(&once);
        prop_assert_eq!(once.stable_hash(), twice.stable_hash());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn comparator_total_order(
        docs in prop::collection::vec(small_doc(), 3),
        dir in prop_oneof![Just(SortDirection::Asc), Just(SortDirection::Desc)],
    ) {
        let spec: SortSpec = vec![("a".into(), dir)];
        let items: Vec<(Key, Document)> = docs
            .into_iter()
            .enumerate()
            .map(|(i, d)| (Key::of(i as i64), d))
            .collect();
        let cmp = |x: &(Key, Document), y: &(Key, Document)| compare_items(&spec, (&x.0, &x.1), (&y.0, &y.1));
        // Antisymmetry.
        for x in &items {
            for y in &items {
                prop_assert_eq!(cmp(x, y), cmp(y, x).reverse());
            }
        }
        // Transitivity over every permutation of the three items.
        let [a, b, c] = [&items[0], &items[1], &items[2]];
        for (x, y, z) in [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)] {
            if cmp(x, y) != Ordering::Greater && cmp(y, z) != Ordering::Greater {
                prop_assert_ne!(cmp(x, z), Ordering::Greater);
            }
        }
        // Distinct keys => never Equal (unambiguous sort key, §5.2 fn. 4).
        prop_assert_ne!(cmp(a, b), Ordering::Equal);
    }
}
