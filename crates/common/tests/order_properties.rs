//! Property tests for the canonical value order — the comparator both query
//! engines (pull and push) must agree on (§5.3). Violating totality or
//! transitivity here would corrupt sorted windows and index scans, so the
//! laws get their own proptest battery.

use invalidb_common::{canonical_cmp, canonical_eq, Document, Key, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float), // includes NaN and infinities
        "[a-c]{0,4}".prop_map(|s: String| Value::String(s.into())),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(("[ab]", inner), 0..4)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect::<Document>())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn antisymmetry(a in value_strategy(), b in value_strategy()) {
        prop_assert_eq!(canonical_cmp(&a, &b), canonical_cmp(&b, &a).reverse());
    }

    #[test]
    fn reflexivity(a in value_strategy()) {
        prop_assert_eq!(canonical_cmp(&a, &a), Ordering::Equal);
    }

    #[test]
    fn transitivity(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        let mut vals = [a, b, c];
        // Sort by the comparator, then verify pairwise order holds — a
        // violation of transitivity surfaces as an unsorted result.
        vals.sort_by(canonical_cmp);
        prop_assert_ne!(canonical_cmp(&vals[0], &vals[1]), Ordering::Greater);
        prop_assert_ne!(canonical_cmp(&vals[1], &vals[2]), Ordering::Greater);
        prop_assert_ne!(canonical_cmp(&vals[0], &vals[2]), Ordering::Greater);
    }

    #[test]
    fn equal_values_encode_identically(a in value_strategy(), b in value_strategy()) {
        // Hash partitioning depends on it: canonical equality must imply
        // identical canonical encodings (so equal keys route identically).
        if canonical_eq(&a, &b) {
            let mut ba = Vec::new();
            let mut bb = Vec::new();
            a.write_canonical(&mut ba);
            b.write_canonical(&mut bb);
            prop_assert_eq!(ba, bb, "equal values {} and {} encode differently", a, b);
        }
    }

    #[test]
    fn key_hash_consistent_with_eq(a in value_strategy(), b in value_strategy()) {
        let (ka, kb) = (Key(a), Key(b));
        if ka == kb {
            prop_assert_eq!(ka.stable_hash(), kb.stable_hash());
        }
    }

    #[test]
    fn int_float_comparison_matches_exact_arithmetic(i in any::<i64>(), f in any::<f64>()) {
        // Compare against arbitrary-precision ground truth via i128/rational
        // reasoning: f = mantissa * 2^exp comparisons can be validated with
        // exact float→string? Simpler oracle: when |f| <= 2^52 the cast is
        // exact both ways.
        if f.is_finite() && f.abs() <= 4_503_599_627_370_496.0 {
            let expect = (i as f64).partial_cmp(&f);
            // (i as f64) is exact only when |i| <= 2^52 as well.
            // (unsigned_abs: `abs` overflows on i64::MIN, which proptest
            // generates as a boundary value.)
            if i.unsigned_abs() <= 4_503_599_627_370_496 {
                prop_assert_eq!(Some(canonical_cmp(&Value::Int(i), &Value::Float(f))), expect);
            }
        }
    }

    #[test]
    fn type_brackets_never_interleave(a in value_strategy(), b in value_strategy()) {
        if a.type_rank() < b.type_rank() {
            prop_assert_eq!(canonical_cmp(&a, &b), Ordering::Less);
        }
    }
}
