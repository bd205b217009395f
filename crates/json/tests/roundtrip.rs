//! Property-based round-trip tests for the JSON codec.

use invalidb_common::{Document, Value};
use invalidb_json::{parse_document, parse_value, to_string, write_value};
use proptest::prelude::*;

/// Strategy generating arbitrary values (finite recursion, no NaN so plain
/// equality works; NaN round-trip is covered by unit tests).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; NaN breaks PartialEq-based assertions.
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        "[\\PC\u{0}-\u{7f}]{0,16}".prop_map(|s: String| Value::String(s.into())),
    ];
    leaf.prop_recursive(4, 32, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec(("[a-zA-Z0-9_.$-]{1,8}", inner), 0..6)
                .prop_map(|pairs| { Value::Object(pairs.into_iter().collect::<Document>()) }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_roundtrips(v in value_strategy()) {
        let mut s = String::new();
        write_value(&v, &mut s);
        let back = parse_value(&s).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn document_roundtrips(pairs in prop::collection::vec(("[a-z]{1,6}", value_strategy()), 0..8)) {
        let doc: Document = pairs.into_iter().collect();
        let back = parse_document(&to_string(&doc)).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
        let _ = parse_value(&s);
    }

    #[test]
    fn strings_with_escapes_roundtrip(raw in "\\PC{0,32}") {
        let v = Value::String(raw.into());
        let mut s = String::new();
        write_value(&v, &mut s);
        prop_assert_eq!(parse_value(&s).unwrap(), v);
    }
}
