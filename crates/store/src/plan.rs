//! A small query planner: picks one index-accelerated access path, with the
//! full filter always re-applied as a residual (indexes narrow the candidate
//! set; they never decide matching on their own).

use crate::index::FieldIndex;
use invalidb_common::{Document, Str, Value};
use std::collections::HashMap;
use std::ops::Bound;

/// Chosen access path for a query, naming its field as the filter does.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan<'a> {
    /// Scan every record.
    FullScan,
    /// Point lookup on a field index.
    IndexEq {
        /// Indexed field.
        field: &'a str,
        /// Equality value.
        value: Value,
    },
    /// Range scan on a field index.
    IndexRange {
        /// Indexed field.
        field: &'a str,
        /// Lower bound.
        lower: Bound<Value>,
        /// Upper bound.
        upper: Bound<Value>,
    },
}

/// Picks a plan for a wire-form filter given the collection's indexes, by
/// field.
///
/// Only top-level conjunctive conditions are considered (fields of the
/// filter document), which is the common fast path; anything else falls back
/// to a full scan. Range conditions are clamped to the value's canonical
/// type bracket so e.g. `{n: {$gt: 5}}` does not scan the string section of
/// the index. Planning allocates nothing but the plan's own values.
pub fn plan_query<'f>(filter: &'f Document, indexes: &HashMap<String, FieldIndex>) -> Plan<'f> {
    for (field, cond) in filter.iter() {
        let Some(index) = indexes.get(field).filter(|_| !field.starts_with('$')) else { continue };
        match cond {
            // Literal equality (objects with operators handled below).
            Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => {
                if let Some(plan) = plan_operators(field, obj, index.is_multikey()) {
                    return plan;
                }
            }
            literal => {
                // Equality on an array literal also matches documents that
                // *contain* the array as an element; a multikey point lookup
                // would miss whole-array matches, so skip those.
                if !matches!(literal, Value::Array(_)) {
                    return Plan::IndexEq { field, value: literal.clone() };
                }
            }
        }
    }
    Plan::FullScan
}

fn plan_operators<'f>(field: &'f str, obj: &Document, multikey: bool) -> Option<Plan<'f>> {
    if let Some(v) = obj.get("$eq") {
        if !matches!(v, Value::Array(_)) {
            return Some(Plan::IndexEq { field, value: v.clone() });
        }
    }
    let mut lower: Bound<Value> = Bound::Unbounded;
    let mut upper: Bound<Value> = Bound::Unbounded;
    let mut bracket_of: Option<u8> = None;
    for (op, v) in obj.iter() {
        let relevant = matches!(op, "$gt" | "$gte" | "$lt" | "$lte");
        if !relevant {
            continue;
        }
        // Range plans only for number/string brackets (where clean bracket
        // sentinels exist); everything else stays a full scan.
        if !matches!(v.type_rank(), 1 | 2) {
            return None;
        }
        if let Some(b) = bracket_of {
            if b != v.type_rank() {
                // Contradictory brackets, e.g. {$gt: 5, $lt: "x"} — cannot
                // match anything under type bracketing, but let the residual
                // filter decide; scan nothing via an empty range.
                return None;
            }
        }
        bracket_of = Some(v.type_rank());
        match op {
            "$gt" => lower = tighten_lower(lower, Bound::Excluded(v.clone())),
            "$gte" => lower = tighten_lower(lower, Bound::Included(v.clone())),
            "$lt" => upper = tighten_upper(upper, Bound::Excluded(v.clone())),
            "$lte" => upper = tighten_upper(upper, Bound::Included(v.clone())),
            _ => unreachable!(),
        }
    }
    let bracket = bracket_of?;
    // On a multikey field a lower and an upper bound may each hold for
    // another element of one record's array (`{tags: {$gte: "x", $lte:
    // "b"}}` matches `["y", "a"]`): only the lower bound narrows the scan.
    if multikey && !matches!(lower, Bound::Unbounded) {
        upper = Bound::Unbounded;
    }
    // Clamp open ends to the bracket boundary.
    if matches!(lower, Bound::Unbounded) {
        lower = bracket_lower(bracket);
    }
    if matches!(upper, Bound::Unbounded) {
        upper = bracket_upper(bracket);
    }
    Some(Plan::IndexRange { field, lower, upper })
}

/// Bracket sentinels under the canonical order
/// (Null < numbers < strings < objects < arrays < bools).
fn bracket_lower(rank: u8) -> Bound<Value> {
    match rank {
        1 => Bound::Included(Value::Float(f64::NAN)), // NaN sorts first among numbers
        2 => Bound::Included(Value::String(Str::default())),
        _ => Bound::Unbounded,
    }
}

fn bracket_upper(rank: u8) -> Bound<Value> {
    match rank {
        1 => Bound::Included(Value::Float(f64::INFINITY)),
        2 => Bound::Excluded(Value::Object(Document::new())),
        _ => Bound::Unbounded,
    }
}

fn tighten_lower(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    use invalidb_common::canonical_cmp;
    use std::cmp::Ordering;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match canonical_cmp(x, y) {
                Ordering::Less => b,
                Ordering::Greater => a,
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn tighten_upper(a: Bound<Value>, b: Bound<Value>) -> Bound<Value> {
    use invalidb_common::canonical_cmp;
    use std::cmp::Ordering;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match canonical_cmp(x, y) {
                Ordering::Less => a,
                Ordering::Greater => b,
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn indexed() -> HashMap<String, FieldIndex> {
        ["n", "name"].into_iter().map(|field| (field.to_owned(), FieldIndex::new())).collect()
    }

    #[test]
    fn literal_equality_uses_index() {
        let filter = doc! { "n" => 5i64 };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::IndexEq { field: "n", value: Value::Int(5) });
    }

    #[test]
    fn non_indexed_field_full_scans() {
        let filter = doc! { "other" => 5i64 };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::FullScan);
    }

    #[test]
    fn range_operators_combine() {
        let filter = doc! { "n" => doc! { "$gte" => 3i64, "$lt" => 9i64 } };
        let p = plan_query(&filter, &indexed());
        assert_eq!(
            p,
            Plan::IndexRange {
                field: "n",
                lower: Bound::Included(Value::Int(3)),
                upper: Bound::Excluded(Value::Int(9)),
            }
        );
    }

    #[test]
    fn open_range_clamps_to_bracket() {
        let filter = doc! { "n" => doc! { "$gt" => 5i64 } };
        let p = plan_query(&filter, &indexed());
        match p {
            Plan::IndexRange { lower, upper, .. } => {
                assert_eq!(lower, Bound::Excluded(Value::Int(5)));
                assert_eq!(upper, Bound::Included(Value::Float(f64::INFINITY)));
            }
            other => panic!("expected range, got {other:?}"),
        }
        let filter = doc! { "name" => doc! { "$lt" => "m" } };
        let p = plan_query(&filter, &indexed());
        match p {
            Plan::IndexRange { lower, upper, .. } => {
                assert_eq!(lower, Bound::Included(Value::String(Str::default())));
                assert_eq!(upper, Bound::Excluded(Value::String("m".into())));
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn eq_operator_uses_point_lookup() {
        let filter = doc! { "n" => doc! { "$eq" => 7i64 } };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::IndexEq { field: "n", value: Value::Int(7) });
    }

    #[test]
    fn array_equality_is_not_planned() {
        let filter = doc! { "n" => vec![1i64, 2] };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::FullScan);
    }

    #[test]
    fn unsupported_operators_fall_back() {
        let filter = doc! { "n" => doc! { "$ne" => 5i64 } };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::FullScan);
        let filter = doc! { "$or" => vec![Value::Object(doc! { "n" => 1i64 })] };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::FullScan);
        let filter = doc! { "n" => doc! { "$gt" => true } };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::FullScan);
    }

    /// Once a record holds several values of the field, a range keeps its
    /// lower bound alone: a record's elements may meet its two bounds apart.
    #[test]
    fn a_multikey_range_keeps_one_bound() {
        let mut indexes = indexed();
        let filter = doc! { "n" => doc! { "$gte" => 3i64, "$lt" => 9i64 } };
        let p = plan_query(&filter, &indexes);
        assert!(matches!(p, Plan::IndexRange { upper: Bound::Excluded(Value::Int(9)), .. }), "{p:?}");
        let index = indexes.get_mut("n").unwrap();
        index.insert("n", &invalidb_common::Key::of(1i64), &doc! { "n" => vec![1i64, 10] });
        let p = plan_query(&filter, &indexes);
        assert_eq!(
            p,
            Plan::IndexRange {
                field: "n",
                lower: Bound::Included(Value::Int(3)),
                upper: Bound::Included(Value::Float(f64::INFINITY)),
            }
        );
    }

    #[test]
    fn first_indexed_field_wins() {
        let filter = doc! { "other" => 1i64, "n" => 5i64 };
        let p = plan_query(&filter, &indexed());
        assert_eq!(p, Plan::IndexEq { field: "n", value: Value::Int(5) });
    }
}
