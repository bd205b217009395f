//! Filter AST and evaluation with MongoDB matching semantics.
//!
//! A [`Filter`] is evaluated against a single document ("does this
//! after-image match?"). Semantics follow MongoDB's:
//!
//! * field predicates resolve their path with implicit array fan-out
//!   ([`crate::path::resolve`]); a positive predicate holds when *any*
//!   candidate (or array element of a candidate) satisfies it;
//! * multiple operators on one field may be satisfied by *different* array
//!   elements (`{a: {$gt: 5, $lt: 9}}` matches `a: [4, 10]`) — `$elemMatch`
//!   exists to demand a single element;
//! * ordered comparisons apply *type bracketing*: values of different
//!   canonical type brackets never compare (no `5 < "x"` surprises);
//! * `{field: null}` matches both explicit nulls and missing fields;
//!   `$ne`/`$nin`/`$not` are true negations (they match missing fields).

use crate::geo::{haversine_m, GeoShape, Point};
use crate::path::with_resolved;
use crate::regex::Regex;
use crate::text::TextQuery;
use invalidb_common::{canonical_cmp, canonical_eq, Document, Value};
use std::cmp::Ordering;

/// A compiled filter expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document (`{}`).
    True,
    /// Conjunction (`$and`, also implicit across top-level fields).
    And(Vec<Filter>),
    /// Disjunction (`$or`).
    Or(Vec<Filter>),
    /// Joint denial (`$nor`).
    Nor(Vec<Filter>),
    /// All predicates on one field path.
    Field {
        /// Dotted field path.
        path: String,
        /// Predicates that must all hold.
        preds: Vec<FieldPred>,
    },
    /// Full-text search (`$text`).
    Text(TextQuery),
}

/// One operator applied to a field path.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldPred {
    /// `$eq` (also implicit literal equality).
    Eq(Value),
    /// `$ne`.
    Ne(Value),
    /// `$gt`.
    Gt(Value),
    /// `$gte`.
    Gte(Value),
    /// `$lt`.
    Lt(Value),
    /// `$lte`.
    Lte(Value),
    /// `$in`.
    In(Vec<Value>),
    /// `$nin`.
    Nin(Vec<Value>),
    /// `$exists`.
    Exists(bool),
    /// `$mod: [divisor, remainder]`.
    Mod(i64, i64),
    /// `$size`.
    Size(i64),
    /// `$all`.
    All(Vec<Value>),
    /// `$elemMatch` with a sub-filter (element must be a matching object).
    ElemMatchFilter(Box<Filter>),
    /// `$elemMatch` with operators applied directly to elements.
    ElemMatchPreds(Vec<FieldPred>),
    /// `$regex` (with `$options`).
    Regex(Regex),
    /// `$not` — negates a set of operators.
    Not(Vec<FieldPred>),
    /// `$type` by type name (`"string"`, `"int"`, ...).
    Type(String),
    /// `$geoWithin`.
    GeoWithin(GeoShape),
    /// `$nearSphere` with `$maxDistance` in meters.
    NearSphere {
        /// Query point.
        center: Point,
        /// Maximum haversine distance in meters.
        max_distance_m: f64,
    },
}

impl Filter {
    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::True => true,
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Nor(fs) => !fs.iter().any(|f| f.matches(doc)),
            Filter::Field { path, preds } => {
                with_resolved(doc, path, |candidates| preds.iter().all(|p| pred_holds(p, candidates)))
            }
            Filter::Text(q) => q.matches(doc),
        }
    }
}

/// Evaluates one predicate over the candidate values of a field path.
fn pred_holds(pred: &FieldPred, candidates: &[&Value]) -> bool {
    match pred {
        FieldPred::Eq(v) => {
            if matches!(v, Value::Null) && candidates.is_empty() {
                return true; // {field: null} matches missing fields
            }
            candidates.iter().any(|c| eq_value_match(c, v))
        }
        FieldPred::Ne(v) => !pred_holds(&FieldPred::Eq(v.clone()), candidates),
        FieldPred::Gt(v) => any_ordered(candidates, v, |o| o == Ordering::Greater),
        FieldPred::Gte(v) => any_ordered(candidates, v, |o| o != Ordering::Less),
        FieldPred::Lt(v) => any_ordered(candidates, v, |o| o == Ordering::Less),
        FieldPred::Lte(v) => any_ordered(candidates, v, |o| o != Ordering::Greater),
        FieldPred::In(list) => {
            if list.iter().any(|v| matches!(v, Value::Null)) && candidates.is_empty() {
                return true;
            }
            candidates.iter().any(|c| list.iter().any(|v| eq_value_match(c, v)))
        }
        FieldPred::Nin(list) => !pred_holds(&FieldPred::In(list.clone()), candidates),
        FieldPred::Exists(want) => candidates.is_empty() != *want,
        FieldPred::Mod(d, r) => any_scalar(candidates, |v| {
            v.as_i64().is_some_and(|n| *d != 0 && n.rem_euclid(*d) == r.rem_euclid(*d))
        }),
        FieldPred::Size(n) => {
            candidates.iter().any(|c| matches!(c, Value::Array(items) if items.len() as i64 == *n))
        }
        FieldPred::All(list) => {
            if list.is_empty() {
                return false;
            }
            candidates.iter().any(|c| list.iter().all(|v| eq_value_match(c, v)))
        }
        FieldPred::ElemMatchFilter(f) => candidates.iter().any(|c| match c {
            Value::Array(items) => items.iter().any(|e| match e {
                Value::Object(obj) => f.matches(obj),
                _ => false,
            }),
            _ => false,
        }),
        FieldPred::ElemMatchPreds(preds) => candidates.iter().any(|c| match c {
            Value::Array(items) => items.iter().any(|e| preds.iter().all(|p| pred_holds(p, &[e]))),
            _ => false,
        }),
        FieldPred::Regex(r) => any_scalar(candidates, |v| match v {
            Value::String(s) => r.is_match(s),
            _ => false,
        }),
        FieldPred::Not(preds) => !preds.iter().all(|p| pred_holds(p, candidates)),
        FieldPred::Type(name) => candidates.iter().any(|c| c.type_name() == name),
        FieldPred::GeoWithin(shape) => {
            candidates.iter().any(|c| Point::parse(c).is_some_and(|p| shape.contains(p)))
        }
        FieldPred::NearSphere { center, max_distance_m } => candidates
            .iter()
            .any(|c| Point::parse(c).is_some_and(|p| haversine_m(*center, p) <= *max_distance_m)),
    }
}

/// Equality with implicit array containment: `c == v`, or `c` is an array
/// containing an element equal to `v`.
fn eq_value_match(c: &Value, v: &Value) -> bool {
    if canonical_eq(c, v) {
        return true;
    }
    match c {
        Value::Array(items) => items.iter().any(|e| canonical_eq(e, v)),
        _ => false,
    }
}

/// Ordered comparison with type bracketing and array fan-out.
fn any_ordered(candidates: &[&Value], v: &Value, ok: impl Fn(Ordering) -> bool) -> bool {
    let test = |c: &Value| c.type_rank() == v.type_rank() && ok(canonical_cmp(c, v));
    candidates.iter().any(|c| {
        test(c)
            || match c {
                Value::Array(items) => items.iter().any(&test),
                _ => false,
            }
    })
}

/// Scalar test with array fan-out (used by `$mod` and `$regex`).
fn any_scalar(candidates: &[&Value], test: impl Fn(&Value) -> bool) -> bool {
    candidates.iter().any(|c| {
        test(c)
            || match c {
                Value::Array(items) => items.iter().any(&test),
                _ => false,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn field(path: &str, pred: FieldPred) -> Filter {
        Filter::Field { path: path.into(), preds: vec![pred] }
    }

    #[test]
    fn implicit_equality_and_array_containment() {
        let d = doc! { "tags" => vec!["a", "b"], "n" => 5i64 };
        assert!(field("tags", FieldPred::Eq("a".into())).matches(&d));
        assert!(!field("tags", FieldPred::Eq("z".into())).matches(&d));
        assert!(field("n", FieldPred::Eq(Value::Float(5.0))).matches(&d), "cross-numeric eq");
        // Whole-array equality.
        assert!(field("tags", FieldPred::Eq(Value::from(vec!["a", "b"]))).matches(&d));
    }

    #[test]
    fn null_matches_missing() {
        let d = doc! { "a" => Value::Null };
        assert!(field("a", FieldPred::Eq(Value::Null)).matches(&d));
        assert!(field("zzz", FieldPred::Eq(Value::Null)).matches(&d));
        assert!(!field("zzz", FieldPred::Eq(1i64.into())).matches(&d));
    }

    #[test]
    fn ne_matches_missing() {
        let d = doc! { "a" => 1i64 };
        assert!(field("b", FieldPred::Ne(5i64.into())).matches(&d));
        assert!(field("a", FieldPred::Ne(5i64.into())).matches(&d));
        assert!(!field("a", FieldPred::Ne(1i64.into())).matches(&d));
    }

    #[test]
    fn ordered_comparisons_with_type_bracketing() {
        let d = doc! { "n" => 5i64, "s" => "x" };
        assert!(field("n", FieldPred::Gt(3i64.into())).matches(&d));
        assert!(field("n", FieldPred::Gte(5i64.into())).matches(&d));
        assert!(field("n", FieldPred::Lt(Value::Float(5.5))).matches(&d));
        assert!(!field("n", FieldPred::Gt(5i64.into())).matches(&d));
        // Strings never satisfy numeric comparisons and vice versa.
        assert!(!field("s", FieldPred::Gt(0i64.into())).matches(&d));
        assert!(!field("n", FieldPred::Lt("zzz".into())).matches(&d));
        // But strings compare with strings.
        assert!(field("s", FieldPred::Gt("a".into())).matches(&d));
    }

    #[test]
    fn multiple_operators_may_use_different_elements() {
        let d = doc! { "a" => vec![4i64, 10] };
        let f = Filter::Field {
            path: "a".into(),
            preds: vec![FieldPred::Gt(5i64.into()), FieldPred::Lt(9i64.into())],
        };
        assert!(f.matches(&d), "4 satisfies $lt, 10 satisfies $gt");
        // $elemMatch demands one element satisfying both.
        let em = field(
            "a",
            FieldPred::ElemMatchPreds(vec![FieldPred::Gt(5i64.into()), FieldPred::Lt(9i64.into())]),
        );
        assert!(!em.matches(&d));
        let d2 = doc! { "a" => vec![4i64, 7] };
        assert!(em.matches(&d2));
    }

    #[test]
    fn in_nin() {
        let d = doc! { "x" => 2i64, "tags" => vec!["a"] };
        assert!(field("x", FieldPred::In(vec![1i64.into(), 2i64.into()])).matches(&d));
        assert!(!field("x", FieldPred::In(vec![3i64.into()])).matches(&d));
        assert!(field("tags", FieldPred::In(vec!["a".into()])).matches(&d));
        assert!(field("x", FieldPred::Nin(vec![3i64.into()])).matches(&d));
        assert!(!field("x", FieldPred::Nin(vec![2i64.into()])).matches(&d));
        // Null in $in matches missing field.
        assert!(field("missing", FieldPred::In(vec![Value::Null])).matches(&d));
        assert!(!field("missing", FieldPred::Nin(vec![Value::Null])).matches(&d));
    }

    #[test]
    fn exists() {
        let d = doc! { "a" => Value::Null };
        assert!(field("a", FieldPred::Exists(true)).matches(&d));
        assert!(!field("a", FieldPred::Exists(false)).matches(&d));
        assert!(field("b", FieldPred::Exists(false)).matches(&d));
    }

    #[test]
    fn mod_size_all() {
        let d = doc! { "n" => 10i64, "neg" => -7i64, "tags" => vec!["a", "b", "c"] };
        assert!(field("n", FieldPred::Mod(3, 1)).matches(&d));
        assert!(!field("n", FieldPred::Mod(3, 2)).matches(&d));
        // MongoDB $mod uses truncated semantics for negatives; we use
        // euclidean congruence on both sides which agrees on sign-matched
        // expectations: -7 ≡ 2 (mod 3).
        assert!(field("neg", FieldPred::Mod(3, 2)).matches(&d));
        assert!(field("tags", FieldPred::Size(3)).matches(&d));
        assert!(!field("tags", FieldPred::Size(2)).matches(&d));
        assert!(!field("n", FieldPred::Size(1)).matches(&d), "$size only applies to arrays");
        assert!(field("tags", FieldPred::All(vec!["a".into(), "c".into()])).matches(&d));
        assert!(!field("tags", FieldPred::All(vec!["a".into(), "z".into()])).matches(&d));
        assert!(!field("tags", FieldPred::All(vec![])).matches(&d));
        // Non-array field matches single-element $all.
        assert!(field("n", FieldPred::All(vec![10i64.into()])).matches(&d));
    }

    #[test]
    fn elem_match_with_subfilter() {
        let d = doc! {
            "items" => vec![
                Value::Object(doc! { "sku" => "x", "qty" => 2i64 }),
                Value::Object(doc! { "sku" => "y", "qty" => 9i64 }),
            ],
        };
        let f = field(
            "items",
            FieldPred::ElemMatchFilter(Box::new(Filter::And(vec![
                field("sku", FieldPred::Eq("y".into())),
                field("qty", FieldPred::Gt(5i64.into())),
            ]))),
        );
        assert!(f.matches(&d));
        let f2 = field(
            "items",
            FieldPred::ElemMatchFilter(Box::new(Filter::And(vec![
                field("sku", FieldPred::Eq("x".into())),
                field("qty", FieldPred::Gt(5i64.into())),
            ]))),
        );
        assert!(!f2.matches(&d));
    }

    #[test]
    fn regex_pred() {
        let d = doc! { "name" => "Wingerath", "tags" => vec!["alpha", "Beta"] };
        let r = Regex::compile("^wing", "i").unwrap();
        assert!(field("name", FieldPred::Regex(r)).matches(&d));
        let r = Regex::compile("^beta$", "i").unwrap();
        assert!(field("tags", FieldPred::Regex(r)).matches(&d), "regex fans out over arrays");
        let r = Regex::compile("gamma", "").unwrap();
        assert!(!field("tags", FieldPred::Regex(r)).matches(&d));
    }

    #[test]
    fn not_negates_and_matches_missing() {
        let d = doc! { "n" => 10i64 };
        assert!(!field("n", FieldPred::Not(vec![FieldPred::Gt(5i64.into())])).matches(&d));
        assert!(field("n", FieldPred::Not(vec![FieldPred::Gt(50i64.into())])).matches(&d));
        assert!(field("missing", FieldPred::Not(vec![FieldPred::Gt(0i64.into())])).matches(&d));
    }

    #[test]
    fn logical_combinators() {
        let d = doc! { "a" => 1i64, "b" => 2i64 };
        let a1 = field("a", FieldPred::Eq(1i64.into()));
        let b9 = field("b", FieldPred::Eq(9i64.into()));
        assert!(Filter::And(vec![a1.clone()]).matches(&d));
        assert!(!Filter::And(vec![a1.clone(), b9.clone()]).matches(&d));
        assert!(Filter::Or(vec![b9.clone(), a1.clone()]).matches(&d));
        assert!(!Filter::Or(vec![b9.clone()]).matches(&d));
        assert!(Filter::Nor(vec![b9.clone()]).matches(&d));
        assert!(!Filter::Nor(vec![a1]).matches(&d));
        assert!(Filter::True.matches(&d));
    }

    #[test]
    fn type_pred() {
        let d = doc! { "a" => 1i64, "b" => "s", "c" => 1.5f64 };
        assert!(field("a", FieldPred::Type("int".into())).matches(&d));
        assert!(field("b", FieldPred::Type("string".into())).matches(&d));
        assert!(field("c", FieldPred::Type("float".into())).matches(&d));
        assert!(!field("a", FieldPred::Type("string".into())).matches(&d));
    }

    #[test]
    fn geo_preds() {
        let d = doc! { "loc" => vec![10.0f64, 53.5f64] };
        let within = field(
            "loc",
            FieldPred::GeoWithin(GeoShape::Box {
                min: Point { lon: 9.0, lat: 53.0 },
                max: Point { lon: 11.0, lat: 54.0 },
            }),
        );
        assert!(within.matches(&d));
        let near = field(
            "loc",
            FieldPred::NearSphere { center: Point { lon: 10.0, lat: 53.6 }, max_distance_m: 20_000.0 },
        );
        assert!(near.matches(&d));
        let far = field(
            "loc",
            FieldPred::NearSphere { center: Point { lon: 20.0, lat: 40.0 }, max_distance_m: 20_000.0 },
        );
        assert!(!far.matches(&d));
    }

    #[test]
    fn nested_path_predicates() {
        let d = doc! { "user" => doc! { "age" => 30i64 } };
        assert!(field("user.age", FieldPred::Gte(18i64.into())).matches(&d));
        assert!(!field("user.age", FieldPred::Lt(18i64.into())).matches(&d));
    }
}
