//! Query normalization for stable query hashing (§5.1).
//!
//! Query partitioning hashes the *query attributes*; to make semantically
//! identical filters hash identically, the filter is canonicalized into its
//! **conjunctive form** first: top-level field conditions and (recursively
//! flattened) `$and` operands become a flat list of single-conjunct
//! documents, multi-operator conditions are split into one conjunct per
//! operator (exact under MongoDB semantics — see [`crate::predicate`]),
//! `{$eq: lit}` collapses to the plain-literal spelling, and the conjunct
//! list is sorted and deduplicated by canonical encoding. Zero conjuncts
//! render as `{}`, one as itself, many as a single sorted `$and`. The
//! operand lists of `$or`/`$nor` are sorted (and deduplicated) the same
//! way. Literal values (equality operands, `$in` lists, …) are left
//! untouched — their order carries meaning.
//!
//! Because the app server hashes the *normalized* spec, every subscription
//! whose filter is the same conjunction — however spelled — lands on the
//! same `QueryHash`, and therefore shares one query group on the matching
//! grid and one sort window on the sorting stage.

use invalidb_common::{Document, QuerySpec, Value};

/// Returns a canonicalized copy of the spec (used before hashing).
pub fn normalize_spec(spec: &QuerySpec) -> QuerySpec {
    let mut out = spec.clone();
    out.filter = normalize_filter(&spec.filter);
    out
}

/// Canonicalizes a filter document into its conjunctive form.
pub fn normalize_filter(filter: &Document) -> Document {
    let mut conjuncts = conjuncts_of(filter);
    match conjuncts.len() {
        0 => Document::new(),
        1 => conjuncts.pop().expect("one conjunct"),
        _ => {
            let items: Vec<Value> = conjuncts.into_iter().map(Value::Object).collect();
            let mut out = Document::with_capacity(1);
            out.insert("$and", Value::Array(items));
            out
        }
    }
}

/// The canonical conjunct list of a filter: each returned document is one
/// atomic conjunct (parseable standalone), and their AND is semantically
/// identical to the input. Sorted and deduplicated by canonical encoding.
///
/// Malformed fragments (an empty or non-array `$and`, unknown top-level
/// operators, mixed operator/plain keys) are preserved verbatim as opaque
/// conjuncts so the parser still rejects them — normalization must never
/// turn an invalid filter into a valid one.
pub(crate) fn conjuncts_of(filter: &Document) -> Vec<Document> {
    let mut out = Vec::new();
    collect_conjuncts(filter, &mut out);
    let mut keyed: Vec<(Vec<u8>, Document)> = out
        .into_iter()
        .map(|d| {
            let mut bytes = Vec::new();
            d.write_canonical(&mut bytes);
            (bytes, d)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    keyed.into_iter().map(|(_, d)| d).collect()
}

fn singleton(key: &str, value: Value) -> Document {
    let mut d = Document::with_capacity(1);
    d.insert(key, value);
    d
}

fn collect_conjuncts(filter: &Document, out: &mut Vec<Document>) {
    for (key, value) in filter.iter() {
        match key {
            "$and" => match value.as_array() {
                // Well-formed $and: flatten its operands into this level.
                Some(items) if !items.is_empty() && items.iter().all(|i| i.as_object().is_some()) => {
                    for item in items {
                        collect_conjuncts(item.as_object().expect("checked"), out);
                    }
                }
                // Malformed: keep verbatim so parse still rejects it.
                _ => out.push(singleton(key, value.clone())),
            },
            "$or" | "$nor" => out.push(singleton(key, normalize_operand_list(value))),
            "$text" => out.push(singleton(key, value.clone())),
            _ if key.starts_with('$') => out.push(singleton(key, value.clone())),
            field => collect_field_conjuncts(field, value, out),
        }
    }
}

/// `$options` modifies `$regex` and `$maxDistance` modifies `$nearSphere`
/// at parse time: a condition containing any of them is not splittable.
fn coupled(op: &str) -> bool {
    matches!(op, "$regex" | "$options" | "$nearSphere" | "$maxDistance")
}

fn collect_field_conjuncts(field: &str, value: &Value, out: &mut Vec<Document>) {
    let cond = normalize_condition(value);
    if let Value::Object(obj) = &cond {
        let all_ops = !obj.is_empty() && obj.keys().all(|k| k.starts_with('$'));
        if all_ops && obj.len() > 1 && !obj.keys().any(coupled) {
            // Exact split: each operator is an independent predicate over
            // the same resolved values (implicit array fan-out included).
            for (op, operand) in obj.iter() {
                out.push(singleton(field, eq_collapsed(op, operand)));
            }
            return;
        }
        if all_ops && obj.len() == 1 {
            let (op, operand) = obj.iter().next().expect("one op");
            out.push(singleton(field, eq_collapsed(op, operand)));
            return;
        }
    }
    out.push(singleton(field, cond));
}

/// Canonicalizes `{$eq: lit}` to the plain-literal spelling `lit` whenever
/// that spelling parses back to the same predicate (i.e. the literal is not
/// an object with operator-looking keys, which only the explicit `$eq` form
/// can express).
fn eq_collapsed(op: &str, operand: &Value) -> Value {
    if op == "$eq" {
        match operand {
            Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => {}
            literal => return literal.clone(),
        }
    }
    Value::Object(singleton(op, operand.clone()))
}

fn normalize_operand_list(v: &Value) -> Value {
    let items = match v.as_array() {
        Some(items) => items,
        None => return v.clone(),
    };
    let mut normalized: Vec<Value> = items
        .iter()
        .map(|item| match item {
            Value::Object(doc) => Value::Object(normalize_filter(doc)),
            other => other.clone(),
        })
        .collect();
    normalized.sort_by_key(|v| {
        let mut bytes = Vec::new();
        v.write_canonical(&mut bytes);
        bytes
    });
    normalized.dedup_by(|a, b| invalidb_common::canonical_eq(a, b));
    Value::Array(normalized)
}

/// Normalizes one field condition: operator objects get their operator keys
/// sorted (recursing into `$not`/`$elemMatch`); literals stay as-is.
fn normalize_condition(v: &Value) -> Value {
    let obj = match v {
        Value::Object(obj) if obj.keys().any(|k| k.starts_with('$')) => obj,
        other => return other.clone(),
    };
    let mut entries: Vec<(String, Value)> = obj
        .iter()
        .map(|(op, operand)| {
            let operand = match op {
                "$not" => normalize_condition(operand),
                "$elemMatch" => match operand {
                    Value::Object(inner) if inner.keys().any(|k| k.starts_with('$')) => {
                        normalize_condition(operand)
                    }
                    Value::Object(inner) => Value::Object(normalize_filter(inner)),
                    other => other.clone(),
                },
                _ => operand.clone(),
            };
            (op.to_owned(), operand)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Object(entries.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn field_order_is_canonicalized() {
        let a = QuerySpec::filter("t", doc! { "b" => 1i64, "a" => 2i64 });
        let b = QuerySpec::filter("t", doc! { "a" => 2i64, "b" => 1i64 });
        assert_ne!(a.stable_hash(), b.stable_hash(), "raw hashes differ");
        assert_eq!(normalize_spec(&a).stable_hash(), normalize_spec(&b).stable_hash());
    }

    #[test]
    fn operator_order_is_canonicalized() {
        let a = QuerySpec::filter("t", doc! { "n" => doc! { "$lt" => 9i64, "$gt" => 5i64 } });
        let b = QuerySpec::filter("t", doc! { "n" => doc! { "$gt" => 5i64, "$lt" => 9i64 } });
        assert_eq!(normalize_spec(&a).stable_hash(), normalize_spec(&b).stable_hash());
    }

    #[test]
    fn conjunctive_spellings_collapse() {
        // Implicit conjunction, explicit $and, nested $and, $eq vs plain
        // literal: one conjunction, one hash — and therefore one query
        // group and one shared sort window downstream.
        let spellings = [
            doc! { "a" => 1i64, "n" => doc! { "$gt" => 5i64, "$lt" => 9i64 } },
            doc! { "$and" => vec![
                Value::Object(doc! { "a" => doc! { "$eq" => 1i64 } }),
                Value::Object(doc! { "n" => doc! { "$lt" => 9i64 } }),
                Value::Object(doc! { "n" => doc! { "$gt" => 5i64 } }),
            ]},
            doc! { "n" => doc! { "$gt" => 5i64 }, "$and" => vec![
                Value::Object(doc! { "$and" => vec![
                    Value::Object(doc! { "n" => doc! { "$lt" => 9i64 } }),
                ]}),
                Value::Object(doc! { "a" => 1i64 }),
            ]},
        ];
        let hashes: Vec<_> = spellings
            .iter()
            .map(|f| normalize_spec(&QuerySpec::filter("t", f.clone())).stable_hash())
            .collect();
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[0], hashes[2]);
    }

    #[test]
    fn malformed_and_is_preserved_for_the_parser() {
        // `{$and: []}` is a parse error; normalization must not silently
        // turn it into the match-everything filter.
        let empty = normalize_filter(&doc! { "$and" => Vec::<Value>::new() });
        assert!(crate::parse::parse_filter(&empty).is_err());
        let non_array = normalize_filter(&doc! { "$and" => 1i64 });
        assert!(crate::parse::parse_filter(&non_array).is_err());
    }

    #[test]
    fn or_operands_are_sorted_and_deduped() {
        let a = QuerySpec::filter(
            "t",
            doc! { "$or" => vec![
                Value::Object(doc! { "a" => 1i64 }),
                Value::Object(doc! { "b" => 2i64 }),
                Value::Object(doc! { "a" => 1i64 }),
            ]},
        );
        let b = QuerySpec::filter(
            "t",
            doc! { "$or" => vec![
                Value::Object(doc! { "b" => 2i64 }),
                Value::Object(doc! { "a" => 1i64 }),
            ]},
        );
        assert_eq!(normalize_spec(&a).stable_hash(), normalize_spec(&b).stable_hash());
    }

    #[test]
    fn literal_values_are_untouched() {
        // $in list order is semantic identity here: do not reorder literals.
        let a = QuerySpec::filter("t", doc! { "n" => doc! { "$in" => vec![2i64, 1] } });
        let normalized = normalize_spec(&a);
        assert_eq!(
            normalized.filter.get("n").unwrap().as_object().unwrap().get("$in"),
            Some(&Value::from(vec![2i64, 1]))
        );
        // Object literal equality keeps field order.
        let b = QuerySpec::filter("t", doc! { "o" => doc! { "y" => 1i64, "x" => 2i64 } });
        let normalized = normalize_spec(&b);
        let keys: Vec<&str> = normalized.filter.get("o").unwrap().as_object().unwrap().keys().collect();
        assert_eq!(keys, vec!["y", "x"]);
    }

    #[test]
    fn normalization_preserves_semantics() {
        let spec = QuerySpec::filter(
            "t",
            doc! {
                "b" => doc! { "$lt" => 9i64, "$gt" => 5i64 },
                "$or" => vec![
                    Value::Object(doc! { "x" => 1i64 }),
                    Value::Object(doc! { "y" => 2i64 }),
                ],
            },
        );
        let norm = normalize_spec(&spec);
        let orig = crate::parse::parse_filter(&spec.filter).unwrap();
        let canon = crate::parse::parse_filter(&norm.filter).unwrap();
        for d in [
            doc! { "b" => 7i64, "x" => 1i64 },
            doc! { "b" => 7i64, "y" => 2i64 },
            doc! { "b" => 7i64 },
            doc! { "b" => 10i64, "x" => 1i64 },
        ] {
            assert_eq!(orig.matches(&d), canon.matches(&d), "doc {d}");
        }
    }

    #[test]
    fn split_conditions_preserve_array_fanout_semantics() {
        // `{a: {$gt: 5, $lt: 9}}` matches `{a: [4, 10]}` under MongoDB
        // array fan-out (each predicate independently satisfiable); the
        // normalized split form must agree.
        let raw = doc! { "a" => doc! { "$gt" => 5i64, "$lt" => 9i64 } };
        let norm = normalize_filter(&raw);
        let orig = crate::parse::parse_filter(&raw).unwrap();
        let canon = crate::parse::parse_filter(&norm).unwrap();
        for d in [
            doc! { "a" => Value::from(vec![4i64, 10]) },
            doc! { "a" => 7i64 },
            doc! { "a" => 4i64 },
            doc! { "a" => Value::from(vec![1i64, 2]) },
        ] {
            assert_eq!(orig.matches(&d), canon.matches(&d), "doc {d}");
            assert!(orig.matches(&doc! { "a" => Value::from(vec![4i64, 10]) }));
        }
    }
}
