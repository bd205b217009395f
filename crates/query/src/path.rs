//! MongoDB-style field-path resolution with implicit array traversal.
//!
//! Document stores resolve a path like `"items.qty"` against arrays by
//! *fanning out*: if `items` is an array of objects, every element's `qty`
//! is a candidate value. Numeric segments double as array indices. The
//! matcher then applies a predicate across all candidates ("any candidate
//! matches" for positive predicates).

use invalidb_common::{Attributes, Document, Value};

/// All values a dotted path resolves to within a document, in traversal
/// order. An empty result means the path is missing entirely.
pub fn resolve<'a>(doc: &'a Document, path: &str) -> Vec<&'a Value> {
    let mut out = Vec::new();
    let segments: Vec<&str> = path.split('.').collect();
    resolve_doc(doc, &segments, &mut out);
    out
}

/// Hands `f` the values [`resolve`] finds, in a record held anywhere: its
/// top-level attribute read on its own ([`Attributes::attr`], so a record
/// read in place decodes that attribute alone), the rest of the path inside
/// it. A top-level field — the common case by far, and what every write
/// and every pull-query candidate is tested on — resolves to at most one
/// value with no fan-out, and nothing is allocated for it.
pub fn with_resolved<R>(
    record: &(impl Attributes + ?Sized),
    path: &str,
    f: impl FnOnce(&[&Value]) -> R,
) -> R {
    let (head, rest) = match path.split_once('.') {
        Some((head, rest)) => (head, Some(rest)),
        None => (path, None),
    };
    let Some(value) = record.attr(head) else { return f(&[]) };
    let Some(rest) = rest else { return f(&[&value]) };
    let segments: Vec<&str> = rest.split('.').collect();
    let mut out = Vec::new();
    resolve_value(&value, &segments, &mut out);
    f(&out)
}

fn resolve_doc<'a>(doc: &'a Document, segments: &[&str], out: &mut Vec<&'a Value>) {
    let (head, rest) = match segments.split_first() {
        Some(split) => split,
        None => return,
    };
    if let Some(v) = doc.get(head) {
        if rest.is_empty() {
            out.push(v);
        } else {
            resolve_value(v, rest, out);
        }
    }
}

fn resolve_value<'a>(value: &'a Value, segments: &[&str], out: &mut Vec<&'a Value>) {
    match value {
        Value::Object(doc) => resolve_doc(doc, segments, out),
        Value::Array(items) => {
            let (head, rest) = segments.split_first().expect("segments non-empty");
            // A numeric segment addresses one element...
            if let Ok(idx) = head.parse::<usize>() {
                if let Some(elem) = items.get(idx) {
                    if rest.is_empty() {
                        out.push(elem);
                    } else {
                        resolve_value(elem, rest, out);
                    }
                }
            }
            // ...and the same segment also fans out across object elements
            // (MongoDB applies both interpretations).
            for elem in items {
                if let Value::Object(doc) = elem {
                    resolve_doc(doc, segments, out);
                }
            }
        }
        _ => {}
    }
}

/// Resolution used by *sort keys* (no fan-out): first value on the plain
/// object/index path, or `None` when missing.
pub fn resolve_first<'a>(doc: &'a Document, path: &str) -> Option<&'a Value> {
    doc.get_path(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn with_resolved_agrees_with_resolve() {
        let d = doc! {
            "n" => 1i64,
            "tags" => vec!["a", "b"],
            "a" => doc! { "b" => 2i64 },
            "items" => vec![Value::Object(doc! { "qty" => 5i64 }), Value::Object(doc! { "qty" => 9i64 })],
        };
        for path in ["n", "tags", "a", "missing", "a.b", "a.missing", "items.qty", "tags.1"] {
            let expected = resolve(&d, path);
            with_resolved(&d, path, |found| assert_eq!(found, expected.as_slice(), "{path}"));
        }
    }

    #[test]
    fn plain_nested_path() {
        let d = doc! { "a" => doc! { "b" => 1i64 } };
        let vals = resolve(&d, "a.b");
        assert_eq!(vals, vec![&Value::Int(1)]);
        assert!(resolve(&d, "a.c").is_empty());
        assert!(resolve(&d, "x").is_empty());
    }

    #[test]
    fn array_fan_out_over_objects() {
        let d = doc! {
            "items" => vec![
                Value::Object(doc! { "qty" => 5i64 }),
                Value::Object(doc! { "qty" => 9i64 }),
                Value::from("not-an-object"),
            ],
        };
        let vals = resolve(&d, "items.qty");
        assert_eq!(vals, vec![&Value::Int(5), &Value::Int(9)]);
    }

    #[test]
    fn numeric_segment_indexes_arrays() {
        let d = doc! { "tags" => vec!["a", "b", "c"] };
        assert_eq!(resolve(&d, "tags.1"), vec![&Value::String("b".into())]);
        assert!(resolve(&d, "tags.9").is_empty());
    }

    #[test]
    fn numeric_segment_also_fans_out() {
        // `a.0.b` must find both the indexed element's `b` and any object
        // element with a field literally named "0" — the index path wins
        // here; the fan-out adds the object case.
        let d = doc! {
            "a" => vec![
                Value::Object(doc! { "b" => 1i64 }),
                Value::Object(doc! { "0" => doc! { "b" => 2i64 } }),
            ],
        };
        let vals = resolve(&d, "a.0.b");
        assert_eq!(vals, vec![&Value::Int(1), &Value::Int(2)]);
    }

    #[test]
    fn terminal_array_returned_whole() {
        let d = doc! { "tags" => vec!["a", "b"] };
        let vals = resolve(&d, "tags");
        assert_eq!(vals.len(), 1);
        assert!(matches!(vals[0], Value::Array(_)));
    }

    #[test]
    fn deep_mixed_nesting() {
        let d = doc! {
            "orders" => vec![
                Value::Object(doc! { "lines" => vec![Value::Object(doc! { "sku" => "x" })] }),
                Value::Object(doc! { "lines" => vec![Value::Object(doc! { "sku" => "y" })] }),
            ],
        };
        let vals = resolve(&d, "orders.lines.sku");
        assert_eq!(vals, vec![&Value::String("x".into()), &Value::String("y".into())]);
    }

    #[test]
    fn scalar_blocks_descent() {
        let d = doc! { "a" => 5i64 };
        assert!(resolve(&d, "a.b").is_empty());
    }
}
