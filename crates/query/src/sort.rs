//! Result ordering for sorted queries.
//!
//! The real-time query engine and the pull-based database engine must sort
//! identically (§5.3, footnote 4): the comparator below is shared by both
//! sides in this workspace, and — as the paper's prototype does — the
//! primary key is appended as the final sort attribute so the sort key is
//! always unambiguous.

use crate::path::resolve_first;
use invalidb_common::{canonical_cmp, Attributes, Document, Key, SortDirection, SortSpec, Value};
use std::cmp::Ordering;

/// The value a document contributes for one sort key.
///
/// MongoDB array semantics: when the field is an array, the smallest element
/// is used for ascending sorts and the largest for descending; missing
/// fields sort as `Null`.
pub fn sort_value<'a>(doc: &'a Document, path: &str, dir: SortDirection) -> &'a Value {
    pick(resolve_first(doc, path), dir)
}

/// [`sort_value`]'s rule applied to what a path resolved to.
fn pick(found: Option<&Value>, dir: SortDirection) -> &Value {
    const NULL: &Value = &Value::Null;
    match found {
        None => NULL,
        Some(Value::Array(items)) => {
            let pick = match dir {
                SortDirection::Asc => items.iter().min_by(|a, b| canonical_cmp(a, b)),
                SortDirection::Desc => items.iter().max_by(|a, b| canonical_cmp(a, b)),
            };
            pick.unwrap_or(NULL)
        }
        Some(v) => v,
    }
}

/// One sort field's comparison of two contributed values.
fn compare_values(dir: SortDirection, a: &Value, b: &Value) -> Ordering {
    let ord = canonical_cmp(a, b);
    match dir {
        SortDirection::Asc => ord,
        SortDirection::Desc => ord.reverse(),
    }
}

/// Compares two `(key, document)` pairs under a sort specification, with the
/// primary key as implicit final (ascending) tiebreak.
pub fn compare_items(sort: &SortSpec, a: (&Key, &Document), b: (&Key, &Document)) -> Ordering {
    for (path, dir) in sort {
        let ord = compare_values(*dir, sort_value(a.1, path, *dir), sort_value(b.1, path, *dir));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.0.cmp(b.0)
}

/// The values a record sorts by under one [`SortSpec`], read once, so that
/// comparing two records reads neither of them again. The first value is
/// held inline: a one-field sort allocates nothing for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    first: Value,
    rest: Box<[Value]>,
}

impl SortKey {
    /// What `record` contributes for each field of `sort`, by
    /// [`sort_value`]'s rule, each attribute read where the record is held.
    pub fn of(record: &(impl Attributes + ?Sized), sort: &SortSpec) -> SortKey {
        let mut values = sort.iter().map(|(path, dir)| {
            let found = record.attr_path(path);
            pick(found.as_deref(), *dir).clone()
        });
        let first = values.next().unwrap_or(Value::Null);
        SortKey { first, rest: values.collect() }
    }

    fn values(&self) -> impl Iterator<Item = &Value> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }
}

/// [`compare_items`] of two records by their [`SortKey`]s under the `sort`
/// they were read with.
pub fn compare_keys(sort: &SortSpec, a: (&Key, &SortKey), b: (&Key, &SortKey)) -> Ordering {
    for ((_, dir), (va, vb)) in sort.iter().zip(a.1.values().zip(b.1.values())) {
        let ord = compare_values(*dir, va, vb);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.0.cmp(b.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn item(key: i64, year: i64, title: &str) -> (Key, Document) {
        (Key::of(key), doc! { "year" => year, "title" => title })
    }

    fn sorted(spec: &SortSpec, mut items: Vec<(Key, Document)>) -> Vec<i64> {
        items.sort_by(|a, b| compare_items(spec, (&a.0, &a.1), (&b.0, &b.1)));
        items
            .iter()
            .map(|(k, _)| match &k.0 {
                Value::Int(i) => *i,
                _ => panic!("int keys only"),
            })
            .collect()
    }

    #[test]
    fn single_key_descending_with_pk_tiebreak() {
        // Figure 3's query: ORDER BY year DESC; ties broken by key.
        let spec: SortSpec = vec![("year".into(), SortDirection::Desc)];
        let items = vec![
            item(5, 2018, "DB Fun"),
            item(8, 2018, "No SQL!"),
            item(3, 2017, "BaaS For Dummies"),
            item(4, 2017, "Query Languages"),
            item(7, 2016, "Streams in Action"),
            item(9, 2016, "SaaS For Dummies"),
        ];
        assert_eq!(sorted(&spec, items), vec![5, 8, 3, 4, 7, 9]);
    }

    #[test]
    fn multi_attribute_sort() {
        let spec: SortSpec =
            vec![("year".into(), SortDirection::Asc), ("title".into(), SortDirection::Desc)];
        let items = vec![item(1, 2018, "A"), item(2, 2017, "B"), item(3, 2017, "C")];
        assert_eq!(sorted(&spec, items), vec![3, 2, 1]);
    }

    #[test]
    fn missing_field_sorts_as_null_first_ascending() {
        let spec: SortSpec = vec![("year".into(), SortDirection::Asc)];
        let items = vec![item(1, 2018, "A"), (Key::of(2i64), doc! { "title" => "no year" })];
        assert_eq!(sorted(&spec, items), vec![2, 1]);
    }

    #[test]
    fn array_fields_use_min_for_asc_max_for_desc() {
        let d = doc! { "scores" => vec![5i64, 1, 9] };
        assert_eq!(sort_value(&d, "scores", SortDirection::Asc), &Value::Int(1));
        assert_eq!(sort_value(&d, "scores", SortDirection::Desc), &Value::Int(9));
        let empty = doc! { "scores" => Vec::<i64>::new() };
        assert_eq!(sort_value(&empty, "scores", SortDirection::Asc), &Value::Null);
    }

    #[test]
    fn comparator_is_total_and_antisymmetric() {
        let spec: SortSpec = vec![("year".into(), SortDirection::Desc)];
        let a = item(1, 2018, "A");
        let b = item(2, 2018, "B");
        let ab = compare_items(&spec, (&a.0, &a.1), (&b.0, &b.1));
        let ba = compare_items(&spec, (&b.0, &b.1), (&a.0, &a.1));
        assert_eq!(ab, ba.reverse());
        let aa = compare_items(&spec, (&a.0, &a.1), (&a.0, &a.1));
        assert_eq!(aa, Ordering::Equal);
    }

    #[test]
    fn sort_keys_order_as_the_documents_do() {
        let spec: SortSpec = vec![
            ("year".into(), SortDirection::Desc),
            ("a.b".into(), SortDirection::Asc),
            ("tags".into(), SortDirection::Asc),
        ];
        let docs = [
            doc! { "year" => 2018i64, "a" => doc! { "b" => 2i64 }, "tags" => vec![5i64, 1] },
            doc! { "year" => 2018i64, "a" => doc! { "b" => 2i64 }, "tags" => vec![3i64] },
            doc! { "year" => 2018i64, "a" => doc! { "b" => 1i64 } },
            doc! { "year" => 2017i64 },
            doc! { "title" => "no year" },
        ];
        for (i, a) in docs.iter().enumerate() {
            for (j, b) in docs.iter().enumerate() {
                let (ka, kb) = (Key::of(i as i64), Key::of(j as i64));
                assert_eq!(
                    compare_keys(&spec, (&ka, &SortKey::of(a, &spec)), (&kb, &SortKey::of(b, &spec))),
                    compare_items(&spec, (&ka, a), (&kb, b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_sort_spec_orders_by_key() {
        let spec: SortSpec = vec![];
        let items = vec![item(9, 0, ""), item(1, 0, ""), item(5, 0, "")];
        assert_eq!(sorted(&spec, items), vec![1, 5, 9]);
    }

    #[test]
    fn cross_type_sorting_follows_brackets() {
        let spec: SortSpec = vec![("v".into(), SortDirection::Asc)];
        let items = vec![
            (Key::of(1i64), doc! { "v" => "str" }),
            (Key::of(2i64), doc! { "v" => 5i64 }),
            (Key::of(3i64), doc! { "v" => Value::Null }),
            (Key::of(4i64), doc! { "v" => true }),
        ];
        assert_eq!(sorted(&spec, items), vec![3, 2, 1, 4]);
    }
}
