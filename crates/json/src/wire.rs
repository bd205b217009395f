//! Typed readers for the parts that wire messages share.
//!
//! The cluster topic's decoder (`invalidb_core::ingest`) and the notify
//! topic's (`invalidb_client::notify`) each read their message in one pass
//! over a [`LazyDoc`](crate::LazyDoc) and hand the parts they have in common
//! — result items, query specs, traces, optional scalars — to these. Each
//! reads a part as the part's `from_document` reads the document an eager
//! decode would build, and checks what it skips as strictly as that decode
//! would: `None` exactly where that path fails. Only a record and a query's
//! filter become a [`Document`], once each.

use crate::lazy::LazyValue;
use invalidb_common::{Document, Key, QuerySpec, ResultItem, SortDirection, TraceContext, Version};

/// An optional field read with `read`: `Some(None)` when it is absent or of
/// another type — the eager `get(..).and_then(read)` — and `None` when it
/// is a container an eager decode would have refused.
pub fn optional<'a, T>(
    field: Option<LazyValue<'a>>,
    read: impl FnOnce(&LazyValue<'a>) -> Option<T>,
) -> Option<Option<T>> {
    let Some(value) = field else { return Some(None) };
    match read(&value) {
        Some(read) => Some(Some(read)),
        None => value.checked().ok().map(|_| None),
    }
}

/// A record field: `null` or absent is none, an object the record, and
/// anything else an error.
pub fn document(field: Option<LazyValue<'_>>) -> Option<Option<Document>> {
    match field {
        None | Some(LazyValue::Null) => Some(None),
        Some(LazyValue::Object(doc)) => doc.materialize().ok().map(Some),
        Some(_) => None,
    }
}

/// A `trace` field: an object is the trace (sampled writes only, so it goes
/// through its document form); anything else is no trace.
pub fn trace(field: Option<LazyValue<'_>>) -> Option<Option<TraceContext>> {
    match optional(field, LazyValue::as_object)? {
        Some(trace) => TraceContext::from_document(&trace.materialize().ok()?).ok().map(Some),
        None => Some(None),
    }
}

/// A result member: `key`, `version`, `doc` and `index`, in an initial
/// result or a change alike.
pub fn item(value: LazyValue<'_>) -> Option<ResultItem> {
    let [key, version, doc, index] =
        value.as_object()?.fields(["key", "version", "doc", "index"]).ok()?;
    Some(ResultItem {
        version: version?.as_i64()? as Version,
        index: optional(index, LazyValue::as_i64)?.map(|i| i as u64),
        doc: document(doc)?,
        key: Key(key?.materialize().ok()?),
    })
}

/// A query spec in [`QuerySpec::to_document`]'s layout.
pub fn query(value: LazyValue<'_>) -> Option<QuerySpec> {
    let names = ["collection", "filter", "sort", "limit", "offset", "aggregate"];
    let [collection, filter, sort, limit, offset, aggregate] = value.as_object()?.fields(names).ok()?;
    if aggregate.is_some() {
        return None; // an aggregate query, which is not served (see `QuerySpec::from_document`)
    }
    let filter = filter?.as_object()?.materialize().ok()?;
    let mut spec = QuerySpec::filter(collection?.as_str()?, filter);
    if let Some(sort) = sort {
        for entry in sort.as_object()?.entries() {
            let (field, dir) = entry.ok()?;
            if spec.sort.iter().any(|(seen, _)| seen == field) {
                return None; // a repeated key
            }
            spec.sort.push((field.to_owned(), SortDirection::from_i64(dir.as_i64()?)?));
        }
    }
    let count = |v: LazyValue<'_>| v.as_i64().and_then(|n| u64::try_from(n).ok());
    spec.limit = match limit {
        None => None,
        Some(limit) => Some(count(limit)?),
    };
    spec.offset = match offset {
        None => 0,
        Some(offset) => count(offset)?,
    };
    Some(spec)
}
