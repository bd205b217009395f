//! Events flowing between the cluster's tasks.

use bytes::Bytes;
use invalidb_common::{
    AfterImage, FieldWriter, Key, QueryHash, SubscriptionId, SubscriptionRequest, TenantId,
    TraceContext, Value, Version,
};
use invalidb_json::lazy::{CheckedObject, LazyDoc, LazyValue};
use invalidb_json::wire;
use std::sync::Arc;

/// One message on a task's input queue. Payloads are shared, not copied: a
/// write goes to every cell of its column, a subscription to every cell of
/// its row and to its stage partition.
#[derive(Debug, Clone)]
pub enum Event {
    /// Activate a real-time query (carries the full initial result).
    Subscribe(Arc<SubscriptionRequest>),
    /// Cancel a subscription.
    Unsubscribe {
        /// Owning tenant.
        tenant: TenantId,
        /// Subscription to cancel.
        subscription: SubscriptionId,
        /// Memoized query hash for routing.
        query_hash: QueryHash,
    },
    /// Keep a subscription alive.
    ExtendTtl {
        /// Owning tenant.
        tenant: TenantId,
        /// Subscription to extend.
        subscription: SubscriptionId,
        /// Memoized query hash for routing.
        query_hash: QueryHash,
        /// New TTL in microseconds.
        ttl_micros: u64,
    },
    /// A write from the write stream, still in the bytes it arrived as.
    Write(WriteEvent),
    /// Filtering-stage output destined for the sorting/aggregation stage.
    FilterChange(Arc<FilterChange>),
}

/// A write envelope the ingress has checked
/// ([`crate::ingest::decode_event_with`]) as strictly as decoding it would:
/// the payload, its header and trace decoded beside it, and where its `doc`
/// object lies in it. The record is not decoded on the way to the cells;
/// they read its attributes in place.
#[derive(Debug, Clone)]
pub struct WriteEvent {
    /// The write envelope as it arrived: what a cell retains of it.
    pub payload: Bytes,
    /// The envelope's scalar fields.
    pub header: WriteHeader,
    /// Where the envelope's `doc` object lies in `payload`.
    pub doc: DocSpan,
    /// The sampled stage trace, stamped by the ingress; `None` for an
    /// untraced write (the common case).
    pub trace: Option<Box<TraceContext>>,
}

/// A write envelope's scalar fields but its collection, which a cell reads
/// in place ([`WriteEvent::collection`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteHeader {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Primary key.
    pub key: Key,
    /// The record's version.
    pub version: Version,
    /// The app server's clock when the write was issued (0 when absent).
    pub written_at: u64,
}

impl WriteEvent {
    /// The collection's name, read in place.
    pub fn collection(&self) -> Option<&str> {
        envelope_field(&self.payload, "collection")?.as_str()
    }

    /// The written record, read in place; `None` for a delete.
    pub fn doc(&self) -> Option<CheckedObject<'_>> {
        self.doc.of(&self.payload)
    }
}

/// A top-level field of a write envelope the ingress checked, read in
/// place. The probe stops at its hit: the ingress let no name repeat.
pub(crate) fn envelope_field<'a>(payload: &'a [u8], name: &str) -> Option<LazyValue<'a>> {
    let [value] = LazyDoc::new(payload).ok()?.root().find([name]).ok()?;
    value
}

/// Where a checked write envelope's `doc` object lies in its payload: its
/// body, from the entry count to its end. Empty for a delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocSpan {
    start: u32,
    end: u32,
}

impl DocSpan {
    /// A delete's: no document.
    pub const NONE: DocSpan = DocSpan { start: 0, end: 0 };

    /// The object whose body starts at offset `start` of its payload and
    /// runs `len` bytes; `None` past what a span can hold.
    pub(crate) fn at(start: usize, len: usize) -> Option<DocSpan> {
        let end = start.checked_add(len)?;
        Some(DocSpan { start: u32::try_from(start).ok()?, end: u32::try_from(end).ok()? })
    }

    /// The document in `payload`, the one this span was taken from; `None`
    /// for a delete.
    pub fn of<'a>(&self, payload: &'a [u8]) -> Option<CheckedObject<'a>> {
        if *self == DocSpan::NONE {
            return None;
        }
        let Some(body) = payload.get(self.start as usize..self.end as usize) else {
            debug_assert!(false, "a document span outside its payload");
            return None;
        };
        Some(CheckedObject::new(body))
    }
}

/// Kind of matching-status transition detected by the filtering stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterChangeKind {
    /// Item newly satisfies the query's matching condition.
    Add,
    /// Item still satisfies the matching condition (content update).
    Change,
    /// Item just ceased matching (update-out or delete).
    Remove,
}

/// Filtering-stage output for one (query, write) pair (§5.2): only items
/// that satisfy the matching condition or just ceased matching are passed
/// down — everything else was filtered out upstream.
#[derive(Debug, Clone)]
pub struct FilterChange {
    /// The affected query.
    pub query_hash: QueryHash,
    /// Transition kind.
    pub kind: FilterChangeKind,
    /// The causing write, shared with every cell and query it reached: its
    /// tenant, key, version, after-image (`None` for deletes) and origin
    /// timestamp are the transition's. Its own `trace` is not read (see
    /// [`FilterChange::trace`]), and it has no collection, which no stage
    /// needs.
    pub image: Arc<AfterImage>,
    /// Stage trace inherited from the causing write, if it was sampled,
    /// with the filtering stage's stamp.
    pub trace: Option<TraceContext>,
}

impl FilterChangeKind {
    /// Stable wire name of the transition kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            FilterChangeKind::Add => "add",
            FilterChangeKind::Change => "change",
            FilterChangeKind::Remove => "remove",
        }
    }

    /// Parses a wire name produced by [`FilterChangeKind::as_str`].
    pub fn parse(s: &str) -> Option<FilterChangeKind> {
        match s {
            "add" => Some(FilterChangeKind::Add),
            "change" => Some(FilterChangeKind::Change),
            "remove" => Some(FilterChangeKind::Remove),
            _ => None,
        }
    }
}

impl FilterChange {
    /// Writes the change for the shuffle topic: matching cells hosted off
    /// the row owner ship their staged output through the event layer
    /// instead of an in-process queue. The one place its layout is written
    /// down.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        let img = &self.image;
        w.begin_object(7 + usize::from(self.trace.is_some()));
        w.key("tenant");
        w.str(img.tenant.as_str());
        w.key("queryHash");
        w.int(self.query_hash.0 as i64);
        w.key("kind");
        w.str(self.kind.as_str());
        w.key("key");
        w.value(&img.key.0);
        w.key("version");
        w.int(img.version as i64);
        w.key("doc");
        match &img.doc {
            Some(doc) => w.document(doc),
            None => w.value(&Value::Null),
        }
        w.key("writtenAt");
        w.int(img.written_at as i64);
        if let Some(trace) = &self.trace {
            w.key("trace");
            w.document(&trace.to_document());
        }
        w.end_object();
    }

    /// Decodes a change from the shuffle topic in one pass over the
    /// payload, in the cluster topic's way (`crate::ingest`): the key and
    /// the record go straight into the change's one [`AfterImage`]; `None`
    /// for a malformed payload, a repeated field included.
    pub fn decode(payload: &[u8]) -> Option<FilterChange> {
        let names = ["tenant", "queryHash", "kind", "key", "version", "doc", "writtenAt", "trace"];
        let [tenant, query_hash, kind, key, version, doc, written_at, trace] =
            LazyDoc::new(payload).ok()?.fields(names).ok()?;
        let image = AfterImage {
            tenant: TenantId::new(tenant?.as_str()?),
            collection: String::new(),
            key: Key(key?.materialize().ok()?),
            version: version?.as_i64()? as Version,
            doc: wire::document(doc)?,
            written_at: wire::optional(written_at, LazyValue::as_i64)?.unwrap_or(0) as u64,
            trace: None,
        };
        Some(FilterChange {
            query_hash: QueryHash(query_hash?.as_i64()? as u64),
            kind: FilterChangeKind::parse(kind?.as_str()?)?,
            image: Arc::new(image),
            trace: wire::trace(trace)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, Document, Stage};
    use invalidb_json::WireCodec;

    fn change(
        kind: FilterChangeKind,
        doc: Option<Document>,
        trace: Option<TraceContext>,
    ) -> FilterChange {
        let image = AfterImage {
            tenant: TenantId::new("app1"),
            collection: String::new(),
            key: Key(Value::from("k17")),
            version: 42,
            doc,
            written_at: 123_456,
            trace: None,
        };
        FilterChange { query_hash: QueryHash(0xdead_beef), kind, image: Arc::new(image), trace }
    }

    fn written(change: &FilterChange) -> Bytes {
        let mut w = WireCodec.writer();
        change.write_to(&mut w);
        w.finish()
    }

    /// The shuffle-topic layout is what workers of different builds
    /// exchange: the change writes the document laid out field by field in
    /// that order, and decodes back to itself.
    #[test]
    fn filter_change_keeps_its_shuffle_bytes_and_decodes_back() {
        let mut trace = TraceContext::start(9);
        trace.stamp_at(Stage::Matching, 5);
        let cases = [
            (FilterChangeKind::Change, Some(doc! { "rank" => 3i64, "name" => "x" }), Some(trace)),
            (FilterChangeKind::Add, Some(Document::new()), None),
            (FilterChangeKind::Remove, None, None),
        ];
        for (kind, doc, trace) in cases {
            let change = change(kind, doc.clone(), trace.clone());
            let mut layout = doc! {
                "tenant" => "app1",
                "queryHash" => 0xdead_beef_i64,
                "kind" => kind.as_str(),
                "key" => "k17",
                "version" => 42i64,
                "doc" => doc.map_or(Value::Null, Value::Object),
                "writtenAt" => 123_456i64,
            };
            if let Some(trace) = &trace {
                layout.insert("trace", trace.to_document());
            }
            let bytes = written(&change);
            assert_eq!(bytes, WireCodec.encode(&layout), "{kind:?}");
            let decoded = FilterChange::decode(&bytes).expect("decodes");
            assert_eq!((decoded.query_hash, decoded.kind), (change.query_hash, change.kind));
            assert_eq!(decoded.image, change.image);
            assert_eq!(decoded.trace, change.trace);
            assert_eq!(written(&decoded), bytes, "{kind:?}");
        }
    }

    #[test]
    fn filter_change_rejects_bad_kind() {
        let d = doc! { "tenant" => "t", "queryHash" => 1i64, "kind" => "explode",
        "key" => "k", "version" => 1i64 };
        assert!(FilterChange::decode(&WireCodec.encode(&d)).is_none());
    }
}
