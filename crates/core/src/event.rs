//! Events flowing between the cluster's tasks.

use bytes::Bytes;
use invalidb_common::{
    AfterImage, Document, Key, QueryHash, SpecError, SubscriptionId, SubscriptionRequest, TenantId,
    TraceContext, Value, Version,
};
use std::sync::Arc;

/// One message on a task's input queue. Payloads are `Arc`-shared: a write
/// goes to every cell of its column, a subscription to every cell of its
/// row and to its stage partition, without being copied.
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
    /// An after-image from the write stream, beside the payload it was
    /// decoded from ([`crate::ingest::decode_event_with`]).
    Write {
        /// The decoded write.
        image: Arc<AfterImage>,
        /// The write envelope as it arrived: what a cell retains of it.
        payload: Bytes,
        /// Offset of the envelope's `doc` object in `payload`; `None` for
        /// a delete.
        doc_at: Option<u32>,
    },
    /// Filtering-stage output destined for the sorting/aggregation stage.
    FilterChange(Arc<FilterChange>),
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
    /// [`FilterChange::trace`]); one decoded from the shuffle topic has no
    /// collection, which no stage needs.
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
    /// Encodes the change as a document for the shuffle topic: matching
    /// cells hosted off the row owner ship their staged output through the
    /// event layer instead of an in-process channel.
    pub fn to_document(&self) -> Document {
        let img = &self.image;
        let mut d = Document::with_capacity(8);
        d.insert("tenant", img.tenant.as_str());
        d.insert("queryHash", self.query_hash.0 as i64);
        d.insert("kind", self.kind.as_str());
        d.insert("key", img.key.0.clone());
        d.insert("version", img.version as i64);
        match &img.doc {
            Some(doc) => d.insert("doc", doc.clone()),
            None => d.insert("doc", Value::Null),
        };
        d.insert("writtenAt", img.written_at as i64);
        if let Some(trace) = &self.trace {
            d.insert("trace", trace.to_document());
        }
        d
    }

    /// Decodes a change from its document encoding, moving the key and the
    /// after-image out of `d` into the change's one [`AfterImage`].
    pub fn from_document(mut d: Document) -> Result<FilterChange, SpecError> {
        let missing = |f: &str| SpecError { message: format!("filter change missing `{f}`") };
        let kind = d
            .get("kind")
            .and_then(Value::as_str)
            .and_then(FilterChangeKind::parse)
            .ok_or_else(|| missing("kind"))?;
        let tenant =
            TenantId::new(d.get("tenant").and_then(Value::as_str).ok_or_else(|| missing("tenant"))?);
        let query_hash = QueryHash(
            d.get("queryHash").and_then(Value::as_i64).ok_or_else(|| missing("queryHash"))? as u64,
        );
        let version =
            d.get("version").and_then(Value::as_i64).ok_or_else(|| missing("version"))? as Version;
        let written_at = d.get("writtenAt").and_then(Value::as_i64).unwrap_or(0) as u64;
        let trace = match d.get("trace").and_then(Value::as_object) {
            Some(td) => Some(TraceContext::from_document(td)?),
            None => None,
        };
        let key = Key(d.remove("key").ok_or_else(|| missing("key"))?);
        let doc = match d.remove("doc") {
            Some(Value::Null) | None => None,
            Some(Value::Object(doc)) => Some(doc),
            Some(_) => {
                return Err(SpecError { message: "filter change `doc` must be object or null".into() })
            }
        };
        let image =
            AfterImage { tenant, collection: String::new(), key, version, doc, written_at, trace: None };
        Ok(FilterChange { query_hash, kind, image: Arc::new(image), trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, Stage};
    use invalidb_json::{payload_to_document, WireCodec};

    fn change(
        kind: FilterChangeKind,
        doc: Option<Document>,
        trace: Option<TraceContext>,
    ) -> FilterChange {
        let image = AfterImage {
            tenant: TenantId::new("app1"),
            collection: "items".into(),
            key: Key(Value::from("k17")),
            version: 42,
            doc,
            written_at: 123_456,
            trace: None,
        };
        FilterChange { query_hash: QueryHash(0xdead_beef), kind, image: Arc::new(image), trace }
    }

    #[test]
    fn filter_change_roundtrips_through_document() {
        let change = change(FilterChangeKind::Change, Some(doc! { "rank" => 3i64 }), None);
        let decoded = FilterChange::from_document(change.to_document()).unwrap();
        assert_eq!((decoded.query_hash, decoded.kind), (change.query_hash, change.kind));
        let (a, b) = (&decoded.image, &change.image);
        assert_eq!(
            (&a.tenant, &a.key, a.version, &a.doc, a.written_at),
            (&b.tenant, &b.key, b.version, &b.doc, b.written_at)
        );
        assert!(decoded.trace.is_none());
    }

    #[test]
    fn filter_change_delete_roundtrips() {
        let change = change(FilterChangeKind::Remove, None, None);
        let decoded = FilterChange::from_document(change.to_document()).unwrap();
        assert_eq!(decoded.image.doc, None);
        assert_eq!(decoded.kind, FilterChangeKind::Remove);
    }

    /// The shuffle-topic layout is what workers of different builds exchange:
    /// the change encodes to the same bytes as the document written field by
    /// field in that layout, and a decoded change encodes to the bytes it
    /// was decoded from.
    #[test]
    fn filter_change_keeps_its_shuffle_bytes() {
        let mut trace = TraceContext::start(9);
        trace.stamp_at(Stage::Matching, 5);
        let cases = [
            (FilterChangeKind::Change, Some(doc! { "rank" => 3i64, "name" => "x" }), Some(trace)),
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
            let bytes = WireCodec.encode(&change.to_document());
            assert_eq!(bytes, WireCodec.encode(&layout), "{kind:?}");
            let decoded = FilterChange::from_document(payload_to_document(&bytes).unwrap()).unwrap();
            assert_eq!(WireCodec.encode(&decoded.to_document()), bytes, "{kind:?}");
        }
    }

    #[test]
    fn filter_change_rejects_bad_kind() {
        let d = doc! { "tenant" => "t", "queryHash" => 1i64, "kind" => "explode",
        "key" => "k", "version" => 1i64 };
        assert!(FilterChange::from_document(d).is_err());
    }
}
