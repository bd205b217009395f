//! Events flowing between the cluster's tasks.

use invalidb_common::{
    AfterImage, ClusterMessage, Document, Key, QueryHash, SpecError, SubscriptionId,
    SubscriptionRequest, TenantId, TraceContext, Value, Version,
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
    /// An after-image from the write stream.
    Write(Arc<AfterImage>),
    /// Filtering-stage output destined for the sorting/aggregation stage.
    FilterChange(Arc<FilterChange>),
}

impl From<ClusterMessage> for Event {
    fn from(msg: ClusterMessage) -> Self {
        match msg {
            ClusterMessage::Subscribe(req) => Event::Subscribe(Arc::new(req)),
            ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
                Event::Unsubscribe { tenant, subscription, query_hash }
            }
            ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
                Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
            }
            ClusterMessage::Write(img) => Event::Write(Arc::new(img)),
        }
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
    /// Owning tenant.
    pub tenant: TenantId,
    /// The affected query.
    pub query_hash: QueryHash,
    /// Transition kind.
    pub kind: FilterChangeKind,
    /// Primary key of the written item.
    pub key: Key,
    /// Version of the write.
    pub version: Version,
    /// After-image (`None` for deletes).
    pub doc: Option<Document>,
    /// Origin-write timestamp for latency accounting.
    pub written_at: u64,
    /// Stage trace inherited from the causing write, if it was sampled.
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
        let mut d = Document::with_capacity(8);
        d.insert("tenant", self.tenant.as_str());
        d.insert("queryHash", self.query_hash.0 as i64);
        d.insert("kind", self.kind.as_str());
        d.insert("key", self.key.0.clone());
        d.insert("version", self.version as i64);
        match &self.doc {
            Some(doc) => d.insert("doc", doc.clone()),
            None => d.insert("doc", Value::Null),
        };
        d.insert("writtenAt", self.written_at as i64);
        if let Some(trace) = &self.trace {
            d.insert("trace", trace.to_document());
        }
        d
    }

    /// Decodes a change from its document encoding.
    pub fn from_document(d: &Document) -> Result<FilterChange, SpecError> {
        let missing = |f: &str| SpecError { message: format!("filter change missing `{f}`") };
        let kind = d
            .get("kind")
            .and_then(Value::as_str)
            .and_then(FilterChangeKind::parse)
            .ok_or_else(|| missing("kind"))?;
        let doc = match d.get("doc") {
            Some(Value::Null) | None => None,
            Some(Value::Object(doc)) => Some(doc.clone()),
            Some(_) => {
                return Err(SpecError { message: "filter change `doc` must be object or null".into() })
            }
        };
        Ok(FilterChange {
            tenant: TenantId::new(
                d.get("tenant").and_then(Value::as_str).ok_or_else(|| missing("tenant"))?,
            ),
            query_hash: QueryHash(
                d.get("queryHash").and_then(Value::as_i64).ok_or_else(|| missing("queryHash"))? as u64,
            ),
            kind,
            key: Key(d.get("key").cloned().ok_or_else(|| missing("key"))?),
            version: d.get("version").and_then(Value::as_i64).ok_or_else(|| missing("version"))?
                as Version,
            doc,
            written_at: d.get("writtenAt").and_then(Value::as_i64).unwrap_or(0) as u64,
            trace: match d.get("trace").and_then(Value::as_object) {
                Some(td) => Some(TraceContext::from_document(td)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn filter_change_roundtrips_through_document() {
        let change = FilterChange {
            tenant: TenantId::new("app1"),
            query_hash: QueryHash(0xdead_beef),
            kind: FilterChangeKind::Change,
            key: Key(Value::from("k17")),
            version: 42,
            doc: Some(doc! { "rank" => 3i64 }),
            written_at: 123_456,
            trace: None,
        };
        let decoded = FilterChange::from_document(&change.to_document()).unwrap();
        assert_eq!(decoded.tenant, change.tenant);
        assert_eq!(decoded.query_hash, change.query_hash);
        assert_eq!(decoded.kind, change.kind);
        assert_eq!(decoded.key, change.key);
        assert_eq!(decoded.version, change.version);
        assert_eq!(decoded.doc, change.doc);
        assert_eq!(decoded.written_at, change.written_at);
    }

    #[test]
    fn filter_change_delete_roundtrips() {
        let change = FilterChange {
            tenant: TenantId::new("t"),
            query_hash: QueryHash(1),
            kind: FilterChangeKind::Remove,
            key: Key(Value::from("gone")),
            version: 7,
            doc: None,
            written_at: 0,
            trace: None,
        };
        let decoded = FilterChange::from_document(&change.to_document()).unwrap();
        assert_eq!(decoded.doc, None);
        assert_eq!(decoded.kind, FilterChangeKind::Remove);
    }

    #[test]
    fn filter_change_rejects_bad_kind() {
        let d = doc! { "tenant" => "t", "queryHash" => 1i64, "kind" => "explode",
        "key" => "k", "version" => 1i64 };
        assert!(FilterChange::from_document(&d).is_err());
    }
}
