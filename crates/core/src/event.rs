//! Events flowing through the cluster topology.

use invalidb_common::{
    AfterImage, Document, EnvelopeRef, ItemRef, Key, KindRef, MatchType, NotificationKind, QueryHash,
    SpecError, SubscriptionId, SubscriptionRequest, TenantId, TraceContext, Value, Version,
};
use std::sync::Arc;

/// One message inside the cluster topology. Payloads are `Arc`-shared so
/// broadcast groupings clone cheaply.
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
    /// Filtering-stage output destined for the sorting stage.
    FilterChange(Arc<FilterChange>),
    /// A finished notification (or heartbeat) destined for the notifier.
    Out(Arc<OutMsg>),
}

/// A mini-batch of after-images, in arrival order.
///
/// The topology runtime drains up to `max_batch` buffered messages per
/// scheduling turn; the matching stage regroups the contiguous
/// [`Event::Write`] runs of such a turn into a `WriteBatch` so the whole
/// batch shares one index probe and one per-query dispatch
/// (`MatchingNode::handle_write_batch`). The buffer is reused turn over
/// turn — hence `clear` instead of consuming constructors.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    writes: Vec<Arc<AfterImage>>,
}

impl WriteBatch {
    /// An empty batch with room for `cap` writes.
    pub fn with_capacity(cap: usize) -> WriteBatch {
        WriteBatch { writes: Vec::with_capacity(cap) }
    }

    /// Appends a write; arrival order is the vector order.
    pub fn push(&mut self, img: Arc<AfterImage>) {
        self.writes.push(img);
    }

    /// The batched after-images in arrival order.
    pub fn writes(&self) -> &[Arc<AfterImage>] {
        &self.writes
    }

    /// Number of batched writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True when no writes are batched.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Drops all writes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.writes.clear();
    }
}

impl From<Vec<Arc<AfterImage>>> for WriteBatch {
    fn from(writes: Vec<Arc<AfterImage>>) -> WriteBatch {
        WriteBatch { writes }
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
        d.insert("tenant", self.tenant.0.clone());
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
            tenant: TenantId(
                d.get("tenant").and_then(Value::as_str).ok_or_else(|| missing("tenant"))?.to_owned(),
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

/// Message leaving the cluster through the notifier.
#[derive(Debug, Clone)]
pub enum OutMsg {
    /// One result transition of one query, for all of its subscriptions.
    Notify(OutNotify),
    /// Liveness signal for a tenant's application servers.
    Heartbeat {
        /// Tenant whose notify topic receives the heartbeat.
        tenant: TenantId,
    },
}

/// A change/error/aggregate notification on its way to the notifier. The
/// unit is the (write, query) pair: the stages emit one of these per result
/// transition, addressed to every subscription of the query's group, and
/// the notifier turns it into one envelope.
#[derive(Debug, Clone)]
pub struct OutNotify {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The group's subscriptions at the time of the transition.
    pub subscriptions: Vec<SubscriptionId>,
    /// What changed.
    pub change: OutChange,
    /// Origin-write timestamp for latency accounting (`0` if none).
    pub caused_by_write_at: u64,
    /// Stage trace inherited from the causing write, if it was sampled.
    pub trace: Option<TraceContext>,
}

/// The payload of an [`OutNotify`].
#[derive(Debug, Clone)]
pub enum OutChange {
    /// A filtering-stage transition. The changed item *is* the write, so
    /// the after-image is shared, not copied; the notifier serializes
    /// straight from it.
    Write {
        /// The transition the write caused for this query.
        match_type: MatchType,
        /// The causing write.
        image: Arc<AfterImage>,
    },
    /// A payload the emitting stage built itself: a window edit, a
    /// maintenance error, an aggregate value.
    Kind(NotificationKind),
}

impl OutNotify {
    /// The wire envelope of this notification, borrowing its parts.
    pub fn envelope(&self) -> EnvelopeRef<'_> {
        let kind = match &self.change {
            OutChange::Write { match_type, image } => KindRef::Change {
                match_type: *match_type,
                item: ItemRef {
                    key: &image.key,
                    version: image.version,
                    doc: image.doc.as_ref(),
                    index: None,
                },
                old_index: None,
            },
            OutChange::Kind(kind) => KindRef::from(kind),
        };
        EnvelopeRef {
            tenant: &self.tenant,
            subscriptions: &self.subscriptions,
            kind,
            caused_by_write_at: self.caused_by_write_at,
            trace: self.trace.as_ref(),
        }
    }

    /// The notification as each addressee will see it, through the wire
    /// layout (stage unit tests assert on this view).
    #[cfg(test)]
    pub(crate) fn notifications(&self) -> Vec<invalidb_common::Notification> {
        invalidb_common::NotifyEnvelope::from_document(self.envelope().to_document())
            .expect("emitted envelope decodes")
            .into_notifications()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn filter_change_roundtrips_through_document() {
        let change = FilterChange {
            tenant: TenantId("app1".into()),
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
            tenant: TenantId("t".into()),
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
