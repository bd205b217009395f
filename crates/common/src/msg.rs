//! Messages flowing from application servers *into* the InvaliDB cluster.
//!
//! Everything crosses the event layer as an opaque payload; these types
//! define the envelope structure and write it (`write_to`). Their document
//! forms pin that layout in tests; the cluster's ingress decodes payloads
//! with its own typed decoder (`invalidb_core::ingest`).

use crate::document::Document;
use crate::id::{Key, QueryHash, SubscriptionId, TenantId};
use crate::notify::{DocRef, ItemRef, ResultItem};
use crate::query_spec::{QuerySpec, SpecError};
use crate::trace::TraceContext;
use crate::value::Value;
use crate::write::{DocumentBuilder, FieldWriter};
use crate::Version;

/// Fully specified representation of a written entity (§5): the complete
/// record state after an insert or update, or a tombstone (`doc: None`)
/// after a delete. The primary key is the only attribute guaranteed present
/// for all operation types, which is why write partitioning hashes it.
#[derive(Debug, Clone, PartialEq)]
pub struct AfterImage {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Collection the record lives in.
    pub collection: String,
    /// Primary key.
    pub key: Key,
    /// Monotonically increasing per-record version (staleness avoidance).
    pub version: Version,
    /// Post-write record state; `None` encodes a delete.
    pub doc: Option<Document>,
    /// Microsecond timestamp (app-server clock) taken right before the
    /// write was issued; used for end-to-end latency measurement.
    pub written_at: u64,
    /// Sampled stage trace; `None` for untraced writes (the common case).
    pub trace: Option<TraceContext>,
}

impl AfterImage {
    /// True if this after-image encodes a delete.
    pub fn is_delete(&self) -> bool {
        self.doc.is_none()
    }

    /// The borrowed form, for encoding.
    pub fn as_ref(&self) -> WriteRef<'_> {
        WriteRef {
            tenant: &self.tenant,
            collection: &self.collection,
            key: &self.key,
            version: self.version,
            doc: self.doc.as_ref().map(DocRef::Tree),
            written_at: self.written_at,
            trace: self.trace.as_ref(),
        }
    }
}

/// A write envelope ([`ClusterMessage::Write`]) assembled from borrowed
/// parts: what an application server serializes, so that an after-image is
/// never copied on its way to the wire. The mirror image of
/// [`crate::EnvelopeRef`] on the way in.
#[derive(Debug, Clone, Copy)]
pub struct WriteRef<'a> {
    /// See [`AfterImage::tenant`].
    pub tenant: &'a TenantId,
    /// See [`AfterImage::collection`].
    pub collection: &'a str,
    /// See [`AfterImage::key`].
    pub key: &'a Key,
    /// See [`AfterImage::version`].
    pub version: Version,
    /// See [`AfterImage::doc`]: a tree, or a record still in its bytes
    /// (the store's), copied in as they are.
    pub doc: Option<DocRef<'a>>,
    /// See [`AfterImage::written_at`].
    pub written_at: u64,
    /// See [`AfterImage::trace`].
    pub trace: Option<&'a TraceContext>,
}

impl WriteRef<'_> {
    /// Writes the envelope — the one place its layout is written down.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        w.begin_object(7 + usize::from(self.trace.is_some()));
        w.key("op");
        w.str("write");
        w.key("tenant");
        w.str(self.tenant.as_str());
        w.key("collection");
        w.str(self.collection);
        w.key("key");
        w.value(&self.key.0);
        w.key("version");
        w.int(self.version as i64);
        w.key("writtenAt");
        w.int(self.written_at as i64);
        w.key("doc");
        match self.doc {
            Some(DocRef::Tree(doc)) => w.document(doc),
            Some(DocRef::Encoded(doc)) => w.encoded(doc),
            None => w.value(&Value::Null),
        }
        if let Some(trace) = self.trace {
            w.key("trace");
            w.document(&trace.to_document());
        }
        w.end_object();
    }

    /// The envelope as an owned document.
    pub fn to_document(&self) -> Document {
        let mut builder = DocumentBuilder::new();
        self.write_to(&mut builder);
        builder.finish()
    }
}

/// A real-time query subscription request (§5.1).
///
/// Carries the query, its pre-computed stable hash, and the initial result
/// obtained from the pull-based database by executing the *rewritten*
/// bootstrap query. The cluster splits the initial result by write
/// partition so each matching node receives only its slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionRequest {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Client-generated unique subscription id.
    pub subscription: SubscriptionId,
    /// The original (un-rewritten) query.
    pub spec: QuerySpec,
    /// Stable hash of the normalized query attributes (query partitioning).
    pub query_hash: QueryHash,
    /// Initial result of the rewritten bootstrap query, in query order.
    pub initial: Vec<ResultItem>,
    /// Slack used in the bootstrap rewrite (items fetched beyond limit).
    pub slack: u64,
    /// Time-to-live in microseconds; the app server extends it periodically.
    pub ttl_micros: u64,
    /// `true` when this request re-registers a subscription that is already
    /// live at the client (failover replay, silent re-registration): the
    /// cluster restores matching state but suppresses the initial-result
    /// notification, so clients never see a stale result snapshot. Encoded
    /// as an optional field — requests from older peers decode as `false`.
    pub renewal: bool,
}

/// A subscription request ([`ClusterMessage::Subscribe`]) assembled from
/// borrowed parts: what an application server publishes, its initial
/// result written item by item from wherever the items are held (the
/// store's rows, spliced). The mirror image of [`WriteRef`].
#[derive(Debug, Clone)]
pub struct SubscribeRef<'a, I> {
    /// See [`SubscriptionRequest::tenant`].
    pub tenant: &'a TenantId,
    /// See [`SubscriptionRequest::subscription`].
    pub subscription: SubscriptionId,
    /// See [`SubscriptionRequest::spec`].
    pub spec: &'a QuerySpec,
    /// See [`SubscriptionRequest::query_hash`].
    pub query_hash: QueryHash,
    /// See [`SubscriptionRequest::slack`].
    pub slack: u64,
    /// See [`SubscriptionRequest::ttl_micros`].
    pub ttl_micros: u64,
    /// See [`SubscriptionRequest::renewal`].
    pub renewal: bool,
    /// See [`SubscriptionRequest::initial`]: its items, in query order.
    pub initial: I,
}

impl<'a, I: ExactSizeIterator<Item = ItemRef<'a>> + Clone> SubscribeRef<'a, I> {
    /// Writes the envelope — the one place its layout is written down.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        write_head(w, "subscribe", 8 + usize::from(self.renewal), self.tenant, self.subscription);
        w.key("query");
        self.spec.write_to(w);
        w.key("queryHash");
        w.int(self.query_hash.0 as i64);
        w.key("slack");
        w.int(self.slack as i64);
        w.key("ttl");
        w.int(self.ttl_micros as i64);
        if self.renewal {
            w.key("renewal");
            w.value(&Value::Bool(true));
        }
        w.key("initial");
        w.begin_array(self.initial.len());
        for item in self.initial.clone() {
            item.write_to(w);
        }
        w.end_array();
        w.end_object();
    }

    /// The envelope as an owned document.
    pub fn to_document(&self) -> Document {
        let mut builder = DocumentBuilder::new();
        self.write_to(&mut builder);
        builder.finish()
    }
}

impl SubscriptionRequest {
    /// The borrowed form, for encoding.
    pub fn as_ref(&self) -> SubscribeRef<'_, impl ExactSizeIterator<Item = ItemRef<'_>> + Clone> {
        SubscribeRef {
            tenant: &self.tenant,
            subscription: self.subscription,
            spec: &self.spec,
            query_hash: self.query_hash,
            slack: self.slack,
            ttl_micros: self.ttl_micros,
            renewal: self.renewal,
            initial: self.initial.iter().map(ItemRef::from),
        }
    }
}

/// All message kinds the cluster ingests.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMessage {
    /// Activate a real-time query.
    Subscribe(SubscriptionRequest),
    /// Deactivate a subscription. Carries the memoized query hash because
    /// it cannot be recomputed from a cancellation alone (§5.1, footnote 3).
    Unsubscribe {
        /// Owning tenant.
        tenant: TenantId,
        /// Subscription to cancel.
        subscription: SubscriptionId,
        /// Memoized query hash for partition routing.
        query_hash: QueryHash,
    },
    /// Extend the TTL of a still-active subscription.
    ExtendTtl {
        /// Owning tenant.
        tenant: TenantId,
        /// Subscription to keep alive.
        subscription: SubscriptionId,
        /// Memoized query hash for partition routing.
        query_hash: QueryHash,
        /// New TTL in microseconds from receipt.
        ttl_micros: u64,
    },
    /// An after-image of a database write.
    Write(AfterImage),
}

impl ClusterMessage {
    /// Writes the message for the event layer, without building a
    /// document: the layouts of a write and a subscription are
    /// [`WriteRef`]'s and [`SubscribeRef`]'s, the others are written down
    /// here.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        match self {
            ClusterMessage::Write(img) => img.as_ref().write_to(w),
            ClusterMessage::Subscribe(req) => req.as_ref().write_to(w),
            ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
                write_head(w, "unsubscribe", 4, tenant, *subscription);
                w.key("queryHash");
                w.int(query_hash.0 as i64);
                w.end_object();
            }
            ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
                write_head(w, "extendTtl", 5, tenant, *subscription);
                w.key("queryHash");
                w.int(query_hash.0 as i64);
                w.key("ttl");
                w.int(*ttl_micros as i64);
                w.end_object();
            }
        }
    }

    /// Encodes the message as a document: the layout [`ClusterMessage::write_to`]
    /// writes, built field by field here as the oracle that pins it.
    pub fn to_document(&self) -> Document {
        match self {
            ClusterMessage::Write(img) => img.as_ref().to_document(),
            ClusterMessage::Subscribe(req) => {
                let mut d = Document::with_capacity(9);
                d.insert("op", "subscribe");
                d.insert("tenant", req.tenant.as_str());
                d.insert("subscription", req.subscription.0 as i64);
                d.insert("query", req.spec.to_document());
                d.insert("queryHash", req.query_hash.0 as i64);
                d.insert("slack", req.slack as i64);
                d.insert("ttl", req.ttl_micros as i64);
                if req.renewal {
                    d.insert("renewal", true);
                }
                d.insert(
                    "initial",
                    Value::Array(
                        req.initial.iter().map(|i| Value::Object(result_item_to_doc(i))).collect(),
                    ),
                );
                d
            }
            ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
                let mut d = Document::with_capacity(4);
                d.insert("op", "unsubscribe");
                d.insert("tenant", tenant.as_str());
                d.insert("subscription", subscription.0 as i64);
                d.insert("queryHash", query_hash.0 as i64);
                d
            }
            ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
                let mut d = Document::with_capacity(5);
                d.insert("op", "extendTtl");
                d.insert("tenant", tenant.as_str());
                d.insert("subscription", subscription.0 as i64);
                d.insert("queryHash", query_hash.0 as i64);
                d.insert("ttl", *ttl_micros as i64);
                d
            }
        }
    }

    /// Decodes a message from its document encoding.
    pub fn from_document(d: &Document) -> Result<Self, SpecError> {
        let op = d.get("op").and_then(Value::as_str).ok_or_else(|| err("missing `op`"))?;
        let tenant = || -> Result<TenantId, SpecError> {
            Ok(TenantId::new(
                d.get("tenant").and_then(Value::as_str).ok_or_else(|| err("missing `tenant`"))?,
            ))
        };
        let sub = || -> Result<SubscriptionId, SpecError> {
            Ok(SubscriptionId(
                d.get("subscription")
                    .and_then(Value::as_i64)
                    .ok_or_else(|| err("missing `subscription`"))? as u64,
            ))
        };
        let qhash = || -> Result<QueryHash, SpecError> {
            Ok(QueryHash(
                d.get("queryHash").and_then(Value::as_i64).ok_or_else(|| err("missing `queryHash`"))?
                    as u64,
            ))
        };
        match op {
            "subscribe" => {
                let spec_doc =
                    d.get("query").and_then(Value::as_object).ok_or_else(|| err("missing `query`"))?;
                let spec = QuerySpec::from_document(spec_doc)?;
                let initial = d
                    .get("initial")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("missing `initial`"))?
                    .iter()
                    .map(|v| {
                        v.as_object()
                            .ok_or_else(|| err("initial item must be object"))
                            .and_then(result_item_from_doc)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ClusterMessage::Subscribe(SubscriptionRequest {
                    tenant: tenant()?,
                    subscription: sub()?,
                    spec,
                    query_hash: qhash()?,
                    initial,
                    slack: d.get("slack").and_then(Value::as_i64).unwrap_or(0) as u64,
                    ttl_micros: d.get("ttl").and_then(Value::as_i64).unwrap_or(i64::MAX) as u64,
                    renewal: d.get("renewal").and_then(Value::as_bool).unwrap_or(false),
                }))
            }
            "unsubscribe" => Ok(ClusterMessage::Unsubscribe {
                tenant: tenant()?,
                subscription: sub()?,
                query_hash: qhash()?,
            }),
            "extendTtl" => Ok(ClusterMessage::ExtendTtl {
                tenant: tenant()?,
                subscription: sub()?,
                query_hash: qhash()?,
                ttl_micros: d.get("ttl").and_then(Value::as_i64).ok_or_else(|| err("missing `ttl`"))?
                    as u64,
            }),
            "write" => {
                let doc = match d.get("doc") {
                    Some(Value::Null) | None => None,
                    Some(Value::Object(doc)) => Some(doc.clone()),
                    Some(_) => return Err(err("`doc` must be object or null")),
                };
                Ok(ClusterMessage::Write(AfterImage {
                    tenant: tenant()?,
                    collection: d
                        .get("collection")
                        .and_then(Value::as_str)
                        .ok_or_else(|| err("missing `collection`"))?
                        .to_owned(),
                    key: Key(d.get("key").cloned().ok_or_else(|| err("missing `key`"))?),
                    version: d
                        .get("version")
                        .and_then(Value::as_i64)
                        .ok_or_else(|| err("missing `version`"))?
                        as Version,
                    doc,
                    written_at: d.get("writtenAt").and_then(Value::as_i64).unwrap_or(0) as u64,
                    trace: match d.get("trace").and_then(Value::as_object) {
                        Some(td) => Some(TraceContext::from_document(td)?),
                        None => None,
                    },
                }))
            }
            _ => Err(err("unknown `op`")),
        }
    }
}

/// An epoch change, announced by the cluster coordinator to application
/// servers on the epoch topic: the assignment epoch now in force and how
/// many grid cells it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochNotice {
    /// The new assignment epoch.
    pub epoch: u64,
    /// Grid cells whose owner changed with it.
    pub reassigned: u64,
}

impl EpochNotice {
    /// Writes the notice — the one place its layout is written down.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        w.begin_object(2);
        w.key("epoch");
        w.int(self.epoch as i64);
        w.key("reassigned");
        w.int(self.reassigned as i64);
        w.end_object();
    }
}

/// Opens a control message: its object of `fields` entries, and the `op`,
/// `tenant` and `subscription` every one of them starts with.
fn write_head(
    w: &mut impl FieldWriter,
    op: &str,
    fields: usize,
    tenant: &TenantId,
    subscription: SubscriptionId,
) {
    w.begin_object(fields);
    w.key("op");
    w.str(op);
    w.key("tenant");
    w.str(tenant.as_str());
    w.key("subscription");
    w.int(subscription.0 as i64);
}

fn result_item_to_doc(item: &ResultItem) -> Document {
    let mut d = Document::with_capacity(4);
    d.insert("key", item.key.0.clone());
    d.insert("version", item.version as i64);
    match &item.doc {
        Some(doc) => d.insert("doc", doc.clone()),
        None => d.insert("doc", Value::Null),
    };
    if let Some(idx) = item.index {
        d.insert("index", idx as i64);
    }
    d
}

fn result_item_from_doc(d: &Document) -> Result<ResultItem, SpecError> {
    let key = Key(d.get("key").cloned().ok_or_else(|| err("result item missing `key`"))?);
    let version =
        d.get("version").and_then(Value::as_i64).ok_or_else(|| err("result item missing `version`"))?
            as Version;
    let doc = match d.get("doc") {
        Some(Value::Null) | None => None,
        Some(Value::Object(doc)) => Some(doc.clone()),
        Some(_) => return Err(err("result item `doc` must be object or null")),
    };
    let index = d.get("index").and_then(Value::as_i64).map(|i| i as u64);
    Ok(ResultItem { key, version, doc, index })
}

fn err(msg: &str) -> SpecError {
    SpecError { message: msg.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn write_roundtrip() {
        let m = ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("app"),
            collection: "users".into(),
            key: Key::of("u1"),
            version: 2,
            doc: Some(doc! { "name" => "ada" }),
            written_at: 777,
            trace: None,
        });
        assert_eq!(ClusterMessage::from_document(&m.to_document()).unwrap(), m);
    }

    #[test]
    fn traced_write_roundtrip() {
        let mut trace = crate::trace::TraceContext { trace_id: 9, stamps: Vec::new() };
        trace.stamp_at(crate::trace::Stage::AppServer, 500);
        trace.stamp_at(crate::trace::Stage::Ingestion, 540);
        let m = ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("app"),
            collection: "users".into(),
            key: Key::of("u1"),
            version: 2,
            doc: Some(doc! { "name" => "ada" }),
            written_at: 500,
            trace: Some(trace),
        });
        assert_eq!(ClusterMessage::from_document(&m.to_document()).unwrap(), m);
    }

    #[test]
    fn delete_roundtrip() {
        let m = ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("app"),
            collection: "users".into(),
            key: Key::of(5i64),
            version: 4,
            doc: None,
            written_at: 0,
            trace: None,
        });
        let decoded = ClusterMessage::from_document(&m.to_document()).unwrap();
        assert_eq!(decoded, m);
        if let ClusterMessage::Write(img) = decoded {
            assert!(img.is_delete());
        }
    }

    #[test]
    fn subscribe_roundtrip() {
        let spec = QuerySpec::filter("users", doc! { "age" => doc! { "$gte" => 18i64 } });
        let m = ClusterMessage::Subscribe(SubscriptionRequest {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(99),
            query_hash: spec.stable_hash(),
            spec,
            initial: vec![ResultItem::new(Key::of("u1"), 1, doc! { "age" => 30i64 })],
            slack: 3,
            ttl_micros: 60_000_000,
            renewal: false,
        });
        assert_eq!(ClusterMessage::from_document(&m.to_document()).unwrap(), m);
    }

    #[test]
    fn control_messages_roundtrip() {
        let unsub = ClusterMessage::Unsubscribe {
            tenant: TenantId::new("a"),
            subscription: SubscriptionId(1),
            query_hash: QueryHash(2),
        };
        assert_eq!(ClusterMessage::from_document(&unsub.to_document()).unwrap(), unsub);
        let ttl = ClusterMessage::ExtendTtl {
            tenant: TenantId::new("a"),
            subscription: SubscriptionId(1),
            query_hash: QueryHash(2),
            ttl_micros: 5,
        };
        assert_eq!(ClusterMessage::from_document(&ttl.to_document()).unwrap(), ttl);
    }

    #[test]
    fn unknown_op_rejected() {
        let d = doc! { "op" => "explode" };
        assert!(ClusterMessage::from_document(&d).is_err());
    }
}
