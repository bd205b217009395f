//! Change notifications delivered to subscribed clients.
//!
//! Every notification represents a transition of a query result from one
//! state to another (§5). The first notification for a subscription carries
//! the initial result; all subsequent ones are incremental updates tagged
//! with a [`MatchType`]. A maintenance-error notification doubles as a
//! *query renewal request* (§5.2).
//!
//! The cluster matches a write against a *query*, not against each of the
//! query's subscribers, so the unit on the wire is the [`NotifyEnvelope`]:
//! one transition, carried once, addressed to every subscription that
//! shares the query. The notifier serializes it from borrowed parts
//! ([`EnvelopeRef`]) without building a [`Document`]; the application
//! server decodes it once and hands each addressed subscription a pointer.
//! A [`Notification`] is the envelope seen by one of its addressees.

use crate::document::Document;
use crate::id::{Key, SubscriptionId, TenantId};
use crate::query_spec::SpecError;
use crate::trace::TraceContext;
use crate::value::Value;
use crate::write::{DocumentBuilder, FieldWriter};
use crate::Version;
use std::borrow::Cow;
use std::fmt;

/// The exact kind of result change encoded in a change notification (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchType {
    /// New result member.
    Add,
    /// Result member was updated (position unchanged for sorted queries).
    Change,
    /// Sorted queries only: result member was updated and changed position.
    ChangeIndex,
    /// Item left the result.
    Remove,
}

impl MatchType {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            MatchType::Add => "add",
            MatchType::Change => "change",
            MatchType::ChangeIndex => "changeIndex",
            MatchType::Remove => "remove",
        }
    }

    /// Parses the wire name.
    pub fn parse_str(s: &str) -> Option<Self> {
        match s {
            "add" => Some(MatchType::Add),
            "change" => Some(MatchType::Change),
            "changeIndex" => Some(MatchType::ChangeIndex),
            "remove" => Some(MatchType::Remove),
            _ => None,
        }
    }
}

impl fmt::Display for MatchType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One member of a query result (initial results and change payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultItem {
    /// Primary key of the record.
    pub key: Key,
    /// Record version the item reflects.
    pub version: Version,
    /// After-image of the record; `None` only for removes, where the record
    /// content is no longer relevant.
    pub doc: Option<Document>,
    /// Position within the result for sorted queries.
    pub index: Option<u64>,
}

impl ResultItem {
    /// Item with document content and no position.
    pub fn new(key: Key, version: Version, doc: Document) -> Self {
        Self { key, version, doc: Some(doc), index: None }
    }

    fn from_document(mut d: Cow<'_, Document>) -> Result<Self, SpecError> {
        let key = take(&mut d, "key").ok_or_else(|| decode_err("result item missing `key`"))?;
        let version =
            d.get("version")
                .and_then(Value::as_i64)
                .ok_or_else(|| decode_err("result item missing `version`"))? as Version;
        let doc = match take(&mut d, "doc") {
            None => None,
            Some(doc) if matches!(*doc, Value::Null) => None,
            Some(doc) => Some(
                object(doc)
                    .ok_or_else(|| decode_err("result item `doc` must be object or null"))?
                    .into_owned(),
            ),
        };
        let index = d.get("index").and_then(Value::as_i64).map(|i| i as u64);
        Ok(Self { key: Key(key.into_owned()), version, doc, index })
    }
}

/// One incremental change to a maintained query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeItem {
    /// The kind of result transition.
    pub match_type: MatchType,
    /// The affected record.
    pub item: ResultItem,
    /// Previous position within the result (sorted queries, moves/removes).
    pub old_index: Option<u64>,
}

/// Why a sorted query stopped being maintainable (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceError {
    /// Human-readable description, e.g. "slack exhausted".
    pub reason: String,
}

impl fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query maintenance error: {}", self.reason)
    }
}

/// Payload of a notification.
#[derive(Debug, Clone, PartialEq)]
pub enum NotificationKind {
    /// The complete result at subscription time — always the first message
    /// for any real-time query.
    InitialResult {
        /// Result members; for sorted queries, in result order with indices.
        items: Vec<ResultItem>,
    },
    /// Incremental result update.
    Change(ChangeItem),
    /// The query became unmaintainable and was deactivated; the application
    /// server should renew it by re-executing the rewritten query
    /// (rate-limited by the poll frequency limit).
    Error(MaintenanceError),
    /// Updated value of a real-time aggregate query (extension, §8.1).
    Aggregate {
        /// Current aggregate value (`Null` when no record matches and the
        /// aggregate has no identity, e.g. min/max/avg of an empty set).
        value: Value,
        /// Number of currently matching records.
        count: u64,
    },
}

/// A notification as one subscription sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Owning tenant (application).
    pub tenant: TenantId,
    /// Target subscription.
    pub subscription: SubscriptionId,
    /// Payload.
    pub kind: NotificationKind,
    /// Microsecond timestamp (app-server clock domain) of the write that
    /// caused this notification; `0` when not applicable. Carried so the
    /// benchmark harness can measure end-to-end notification latency the
    /// way the paper does (time from before insert until notification).
    pub caused_by_write_at: u64,
    /// Stage trace inherited from the causing write when that write was
    /// sampled for tracing; `None` otherwise (the common case).
    pub trace: Option<TraceContext>,
}

impl Notification {
    /// Encodes the notification for transport: an envelope addressed to
    /// this one subscription.
    pub fn to_document(&self) -> Document {
        EnvelopeRef {
            tenant: &self.tenant,
            subscriptions: std::slice::from_ref(&self.subscription),
            kind: KindRef::from(&self.kind),
            caused_by_write_at: self.caused_by_write_at,
            trace: self.trace.as_ref(),
        }
        .to_document()
    }

    /// Decodes an envelope that addresses exactly one subscription. Readers
    /// of a notify topic, where envelopes address many, decode with
    /// [`NotifyEnvelope::from_document`] instead.
    pub fn from_document(d: &Document) -> Result<Self, SpecError> {
        let NotifyEnvelope { tenant, subscriptions, kind, caused_by_write_at, trace } =
            NotifyEnvelope::decode(Cow::Borrowed(d), None)?;
        match subscriptions[..] {
            [subscription] => Ok(Self { tenant, subscription, kind, caused_by_write_at, trace }),
            _ => Err(decode_err("envelope does not address exactly one subscription")),
        }
    }
}

/// One result transition of one query, addressed to every subscription
/// that shares the query — the message on a notify topic.
#[derive(Debug, Clone, PartialEq)]
pub struct NotifyEnvelope {
    /// Owning tenant (application).
    pub tenant: TenantId,
    /// The addressed subscriptions.
    pub subscriptions: Vec<SubscriptionId>,
    /// Payload, carried once for all addressees.
    pub kind: NotificationKind,
    /// See [`Notification::caused_by_write_at`].
    pub caused_by_write_at: u64,
    /// See [`Notification::trace`].
    pub trace: Option<TraceContext>,
}

impl NotifyEnvelope {
    /// The borrowed form, for encoding.
    pub fn as_ref(&self) -> EnvelopeRef<'_> {
        EnvelopeRef {
            tenant: &self.tenant,
            subscriptions: &self.subscriptions,
            kind: KindRef::from(&self.kind),
            caused_by_write_at: self.caused_by_write_at,
            trace: self.trace.as_ref(),
        }
    }

    /// Decodes an envelope, taking its parts out of `d` instead of copying
    /// them. The addressees are the `subscriptions` id array.
    pub fn from_document(d: Document) -> Result<Self, SpecError> {
        Self::decode(Cow::Owned(d), None)
    }

    /// [`NotifyEnvelope::from_document`] for the reader of `tenant`'s notify
    /// topic: an envelope that names that tenant — all of them, unless the
    /// topic is misused — shares the reader's id instead of allocating its
    /// own.
    pub fn from_document_for(d: Document, tenant: &TenantId) -> Result<Self, SpecError> {
        Self::decode(Cow::Owned(d), Some(tenant))
    }

    /// The one decoder: parts move out of an owned document and are copied
    /// out of a borrowed one, and nothing else is copied either way.
    fn decode(mut d: Cow<'_, Document>, reader: Option<&TenantId>) -> Result<Self, SpecError> {
        let string = |v: Option<Cow<'_, Value>>| match v.map(Cow::into_owned) {
            Some(Value::String(s)) => Some(s),
            _ => None,
        };
        let tenant = match d.get("tenant").and_then(Value::as_str) {
            Some(name) => match reader {
                Some(reader) if reader.as_str() == name => reader.clone(),
                _ => TenantId::new(name),
            },
            None => return Err(decode_err("missing `tenant`")),
        };
        let id = |v: &Value| {
            v.as_i64()
                .map(|i| SubscriptionId(i as u64))
                .ok_or_else(|| decode_err("subscription id must be an integer"))
        };
        let subscriptions = match d.get("subscriptions") {
            Some(Value::Array(ids)) => ids.iter().map(id).collect::<Result<Vec<_>, _>>()?,
            _ => return Err(decode_err("missing `subscriptions`")),
        };
        let caused_by_write_at = d.get("writeAt").and_then(Value::as_i64).unwrap_or(0) as u64;
        let item = |v: Cow<'_, Value>| {
            ResultItem::from_document(object(v).ok_or_else(|| decode_err("item must be object"))?)
        };
        let ty = d.get("type").and_then(Value::as_str).ok_or_else(|| decode_err("missing `type`"))?;
        let kind = match ty {
            "initial" => {
                let items = match take(&mut d, "items").ok_or_else(|| decode_err("missing `items`"))? {
                    Cow::Owned(Value::Array(items)) => {
                        items.into_iter().map(Cow::Owned).map(item).collect()
                    }
                    Cow::Borrowed(Value::Array(items)) => {
                        items.iter().map(Cow::Borrowed).map(item).collect()
                    }
                    _ => Err(decode_err("`items` must be an array")),
                };
                NotificationKind::InitialResult { items: items? }
            }
            "error" => NotificationKind::Error(MaintenanceError {
                reason: string(take(&mut d, "error")).unwrap_or_else(|| "unknown".to_owned()),
            }),
            "aggregate" => NotificationKind::Aggregate {
                value: take(&mut d, "value").map_or(Value::Null, Cow::into_owned),
                count: d.get("count").and_then(Value::as_i64).unwrap_or(0) as u64,
            },
            other => {
                let match_type = MatchType::parse_str(other)
                    .ok_or_else(|| decode_err("unknown notification type"))?;
                let item = item(take(&mut d, "item").ok_or_else(|| decode_err("missing `item`"))?)?;
                let old_index = d.get("oldIndex").and_then(Value::as_i64).map(|i| i as u64);
                NotificationKind::Change(ChangeItem { match_type, item, old_index })
            }
        };
        let trace = match d.get("trace").and_then(Value::as_object) {
            Some(td) => Some(TraceContext::from_document(td)?),
            None => None,
        };
        Ok(Self { tenant, subscriptions, kind, caused_by_write_at, trace })
    }

    /// The envelope as each of its addressees sees it, in address order.
    pub fn into_notifications(self) -> Vec<Notification> {
        let Self { tenant, subscriptions, kind, caused_by_write_at, trace } = self;
        subscriptions
            .into_iter()
            .map(|subscription| Notification {
                tenant: tenant.clone(),
                subscription,
                kind: kind.clone(),
                caused_by_write_at,
                trace: trace.clone(),
            })
            .collect()
    }
}

/// A result member borrowed from wherever it lives (an after-image, a
/// subscription request, a [`ResultItem`]).
#[derive(Debug, Clone, Copy)]
pub struct ItemRef<'a> {
    /// See [`ResultItem::key`].
    pub key: &'a Key,
    /// See [`ResultItem::version`].
    pub version: Version,
    /// See [`ResultItem::doc`].
    pub doc: Option<&'a Document>,
    /// See [`ResultItem::index`].
    pub index: Option<u64>,
}

impl<'a> From<&'a ResultItem> for ItemRef<'a> {
    fn from(item: &'a ResultItem) -> Self {
        ItemRef { key: &item.key, version: item.version, doc: item.doc.as_ref(), index: item.index }
    }
}

impl ItemRef<'_> {
    fn write_to(&self, w: &mut impl FieldWriter) {
        w.begin_object(3 + usize::from(self.index.is_some()));
        w.key("key");
        w.value(&self.key.0);
        w.key("version");
        w.int(self.version as i64);
        w.key("doc");
        match self.doc {
            Some(doc) => w.document(doc),
            None => w.value(&Value::Null),
        }
        if let Some(index) = self.index {
            w.key("index");
            w.int(index as i64);
        }
        w.end_object();
    }
}

/// Borrowed form of a [`NotificationKind`].
#[derive(Debug, Clone)]
pub enum KindRef<'a> {
    /// See [`NotificationKind::InitialResult`].
    Initial(Vec<ItemRef<'a>>),
    /// See [`NotificationKind::Change`].
    Change {
        /// See [`ChangeItem::match_type`].
        match_type: MatchType,
        /// See [`ChangeItem::item`].
        item: ItemRef<'a>,
        /// See [`ChangeItem::old_index`].
        old_index: Option<u64>,
    },
    /// See [`NotificationKind::Error`].
    Error(&'a str),
    /// See [`NotificationKind::Aggregate`].
    Aggregate {
        /// Current aggregate value.
        value: &'a Value,
        /// Number of currently matching records.
        count: u64,
    },
}

impl<'a> From<&'a NotificationKind> for KindRef<'a> {
    fn from(kind: &'a NotificationKind) -> Self {
        match kind {
            NotificationKind::InitialResult { items } => {
                KindRef::Initial(items.iter().map(ItemRef::from).collect())
            }
            NotificationKind::Change(change) => KindRef::Change {
                match_type: change.match_type,
                item: ItemRef::from(&change.item),
                old_index: change.old_index,
            },
            NotificationKind::Error(err) => KindRef::Error(&err.reason),
            NotificationKind::Aggregate { value, count } => KindRef::Aggregate { value, count: *count },
        }
    }
}

/// A [`NotifyEnvelope`] assembled from borrowed parts: what the notifier
/// serializes, so that a change is never copied on its way to the wire.
#[derive(Debug, Clone)]
pub struct EnvelopeRef<'a> {
    /// See [`NotifyEnvelope::tenant`].
    pub tenant: &'a TenantId,
    /// See [`NotifyEnvelope::subscriptions`].
    pub subscriptions: &'a [SubscriptionId],
    /// See [`NotifyEnvelope::kind`].
    pub kind: KindRef<'a>,
    /// See [`Notification::caused_by_write_at`].
    pub caused_by_write_at: u64,
    /// See [`Notification::trace`].
    pub trace: Option<&'a TraceContext>,
}

impl EnvelopeRef<'_> {
    /// Writes the envelope — the one place its layout is written down.
    pub fn write_to(&self, w: &mut impl FieldWriter) {
        let kind_fields = match &self.kind {
            KindRef::Initial(_) | KindRef::Error(_) => 1,
            KindRef::Change { old_index, .. } => 1 + usize::from(old_index.is_some()),
            KindRef::Aggregate { .. } => 2,
        };
        w.begin_object(4 + kind_fields + usize::from(self.trace.is_some()));
        w.key("tenant");
        w.str(self.tenant.as_str());
        w.key("subscriptions");
        w.begin_array(self.subscriptions.len());
        for subscription in self.subscriptions {
            w.int(subscription.0 as i64);
        }
        w.end_array();
        w.key("writeAt");
        w.int(self.caused_by_write_at as i64);
        w.key("type");
        match &self.kind {
            KindRef::Initial(items) => {
                w.str("initial");
                w.key("items");
                w.begin_array(items.len());
                for item in items {
                    item.write_to(w);
                }
                w.end_array();
            }
            KindRef::Change { match_type, item, old_index } => {
                w.str(match_type.as_str());
                w.key("item");
                item.write_to(w);
                if let Some(old) = old_index {
                    w.key("oldIndex");
                    w.int(*old as i64);
                }
            }
            KindRef::Error(reason) => {
                w.str("error");
                w.key("error");
                w.str(reason);
            }
            KindRef::Aggregate { value, count } => {
                w.str("aggregate");
                w.key("value");
                w.value(value);
                w.key("count");
                w.int(*count as i64);
            }
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

/// Takes a field out of a document being decoded: moved out of an owned
/// document, borrowed from a borrowed one.
fn take<'a>(d: &mut Cow<'a, Document>, key: &str) -> Option<Cow<'a, Value>> {
    match d {
        Cow::Owned(d) => d.remove(key).map(Cow::Owned),
        Cow::Borrowed(d) => d.get(key).map(Cow::Borrowed),
    }
}

/// The document of an object value, owned or borrowed like the value.
fn object(v: Cow<'_, Value>) -> Option<Cow<'_, Document>> {
    match v {
        Cow::Owned(Value::Object(d)) => Some(Cow::Owned(d)),
        Cow::Borrowed(Value::Object(d)) => Some(Cow::Borrowed(d)),
        _ => None,
    }
}

fn decode_err(msg: &str) -> SpecError {
    SpecError::new(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn item() -> ResultItem {
        ResultItem { key: Key::of("k1"), version: 3, doc: Some(doc! { "a" => 1i64 }), index: Some(2) }
    }

    #[test]
    fn match_type_names_roundtrip() {
        for mt in [MatchType::Add, MatchType::Change, MatchType::ChangeIndex, MatchType::Remove] {
            assert_eq!(MatchType::parse_str(mt.as_str()), Some(mt));
        }
        assert_eq!(MatchType::parse_str("nope"), None);
    }

    #[test]
    fn initial_result_roundtrip() {
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(42),
            kind: NotificationKind::InitialResult {
                items: vec![item(), ResultItem::new(Key::of(9i64), 1, doc! {})],
            },
            caused_by_write_at: 0,
            trace: None,
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn change_roundtrip() {
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(7),
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::ChangeIndex,
                item: item(),
                old_index: Some(5),
            }),
            caused_by_write_at: 123_456,
            trace: None,
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn remove_with_null_doc_roundtrip() {
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(7),
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::Remove,
                item: ResultItem { key: Key::of("gone"), version: 9, doc: None, index: None },
                old_index: Some(0),
            }),
            caused_by_write_at: 1,
            trace: None,
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn error_roundtrip() {
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(7),
            kind: NotificationKind::Error(MaintenanceError { reason: "slack exhausted".into() }),
            caused_by_write_at: 0,
            trace: None,
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn aggregate_roundtrip() {
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(3),
            kind: NotificationKind::Aggregate { value: Value::Float(4.5), count: 12 },
            caused_by_write_at: 9,
            trace: None,
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn traced_notification_roundtrip() {
        let mut trace = TraceContext { trace_id: 11, stamps: Vec::new() };
        trace.stamp_at(crate::trace::Stage::AppServer, 10);
        trace.stamp_at(crate::trace::Stage::Matching, 25);
        trace.stamp_at(crate::trace::Stage::Notifier, 40);
        let n = Notification {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(7),
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::Add,
                item: item(),
                old_index: None,
            }),
            caused_by_write_at: 10,
            trace: Some(trace),
        };
        let back = Notification::from_document(&n.to_document()).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Notification::from_document(&Document::new()).is_err());
        let d = doc! { "tenant" => "t", "subscription" => 1i64, "type" => "weird" };
        assert!(Notification::from_document(&d).is_err());
        let d = doc! { "tenant" => "t", "subscriptions" => vec![Value::from("x")], "type" => "error" };
        assert!(NotifyEnvelope::from_document(d).is_err());
        let d = doc! { "tenant" => "t", "subscriptions" => 1i64, "type" => "error" };
        assert!(NotifyEnvelope::from_document(d).is_err());
        // A scalar `subscription` is not an address list.
        let mut d = NotifyEnvelope { subscriptions: vec![SubscriptionId(3)], ..multicast() }
            .as_ref()
            .to_document();
        d.remove("subscriptions");
        d.insert("subscription", 3i64);
        assert!(NotifyEnvelope::from_document(d.clone()).is_err());
        assert!(Notification::from_document(&d).is_err());
    }

    fn multicast() -> NotifyEnvelope {
        NotifyEnvelope {
            tenant: TenantId::new("app"),
            subscriptions: vec![SubscriptionId(3), SubscriptionId(1), SubscriptionId(u64::MAX)],
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::Add,
                item: item(),
                old_index: None,
            }),
            caused_by_write_at: 77,
            trace: None,
        }
    }

    #[test]
    fn envelope_carries_the_change_once_for_all_addressees() {
        let env = multicast();
        let d = env.as_ref().to_document();
        assert_eq!(d.get("subscriptions").and_then(Value::as_array).map(<[Value]>::len), Some(3));
        assert!(d.get("subscription").is_none());
        assert_eq!(NotifyEnvelope::from_document(d.clone()).unwrap(), env);
        // One addressee's view of it: same payload, own id, address order.
        let notes = env.clone().into_notifications();
        assert_eq!(notes.iter().map(|n| n.subscription).collect::<Vec<_>>(), env.subscriptions);
        assert!(notes.iter().all(|n| n.kind == env.kind && n.caused_by_write_at == 77));
        // A single notification cannot stand for three.
        assert!(Notification::from_document(&d).is_err());
    }
}
