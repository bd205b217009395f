//! One typed codec per wire message, pinned to its document form.
//!
//! Every message on the cluster topic (write, subscribe, unsubscribe,
//! extendTtl), on a notify topic (change, initial result, error,
//! aggregate, heartbeat) and on a shuffle topic (a filter change) is
//! written by its typed writer and read by its typed decoder
//! (`ingest::decode_cluster_payload`, `decode_notify_payload`,
//! `FilterChange::decode`). The document forms — `to_document`, and
//! `from_document` over the whole payload decoded as a document; for a
//! filter change, the layout written out below — are the oracle. The
//! properties:
//!
//! * a typed writer writes the bytes of its document form, and its decoder
//!   reads them back to the message;
//! * on every payload that repeats no field, each typed decoder answers what
//!   its oracle answers — over truncations, flipped bytes, trailing bytes
//!   and integers encoded as integral floats of every message;
//! * every payload that repeats a field, at any depth, is rejected;
//! * the coordinator's control-only decoder (`ingest::decode_control`)
//!   answers as the cluster decoder does, and `None` for every write;
//! * the ingress's decoder (`ingest::decode_event_with`), which checks a
//!   write and hands it on as its payload, rejects exactly what the cluster
//!   decoder rejects, and a write's header, record and trace, read where
//!   the event keeps them, are the decoded after-image's;
//! * each addressee of a decoded envelope sees its kind, trace and write
//!   time;
//! * a change envelope whose record is copied in as the bytes it arrived in
//!   is the envelope written from the decoded record.
//!
//! Each property seeds itself from its name; CI runs the file under more
//! seeds through `PROPTEST_SEED`.

use invalidb::broker::Bytes;
use invalidb::client::{decode_notify_payload, NotifyPayload};
use invalidb::common::{
    AfterImage, AggregateOp, AggregateSpec, ChangeItem, ClusterMessage, DocRef, Document, EnvelopeRef,
    FieldWriter, ItemRef, Key, KindRef, MaintenanceError, MatchType, NotificationKind, NotifyEnvelope,
    QueryHash, QuerySpec, ResultItem, SortDirection, Stage, SubscriptionId, SubscriptionRequest,
    TenantId, TraceContext, Value,
};
use invalidb::core::ingest::{decode_cluster_payload, decode_control, decode_event_with};
use invalidb::core::{Event, FilterChange, FilterChangeKind};
use invalidb::json::{bin, LazyDoc, LazyValue, PayloadWriter, WireCodec};
use proptest::prelude::*;
use std::sync::Arc;

fn optional<T: Clone + std::fmt::Debug + 'static>(
    some: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), some.prop_map(Some)]
}

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        "\\PC{0,12}".prop_map(|s: String| Value::String(s.into())),
    ]
}

fn document() -> impl Strategy<Value = Document> {
    let nested = prop::collection::vec(("\\PC{1,8}", scalar()), 0..4)
        .prop_map(|pairs| Value::Object(pairs.into_iter().collect::<Document>()));
    let field =
        prop_oneof![scalar(), prop::collection::vec(scalar(), 0..4).prop_map(Value::Array), nested];
    prop::collection::vec(("\\PC{1,8}", field), 0..6).prop_map(|pairs| pairs.into_iter().collect())
}

fn trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), 0u64..1_000_000).prop_map(|(id, at)| {
        let mut trace = TraceContext { trace_id: id, stamps: Vec::new() };
        trace.stamp_at(Stage::AppServer, at);
        trace.stamp_worker(Stage::Matching, "w1", 3);
        trace
    })
}

fn item() -> impl Strategy<Value = ResultItem> {
    (scalar(), any::<u32>(), optional(document()), optional(0u64..1_000)).prop_map(
        |(key, version, doc, index)| ResultItem { key: Key(key), version: version as u64, doc, index },
    )
}

/// Inserts, updates and deletes (`doc: None`), traced or not.
fn write() -> impl Strategy<Value = ClusterMessage> {
    (
        ("\\PC{1,8}", "\\PC{1,8}", scalar(), any::<u32>()),
        (optional(document()), 0u64..(i64::MAX as u64), optional(trace())),
    )
        .prop_map(|((tenant, collection, key, version), (doc, written_at, trace))| {
            ClusterMessage::Write(AfterImage {
                tenant: TenantId::new(&tenant),
                collection,
                key: Key(key),
                version: version as u64,
                doc,
                written_at,
                trace,
            })
        })
}

/// Filters, sorted windows (distinct sort keys) and aggregates.
fn query() -> impl Strategy<Value = QuerySpec> {
    let aggregate = prop_oneof![
        optional("\\PC{1,6}").prop_map(|field| AggregateSpec { op: AggregateOp::Count, field }),
        (0usize..4, "\\PC{1,6}").prop_map(|(op, field)| AggregateSpec {
            op: [AggregateOp::Sum, AggregateOp::Avg, AggregateOp::Min, AggregateOp::Max][op],
            field: Some(field),
        }),
    ];
    (
        "\\PC{1,8}",
        document(),
        prop::collection::vec(any::<bool>(), 0..3),
        optional(0u64..100),
        0u64..4,
        optional(aggregate),
    )
        .prop_map(|(collection, filter, sort, limit, offset, aggregate)| {
            let mut spec = QuerySpec::filter(collection, filter);
            for (i, asc) in sort.into_iter().enumerate() {
                let dir = if asc { SortDirection::Asc } else { SortDirection::Desc };
                spec = spec.sorted_by(format!("f{i}"), dir);
            }
            spec.limit = limit;
            spec.offset = offset;
            spec.aggregate = aggregate;
            spec
        })
}

fn control() -> impl Strategy<Value = ClusterMessage> {
    let subscribe = (
        ("\\PC{1,8}", any::<u64>(), any::<u64>()),
        query(),
        prop::collection::vec(item(), 0..4),
        (0u64..10, any::<u64>(), any::<bool>()),
    )
        .prop_map(|((tenant, id, hash), spec, initial, (slack, ttl_micros, renewal))| {
            ClusterMessage::Subscribe(SubscriptionRequest {
                tenant: TenantId::new(&tenant),
                subscription: SubscriptionId(id),
                spec,
                query_hash: QueryHash(hash),
                initial,
                slack,
                ttl_micros,
                renewal,
            })
        });
    let cancel = ("\\PC{1,8}", any::<u64>(), any::<u64>(), optional(any::<u64>())).prop_map(
        |(tenant, id, hash, ttl)| {
            let (tenant, subscription, query_hash) =
                (TenantId::new(&tenant), SubscriptionId(id), QueryHash(hash));
            match ttl {
                None => ClusterMessage::Unsubscribe { tenant, subscription, query_hash },
                Some(ttl_micros) => {
                    ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
                }
            }
        },
    );
    prop_oneof![subscribe, cancel]
}

fn kind() -> impl Strategy<Value = NotificationKind> {
    let match_type = prop_oneof![
        Just(MatchType::Add),
        Just(MatchType::Change),
        Just(MatchType::ChangeIndex),
        Just(MatchType::Remove),
    ];
    prop_oneof![
        prop::collection::vec(item(), 0..4).prop_map(|items| NotificationKind::InitialResult { items }),
        (match_type, item(), optional(0u64..1_000)).prop_map(|(match_type, mut item, old_index)| {
            if match_type == MatchType::Remove {
                item.doc = None;
            }
            NotificationKind::Change(ChangeItem { match_type, item, old_index })
        }),
        "\\PC{0,16}".prop_map(|reason| NotificationKind::Error(MaintenanceError { reason })),
        (scalar(), any::<u32>())
            .prop_map(|(value, count)| NotificationKind::Aggregate { value, count: count as u64 }),
    ]
}

/// Envelopes addressing none, one or many subscriptions, for the reader's
/// tenant or another.
fn envelope() -> impl Strategy<Value = NotifyEnvelope> {
    (
        prop_oneof![Just("app".to_owned()), "\\PC{1,8}"],
        prop::collection::vec(any::<u64>(), 0..6),
        kind(),
        0u64..(i64::MAX as u64),
        optional(trace()),
    )
        .prop_map(|(tenant, ids, kind, caused_by_write_at, trace)| NotifyEnvelope {
            tenant: TenantId::new(&tenant),
            subscriptions: ids.into_iter().map(SubscriptionId).collect(),
            kind,
            caused_by_write_at,
            trace,
        })
}

/// A staged transition as a cell off the row owner ships it.
fn filter_change() -> impl Strategy<Value = FilterChange> {
    let kind = prop_oneof![
        Just(FilterChangeKind::Add),
        Just(FilterChangeKind::Change),
        Just(FilterChangeKind::Remove),
    ];
    (
        ("\\PC{1,8}", any::<u64>(), kind),
        (scalar(), any::<u32>(), optional(document()), 0u64..(i64::MAX as u64), optional(trace())),
    )
        .prop_map(|((tenant, hash, kind), (key, version, doc, written_at, trace))| FilterChange {
            query_hash: QueryHash(hash),
            kind,
            image: Arc::new(AfterImage {
                tenant: TenantId::new(&tenant),
                collection: String::new(),
                key: Key(key),
                version: version as u64,
                doc,
                written_at,
                trace: None,
            }),
            trace,
        })
}

/// A filter change as parts that compare.
type Shuffled = (QueryHash, FilterChangeKind, AfterImage, Option<TraceContext>);

fn shuffled(change: &FilterChange) -> Shuffled {
    (change.query_hash, change.kind, (*change.image).clone(), change.trace.clone())
}

/// The shuffle topic's document form: the oracle its typed codec is pinned
/// to.
fn filter_change_document(change: &FilterChange) -> Document {
    let img = &change.image;
    let mut d = invalidb::doc! {
        "tenant" => img.tenant.as_str(),
        "queryHash" => change.query_hash.0 as i64,
        "kind" => change.kind.as_str(),
        "key" => img.key.0.clone(),
        "version" => img.version as i64,
        "doc" => img.doc.clone().map_or(Value::Null, Value::Object),
        "writtenAt" => img.written_at as i64,
    };
    if let Some(trace) = &change.trace {
        d.insert("trace", trace.to_document());
    }
    d
}

/// The shuffle topic's oracle: the change taken out of the whole payload
/// decoded as a document.
fn shuffle_oracle(payload: &[u8]) -> Option<Shuffled> {
    let d = bin::decode_document(payload).ok()?;
    let image = AfterImage {
        tenant: TenantId::new(d.get("tenant")?.as_str()?),
        collection: String::new(),
        key: Key(d.get("key")?.clone()),
        version: d.get("version")?.as_i64()? as u64,
        doc: match d.get("doc") {
            None | Some(Value::Null) => None,
            Some(Value::Object(doc)) => Some(doc.clone()),
            Some(_) => return None,
        },
        written_at: d.get("writtenAt").and_then(Value::as_i64).unwrap_or(0) as u64,
        trace: None,
    };
    let trace = match d.get("trace").and_then(Value::as_object) {
        Some(trace) => Some(TraceContext::from_document(trace).ok()?),
        None => None,
    };
    let kind = FilterChangeKind::parse(d.get("kind")?.as_str()?)?;
    Some((QueryHash(d.get("queryHash")?.as_i64()? as u64), kind, image, trace))
}

/// What the ingress hands on, as the message it stands for: a write's
/// header, record and trace read where the event keeps them.
fn ingested(event: Event) -> Option<ClusterMessage> {
    Some(match event {
        Event::Write(write) => ClusterMessage::Write(AfterImage {
            collection: write.collection()?.to_owned(),
            doc: write.doc().map(|doc| doc.materialize()),
            trace: write.trace.as_deref().cloned(),
            tenant: write.header.tenant,
            key: write.header.key,
            version: write.header.version,
            written_at: write.header.written_at,
        }),
        Event::Subscribe(req) => ClusterMessage::Subscribe((*req).clone()),
        Event::Unsubscribe { tenant, subscription, query_hash } => {
            ClusterMessage::Unsubscribe { tenant, subscription, query_hash }
        }
        Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
            ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
        }
        Event::FilterChange(_) => return None,
    })
}

/// A message of any topic.
#[derive(Debug, Clone)]
enum Message {
    Cluster(ClusterMessage),
    Notify(NotifyEnvelope),
    /// The publisher's heartbeat for a tenant, a document on the wire.
    Heartbeat(String),
    Shuffle(FilterChange),
}

impl Message {
    /// The typed writer's bytes.
    fn written(&self) -> Bytes {
        let mut w = WireCodec.writer();
        match self {
            Message::Cluster(message) => message.write_to(&mut w),
            Message::Notify(envelope) => envelope.as_ref().write_to(&mut w),
            Message::Heartbeat(_) => return WireCodec.encode(&self.document()),
            Message::Shuffle(change) => change.write_to(&mut w),
        }
        w.finish()
    }

    /// The document form.
    fn document(&self) -> Document {
        match self {
            Message::Cluster(message) => message.to_document(),
            Message::Notify(envelope) => envelope.as_ref().to_document(),
            Message::Heartbeat(tenant) => {
                invalidb::doc! { "type" => "heartbeat", "tenant" => tenant.as_str() }
            }
            Message::Shuffle(change) => filter_change_document(change),
        }
    }
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        write().prop_map(Message::Cluster),
        control().prop_map(Message::Cluster),
        envelope().prop_map(Message::Notify),
        "\\PC{1,8}".prop_map(Message::Heartbeat),
        filter_change().prop_map(Message::Shuffle),
    ]
}

fn reader() -> TenantId {
    TenantId::new("app")
}

/// The cluster topic's oracle.
fn cluster_oracle(payload: &[u8]) -> Option<ClusterMessage> {
    ClusterMessage::from_document(&bin::decode_document(payload).ok()?).ok()
}

/// The notify topic's oracle: a heartbeat, or the envelope.
fn notify_oracle(payload: &[u8]) -> Option<NotifyPayload> {
    let d = bin::decode_document(payload).ok()?;
    if d.get("type").and_then(Value::as_str) == Some("heartbeat") {
        return Some(NotifyPayload::Heartbeat);
    }
    NotifyEnvelope::from_document(d).ok().map(NotifyPayload::Envelope)
}

/// Whether an object anywhere in `value`, as far as it can be walked,
/// names a field twice.
fn repeats(value: LazyValue<'_>) -> bool {
    match value {
        LazyValue::Object(object) => {
            let mut seen = Vec::new();
            for entry in object.entries() {
                let Ok((name, value)) = entry else { return false };
                if seen.contains(&name) || repeats(value) {
                    return true;
                }
                seen.push(name);
            }
            false
        }
        LazyValue::Array(array) => array.items().any(|item| item.is_ok_and(repeats)),
        _ => false,
    }
}

/// The contract on one payload, for every topic's decoders: one that
/// repeats a field is rejected, any other decodes as its oracle does.
fn check(payload: &[u8]) -> Result<(), TestCaseError> {
    let cluster = decode_cluster_payload(&Bytes::copy_from_slice(payload));
    let control = decode_control(payload);
    let event = decode_event_with(Bytes::copy_from_slice(payload), TenantId::new);
    let notify = decode_notify_payload(payload, &reader());
    let shuffle = FilterChange::decode(payload).map(|change| shuffled(&change));
    if LazyDoc::new(payload).is_ok_and(|lazy| repeats(LazyValue::Object(lazy.root()))) {
        prop_assert_eq!(cluster, None);
        prop_assert_eq!(control, None);
        prop_assert!(event.is_none());
        prop_assert_eq!(notify, None);
        prop_assert_eq!(shuffle, None);
    } else {
        let oracle = cluster_oracle(payload);
        prop_assert_eq!(control, oracle.clone().filter(|m| !matches!(m, ClusterMessage::Write(_))));
        prop_assert_eq!(event.and_then(ingested), oracle.clone());
        prop_assert_eq!(cluster, oracle);
        prop_assert_eq!(notify, notify_oracle(payload));
        prop_assert_eq!(shuffle, shuffle_oracle(payload));
    }
    Ok(())
}

/// Writes `d` as a payload whose `target`-th non-empty object (in writing
/// order, the root first) names its first field twice.
fn write_repeating(d: &Document, target: usize) -> Bytes {
    fn object(w: &mut PayloadWriter, d: &Document, target: &mut Option<usize>) {
        let repeat = !d.is_empty() && *target == Some(0);
        *target = target.and_then(|t| t.checked_sub(usize::from(!d.is_empty())));
        w.begin_object(d.len() + usize::from(repeat));
        for (i, (name, v)) in d.iter().enumerate() {
            for _ in 0..1 + usize::from(repeat && i == 0) {
                w.key(name);
                write_value(w, v, target);
            }
        }
        w.end_object();
    }
    fn write_value(w: &mut PayloadWriter, v: &Value, target: &mut Option<usize>) {
        match v {
            Value::Object(d) => object(w, d, target),
            Value::Array(items) => {
                w.begin_array(items.len());
                for item in items {
                    write_value(w, item, target);
                }
                w.end_array();
            }
            v => w.value(v),
        }
    }
    let mut w = WireCodec.writer();
    object(&mut w, d, &mut Some(target));
    w.finish()
}

/// A string no generated message holds, whose first byte a test replaces
/// to make it invalid UTF-8.
const MARK: &str = "\u{1}~mark~\u{1}";

/// `d` with its `target`-th non-empty object (in writing order) changed:
/// its `field`-th field holds an object around [`MARK`], or it gains a
/// field holding an array around it — a field of a kind's that it reads no
/// further, a container where it defaults a scalar, a field it does not
/// know.
fn reshape(d: &Document, target: &mut Option<usize>, field: usize, extra: bool) -> Document {
    fn value(v: &Value, target: &mut Option<usize>, field: usize, extra: bool) -> Value {
        match v {
            Value::Object(d) => Value::Object(reshape(d, target, field, extra)),
            Value::Array(items) => {
                Value::Array(items.iter().map(|v| value(v, target, field, extra)).collect())
            }
            v => v.clone(),
        }
    }
    let here = !d.is_empty() && *target == Some(0);
    *target = target.and_then(|t| t.checked_sub(usize::from(!d.is_empty())));
    let mut out: Document =
        d.iter().map(|(k, v)| (k.to_owned(), value(v, target, field, extra))).collect();
    if here && extra {
        out.insert("zz", vec![Value::from(MARK)]);
    } else if here {
        let name = d.keys().nth(field % d.len()).unwrap_or_default().to_owned();
        out.insert(name, invalidb::doc! { "x" => MARK });
    }
    out
}

/// Every integer of `v` that a float holds exactly, as that float.
fn floats(v: Value) -> Value {
    match v {
        Value::Int(i) if i.unsigned_abs() < 1 << 53 => Value::Float(i as f64),
        Value::Array(items) => Value::Array(items.into_iter().map(floats).collect()),
        Value::Object(d) => {
            Value::Object(d.iter().map(|(k, v)| (k.to_owned(), floats(v.clone()))).collect())
        }
        v => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A typed writer writes its document form's bytes, and its decoder
    /// reads them back.
    #[test]
    fn wire_codec_typed_writers_write_the_document_bytes(message in message()) {
        let payload = message.written();
        prop_assert_eq!(&payload, &WireCodec.encode(&message.document()));
        match &message {
            Message::Cluster(m) => prop_assert_eq!(decode_cluster_payload(&payload), Some(m.clone())),
            Message::Notify(e) => prop_assert_eq!(
                decode_notify_payload(&payload, &reader()),
                Some(NotifyPayload::Envelope(e.clone()))
            ),
            Message::Heartbeat(_) => {
                prop_assert_eq!(decode_notify_payload(&payload, &reader()), Some(NotifyPayload::Heartbeat))
            }
            Message::Shuffle(change) => {
                prop_assert_eq!(FilterChange::decode(&payload).map(|c| shuffled(&c)), Some(shuffled(change)))
            }
        }
        check(&payload)?;
    }

    /// No proper prefix of a message decodes, and every prefix, every byte
    /// flip and a byte behind it decode as the oracle decodes them.
    #[test]
    fn wire_codec_torn_and_flipped_payloads_decode_like_the_oracle(
        message in message(),
        at in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let full = message.written();
        for cut in 0..full.len() {
            let torn = &full[..cut];
            prop_assert_eq!(decode_cluster_payload(&Bytes::copy_from_slice(torn)), None);
            prop_assert!(decode_event_with(Bytes::copy_from_slice(torn), TenantId::new).is_none());
            prop_assert_eq!(decode_notify_payload(torn, &reader()), None);
            prop_assert!(FilterChange::decode(torn).is_none());
            check(torn)?;
        }
        let mut raw = full.to_vec();
        raw[at as usize % full.len()] ^= flip;
        check(&raw)?;
        raw = full.to_vec();
        raw.push(flip);
        check(&raw)?;
    }

    /// Every addressee of a decoded envelope sees the one payload under its
    /// own id: the envelope's tenant, kind, trace and write time.
    #[test]
    fn wire_codec_addressees_see_the_same_change(envelope in envelope()) {
        let payload = Message::Notify(envelope.clone()).written();
        let Some(NotifyPayload::Envelope(decoded)) = decode_notify_payload(&payload, &reader()) else {
            return Err(TestCaseError::fail("the envelope does not decode".to_owned()));
        };
        let seen = decoded.into_notifications();
        prop_assert_eq!(
            seen.iter().map(|n| n.subscription).collect::<Vec<_>>(),
            envelope.subscriptions.clone()
        );
        for n in &seen {
            prop_assert_eq!(&n.tenant, &envelope.tenant);
            prop_assert_eq!(&n.kind, &envelope.kind);
            prop_assert_eq!(&n.trace, &envelope.trace);
            prop_assert_eq!(n.caused_by_write_at, envelope.caused_by_write_at);
        }
    }

    /// A field named twice, at the root or in any object below it, makes
    /// the payload no message.
    #[test]
    fn wire_codec_a_repeated_field_at_any_depth_is_rejected(message in message(), target in 0usize..12) {
        let payload = write_repeating(&message.document(), target);
        let lazy = LazyDoc::new(&payload).unwrap();
        prop_assert_eq!(repeats(LazyValue::Object(lazy.root())), target < objects(&message.document()));
        check(&payload)?;
    }

    /// A field reshaped anywhere — a container where a scalar is read, a
    /// field the message does not know — with a valid or an invalid
    /// string inside it, reads as the oracle reads it.
    #[test]
    fn wire_codec_odd_shapes_decode_like_the_oracle(
        message in message(),
        target in 0usize..8,
        field in 0usize..12,
        (extra, corrupt) in (any::<bool>(), any::<bool>()),
    ) {
        let d = reshape(&message.document(), &mut Some(target), field, extra);
        let mut payload = WireCodec.encode(&d).to_vec();
        if corrupt {
            if let Some(at) = payload.windows(MARK.len()).position(|w| w == MARK.as_bytes()) {
                payload[at] = 0xFF;
            }
        }
        check(&payload)?;
    }

    /// Integers written as integral floats read as the oracle reads them.
    #[test]
    fn wire_codec_integral_floats_decode_like_the_oracle(message in message()) {
        let Value::Object(d) = floats(Value::Object(message.document())) else { unreachable!() };
        check(&WireCodec.encode(&d))?;
    }

    /// A change envelope whose record is copied in as the bytes it arrived
    /// in is, byte for byte and as a document, the one written from the
    /// decoded record.
    #[test]
    fn wire_codec_a_spliced_record_writes_the_decoded_records_bytes(record in document()) {
        assert_spliced_like_decoded(&record);
    }
}

/// [`wire_codec_a_spliced_record_writes_the_decoded_records_bytes`] for
/// one record: encoded on its own, checked, and copied into a change
/// envelope.
fn assert_spliced_like_decoded(record: &Document) {
    let bytes = WireCodec.encode(record);
    let spliced = LazyDoc::new(&bytes).unwrap().root().check().unwrap();
    let key = Key::of("k");
    let tenant = reader();
    let envelope = |doc| EnvelopeRef {
        tenant: &tenant,
        subscriptions: &[SubscriptionId(1), SubscriptionId(2)],
        kind: KindRef::Change {
            match_type: MatchType::Change,
            item: ItemRef { key: &key, version: 3, doc: Some(doc), index: None },
            old_index: None,
        },
        caused_by_write_at: 9,
        trace: None,
    };
    let written = |envelope: EnvelopeRef<'_>| {
        let mut w = WireCodec.writer();
        envelope.write_to(&mut w);
        w.finish()
    };
    let (from_bytes, from_tree) = (envelope(DocRef::Encoded(&spliced)), envelope(DocRef::Tree(record)));
    assert_eq!(written(from_bytes.clone()), written(from_tree.clone()), "{record}");
    assert_eq!(from_bytes.to_document(), from_tree.to_document(), "{record}");
}

/// The spliced envelope on the shapes where bytes and tree could part: an
/// empty record, integral floats, nested arrays and strings past the
/// inline limit.
#[test]
fn wire_codec_spliced_records_of_every_shape_write_the_decoded_bytes() {
    let records = [
        Document::new(),
        invalidb::doc! { "f" => 3.0f64, "g" => -0.0f64, "i" => 3i64 },
        invalidb::doc! { "a" => vec![Value::from(vec![Value::Int(1), Value::Float(2.0)]), Value::Null] },
        invalidb::doc! { "s" => "x".repeat(23), "nested" => invalidb::doc! { "t" => "é".repeat(40) } },
    ];
    for record in &records {
        assert_spliced_like_decoded(record);
    }
}

/// A write whose record holds an invalid string, or names a field twice
/// three levels down, is no message to the ingress's decoders; nor is a
/// filter change whose record does.
#[test]
fn wire_codec_a_flaw_deep_inside_a_record_is_rejected_by_every_decoder() {
    let record = invalidb::doc! {
        "top" => 1i64,
        "a" => invalidb::doc! { "b" => invalidb::doc! { "c" => 1i64, "d" => MARK } },
    };
    let write = Message::Cluster(ClusterMessage::Write(AfterImage {
        tenant: TenantId::new("app"),
        collection: "items".into(),
        key: Key::of("k"),
        version: 2,
        doc: Some(record.clone()),
        written_at: 7,
        trace: None,
    }));
    let change = Message::Shuffle(FilterChange {
        query_hash: QueryHash(5),
        kind: FilterChangeKind::Add,
        image: Arc::new(AfterImage {
            tenant: TenantId::new("app"),
            collection: String::new(),
            key: Key::of("k"),
            version: 2,
            doc: Some(record),
            written_at: 7,
            trace: None,
        }),
        trace: None,
    });
    for message in [write, change] {
        let d = message.document();
        // The objects in writing order: the root, `doc`, `a`, `b`.
        let repeated = write_repeating(&d, 3);
        let mut invalid = WireCodec.encode(&d).to_vec();
        let at = invalid.windows(MARK.len()).position(|w| w == MARK.as_bytes()).unwrap();
        invalid[at] = 0xFF;
        for payload in [&repeated[..], &invalid[..]] {
            assert!(bin::decode_document(payload).is_err(), "{message:?}");
            assert_eq!(decode_cluster_payload(&Bytes::copy_from_slice(payload)), None);
            assert!(decode_event_with(Bytes::copy_from_slice(payload), TenantId::new).is_none());
            assert!(FilterChange::decode(payload).is_none());
            check(payload).unwrap();
        }
        assert!(check(&message.written()).is_ok());
    }
}

/// The non-empty objects of `d`, itself included.
fn objects(d: &Document) -> usize {
    fn of(v: &Value) -> usize {
        match v {
            Value::Object(d) => objects(d),
            Value::Array(items) => items.iter().map(of).sum(),
            _ => 0,
        }
    }
    usize::from(!d.is_empty()) + d.iter().map(|(_, v)| of(v)).sum::<usize>()
}

/// Records of string values across the inline boundary, the document whose
/// bytes `json/tests/field_names.rs` pins: carried by every message kind
/// that carries a record, they decode back, as the oracle decodes them,
/// torn anywhere.
#[test]
fn wire_codec_pinned_string_records_survive_every_message_kind() {
    let record = invalidb::doc! {
        "s0" => "",
        "s1" => "a",
        "s22" => "x".repeat(22),
        "s23" => "x".repeat(23),
        "s64" => "y".repeat(64),
        "mb" => format!("{}é", "x".repeat(21)),
        "esc" => "a\"b\\c\n\u{1}",
        "nested" => invalidb::doc! {
            "_id" => "k000123",
            "arr" => vec![Value::from("é".repeat(11)), Value::Int(7)],
        },
    };
    let item =
        ResultItem { index: Some(0), ..ResultItem::new(Key::of("é".repeat(11)), 3, record.clone()) };
    let spec =
        QuerySpec::filter("items", record.clone()).sorted_by("s1", SortDirection::Asc).with_limit(10);
    let messages = [
        Message::Cluster(ClusterMessage::Write(AfterImage {
            tenant: TenantId::new("app"),
            collection: "items".into(),
            key: Key::of("x".repeat(23)),
            version: 4,
            doc: Some(record),
            written_at: 9,
            trace: None,
        })),
        Message::Cluster(ClusterMessage::Subscribe(SubscriptionRequest {
            tenant: TenantId::new("app"),
            subscription: SubscriptionId(1),
            query_hash: spec.stable_hash(),
            spec,
            initial: vec![item.clone(), item.clone()],
            slack: 3,
            ttl_micros: 60_000_000,
            renewal: false,
        })),
        Message::Notify(NotifyEnvelope {
            tenant: reader(),
            subscriptions: vec![SubscriptionId(1)],
            kind: NotificationKind::InitialResult { items: vec![item.clone()] },
            caused_by_write_at: 0,
            trace: None,
        }),
        Message::Notify(NotifyEnvelope {
            tenant: reader(),
            subscriptions: vec![SubscriptionId(1), SubscriptionId(2)],
            kind: NotificationKind::Change(ChangeItem {
                match_type: MatchType::Add,
                item,
                old_index: None,
            }),
            caused_by_write_at: 9,
            trace: None,
        }),
    ];
    for message in messages {
        let payload = message.written();
        assert_eq!(payload, WireCodec.encode(&message.document()), "{message:?}");
        for cut in 0..=payload.len() {
            check(&payload[..cut]).unwrap();
        }
    }
}
