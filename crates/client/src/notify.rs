//! Decoding what arrives on a notify topic.
//!
//! Nearly every payload there is a change envelope: one transition of one
//! query, addressed to every subscription that shares it. The dispatcher
//! decodes it once, and [`decode_notify_payload`] makes that one decode
//! cheap: it walks the envelope once through a borrowed [`LazyDoc`] view and
//! materializes only what the [`NotifyEnvelope`] keeps — the id list
//! (straight into its `Vec`), the item's key and document, and the trace.
//! No document of the envelope or of its item is built on the way, and a
//! heartbeat is recognized in the same pass. Initial results, errors and
//! aggregates (rare, and dominated by what they carry) and anything
//! malformed bow out to the eager decoder.
//!
//! Equivalence contract, as for write envelopes at the ingress: for every
//! payload the lazy pass either produces exactly what the eager decoder
//! would, or bows out and lets the eager decoder run. It takes only the
//! shapes the notifier writes — no field twice, no field it does not know —
//! so that every byte of an envelope it accepts has been validated the way
//! the eager decoder validates it.

use invalidb_common::{
    ChangeItem, Key, MatchType, NotificationKind, NotifyEnvelope, ResultItem, SubscriptionId, TenantId,
    TraceContext, Version,
};
use invalidb_json::{LazyDoc, LazyObject, LazyValue};

/// What a payload on a notify topic turns out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum NotifyPayload {
    /// The cluster's liveness ping.
    Heartbeat,
    /// A notification, addressed to some of the reader's subscriptions.
    Envelope(NotifyEnvelope),
}

/// Decodes one payload read off `tenant`'s notify topic, once — what an
/// app server's dispatcher does with everything it receives. `None` for a
/// payload that is neither a heartbeat nor an envelope.
pub fn decode_notify_payload(payload: &[u8], tenant: &TenantId) -> Option<NotifyPayload> {
    let lazy = LazyDoc::new(payload).ok()?;
    if let Some(decoded) = decode_lazily(lazy, payload.len(), tenant) {
        return Some(decoded);
    }
    decode_eagerly(lazy, tenant)
}

/// The eager decoder: the whole payload as a document, then the envelope
/// taken out of it. A heartbeat is sniffed first so that it never
/// materializes a document just to be discarded.
fn decode_eagerly(lazy: LazyDoc<'_>, tenant: &TenantId) -> Option<NotifyPayload> {
    if matches!(lazy.get("type"), Ok(Some(v)) if v.as_str() == Some("heartbeat")) {
        return Some(NotifyPayload::Heartbeat);
    }
    let d = lazy.materialize().ok()?;
    NotifyEnvelope::from_document_for(d, tenant).ok().map(NotifyPayload::Envelope)
}

/// The envelope's fields as borrowed windows, as one pass over it found
/// them.
#[derive(Default)]
struct Fields<'a> {
    tenant: Option<LazyValue<'a>>,
    subscriptions: Option<LazyValue<'a>>,
    write_at: Option<LazyValue<'a>>,
    kind: Option<LazyValue<'a>>,
    item: Option<LazyValue<'a>>,
    old_index: Option<LazyValue<'a>>,
    trace: Option<LazyValue<'a>>,
}

impl<'a> Fields<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<LazyValue<'a>>> {
        Some(match key {
            "tenant" => &mut self.tenant,
            "subscriptions" => &mut self.subscriptions,
            "writeAt" => &mut self.write_at,
            "type" => &mut self.kind,
            "item" => &mut self.item,
            "oldIndex" => &mut self.old_index,
            "trace" => &mut self.trace,
            _ => return None,
        })
    }
}

/// The lazy pass. `None` means "not a heartbeat or a change envelope in
/// the notifier's shape": the caller falls back to the eager decoder.
fn decode_lazily(lazy: LazyDoc<'_>, len: usize, reader: &TenantId) -> Option<NotifyPayload> {
    let mut fields = Fields::default();
    // A field seen twice or one the notifier never writes: the eager
    // decoder validates what this pass would skip.
    let mut unusual = false;
    let mut entries = lazy.root().entries();
    for entry in entries.by_ref() {
        let (key, value) = entry.ok()?;
        match fields.slot(key) {
            // Later duplicates overwrite, the eager decoder's last-wins rule.
            Some(slot) => unusual |= slot.replace(value).is_some(),
            None => unusual = true,
        }
    }
    let kind = fields.kind?.as_str()?;
    if kind == "heartbeat" {
        return Some(NotifyPayload::Heartbeat);
    }
    if unusual || entries.offset() != len {
        return None;
    }
    let match_type = MatchType::parse_str(kind)?;
    let tenant = match fields.tenant?.as_str()? {
        name if name == reader.as_str() => reader.clone(),
        name => TenantId::new(name),
    };
    let caused_by_write_at = integer(fields.write_at)?.unwrap_or(0) as u64;
    let old_index = integer(fields.old_index)?.map(|i| i as u64);
    let LazyValue::Array(ids) = fields.subscriptions? else { return None };
    let mut subscriptions = Vec::with_capacity(ids.len().ok()?);
    for id in ids.items() {
        subscriptions.push(SubscriptionId(id.ok()?.as_i64()? as u64));
    }
    let LazyValue::Object(item) = fields.item? else { return None };
    let item = decode_item(item)?;
    let trace = match fields.trace {
        None => None,
        Some(LazyValue::Object(trace)) => {
            Some(TraceContext::from_document(&trace.materialize().ok()?).ok()?)
        }
        Some(_) => return None,
    };
    Some(NotifyPayload::Envelope(NotifyEnvelope {
        tenant,
        subscriptions,
        kind: NotificationKind::Change(ChangeItem { match_type, item, old_index }),
        caused_by_write_at,
        trace,
    }))
}

/// An optional integer field: `Some(None)` when absent, `None` (bow out)
/// when present but not an integer.
fn integer(field: Option<LazyValue<'_>>) -> Option<Option<i64>> {
    match field {
        None => Some(None),
        Some(v) => v.as_i64().map(Some),
    }
}

/// A change's item, in the notifier's shape (`key`, `version`, `doc` and
/// `index`, each at most once).
fn decode_item(item: LazyObject<'_>) -> Option<ResultItem> {
    let (mut key, mut version, mut doc, mut index) = (None, None, None, None);
    for entry in item.entries() {
        let (name, value) = entry.ok()?;
        let slot = match name {
            "key" => &mut key,
            "version" => &mut version,
            "doc" => &mut doc,
            "index" => &mut index,
            _ => return None,
        };
        if slot.replace(value).is_some() {
            return None;
        }
    }
    let version = version?.as_i64()? as Version;
    let index = integer(index)?.map(|i| i as u64);
    let doc = match doc {
        None | Some(LazyValue::Null) => None,
        Some(LazyValue::Object(doc)) => Some(doc.materialize().ok()?),
        Some(_) => return None,
    };
    let key = Key(key?.materialize().ok()?);
    Some(ResultItem { key, version, doc, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use invalidb_common::{doc, Document, MaintenanceError, Stage, Value};
    use invalidb_json::WireCodec;

    fn tenant() -> TenantId {
        TenantId::new("app")
    }

    /// The eager decoder alone, without the lazy pass in front of it
    /// (`tests/notify_decode.rs` spells it out from public parts).
    fn eager(payload: &[u8]) -> Option<NotifyPayload> {
        decode_eagerly(LazyDoc::new(payload).ok()?, &tenant())
    }

    fn change(match_type: MatchType, item: ResultItem, old_index: Option<u64>) -> NotificationKind {
        NotificationKind::Change(ChangeItem { match_type, item, old_index })
    }

    fn item(index: Option<u64>) -> ResultItem {
        ResultItem {
            key: Key::of("k1"),
            version: 4,
            doc: Some(doc! { "n" => 7i64, "s" => "text", "tags" => vec![Value::from("a")] }),
            index,
        }
    }

    fn traced() -> TraceContext {
        let mut trace = TraceContext { trace_id: 11, stamps: Vec::new() };
        trace.stamp_at(Stage::AppServer, 10);
        trace.stamp_worker(Stage::Matching, "w1", 2);
        trace.stamp_at(Stage::Notifier, 40);
        trace
    }

    fn envelope(subscriptions: Vec<u64>, kind: NotificationKind) -> NotifyEnvelope {
        NotifyEnvelope {
            tenant: tenant(),
            subscriptions: subscriptions.into_iter().map(SubscriptionId).collect(),
            kind,
            caused_by_write_at: 1_234,
            trace: None,
        }
    }

    /// Every kind the notifier writes, in the shapes it writes them.
    fn envelopes() -> Vec<NotifyEnvelope> {
        let removed = ResultItem { key: Key::of(9i64), version: 2, doc: None, index: None };
        vec![
            envelope(vec![1], change(MatchType::Add, item(None), None)),
            envelope(vec![1], change(MatchType::Change, item(None), None)),
            envelope(vec![1], change(MatchType::ChangeIndex, item(Some(3)), Some(5))),
            envelope(vec![1], change(MatchType::Remove, removed, Some(0))),
            envelope(vec![1], change(MatchType::Add, item(Some(0)), None)),
            NotifyEnvelope {
                trace: Some(traced()),
                ..envelope(vec![2], change(MatchType::Add, item(None), None))
            },
            envelope(
                vec![3, 1, u64::MAX, i64::MAX as u64 + 1, 0],
                change(MatchType::Add, item(None), None),
            ),
            envelope(vec![], change(MatchType::Remove, item(None), None)),
            NotifyEnvelope {
                tenant: TenantId::new("other"),
                ..envelope(vec![1], change(MatchType::Add, item(None), None))
            },
            envelope(
                vec![1],
                NotificationKind::InitialResult { items: vec![item(Some(0)), item(Some(1))] },
            ),
            envelope(vec![1], NotificationKind::Error(MaintenanceError { reason: "slack".into() })),
            envelope(vec![1], NotificationKind::Aggregate { value: Value::Float(4.5), count: 3 }),
        ]
    }

    fn written(envelope: &NotifyEnvelope) -> Bytes {
        let mut w = WireCodec.writer();
        envelope.as_ref().write_to(&mut w);
        w.finish()
    }

    /// `decode_notify_payload` agrees with the eager decoder on `payload`
    /// and on every truncation of it.
    fn assert_agrees(payload: &[u8]) {
        assert_eq!(decode_notify_payload(payload, &tenant()), eager(payload), "{payload:?}");
        for cut in 0..payload.len() {
            let torn = &payload[..cut];
            assert_eq!(decode_notify_payload(torn, &tenant()), eager(torn), "cut at {cut}");
        }
    }

    #[test]
    fn every_kind_decodes_like_the_eager_decoder() {
        for envelope in envelopes() {
            let payload = written(&envelope);
            assert_eq!(
                decode_notify_payload(&payload, &tenant()),
                Some(NotifyPayload::Envelope(envelope.clone()))
            );
            assert_agrees(&payload);
        }
    }

    #[test]
    fn changes_take_the_lazy_path_and_the_rest_bow_out() {
        for envelope in envelopes() {
            let payload = written(&envelope);
            let lazy = decode_lazily(LazyDoc::new(&payload).unwrap(), payload.len(), &tenant());
            let is_change = matches!(envelope.kind, NotificationKind::Change(_));
            assert_eq!(lazy.is_some(), is_change, "{envelope:?}");
        }
        let heartbeat = WireCodec.encode(&doc! { "type" => "heartbeat", "tenant" => "app" });
        let lazy = decode_lazily(LazyDoc::new(&heartbeat).unwrap(), heartbeat.len(), &tenant());
        assert_eq!(lazy, Some(NotifyPayload::Heartbeat));
        assert_agrees(&heartbeat);
    }

    /// A change envelope as a document, for hand-made variations.
    fn change_document() -> Document {
        envelope(vec![5, 6], change(MatchType::ChangeIndex, item(Some(1)), Some(2)))
            .as_ref()
            .to_document()
    }

    #[test]
    fn integers_encoded_as_floats_decode_alike() {
        let mut d = change_document();
        d.insert("subscriptions", vec![Value::Float(5.0), Value::Int(6)]);
        d.insert("writeAt", 1_234.0f64);
        d.insert("oldIndex", 2.0f64);
        if let Some(Value::Object(item)) = d.get_mut("item") {
            item.insert("version", 4.0f64);
            item.insert("index", 1.0f64);
        }
        let payload = WireCodec.encode(&d);
        let expected = envelope(vec![5, 6], change(MatchType::ChangeIndex, item(Some(1)), Some(2)));
        assert_eq!(decode_notify_payload(&payload, &tenant()), Some(NotifyPayload::Envelope(expected)));
        assert_agrees(&payload);
        // A fractional one is no integer, to either decoder.
        d.insert("oldIndex", 2.5f64);
        assert_agrees(&WireCodec.encode(&d));
    }

    /// Hand-built payload with one root field written twice.
    fn with_duplicate(d: &Document, key: &str, first: Value) -> Vec<u8> {
        let mut dup = Document::new();
        dup.insert(key, first);
        let mut bytes = WireCodec.encode(&dup).to_vec();
        let body = WireCodec.encode(d);
        // Entry count: the duplicate plus the document's own (both < 128).
        bytes[5] = 1 + body[5];
        bytes.extend_from_slice(&body[6..]);
        bytes
    }

    #[test]
    fn duplicate_fields_resolve_last_wins_like_the_eager_decoder() {
        let d = change_document();
        for (key, first) in [
            ("type", Value::from("remove")),
            ("type", Value::from("heartbeat")),
            ("item", Value::Null),
            ("subscriptions", Value::Array(vec![Value::Int(99)])),
            ("tenant", Value::from("other")),
        ] {
            let payload = with_duplicate(&d, key, first);
            assert_eq!(
                decode_notify_payload(&payload, &tenant()),
                Some(NotifyPayload::Envelope(NotifyEnvelope::from_document(d.clone()).unwrap())),
                "{key} twice"
            );
            assert_agrees(&payload);
        }
        // A first copy the eager decoder refuses (bad UTF-8 where a lazy
        // walk only skips): no envelope, to either decoder.
        let mut corrupt = with_duplicate(&d, "item", Value::Object(doc! { "s" => "~" }));
        let at = corrupt.iter().position(|b| *b == b'~').unwrap();
        corrupt[at] = 0xFF;
        assert_eq!(decode_notify_payload(&corrupt, &tenant()), None);
        assert_agrees(&corrupt);
        // The last `type` decides whether it is a heartbeat.
        let heartbeat = with_duplicate(&doc! { "type" => "heartbeat" }, "type", Value::from("add"));
        assert_eq!(decode_notify_payload(&heartbeat, &tenant()), Some(NotifyPayload::Heartbeat));
        assert_agrees(&heartbeat);
    }

    #[test]
    fn odd_shapes_bow_out_to_the_same_answer() {
        let base = change_document();
        let mut cases = Vec::new();
        let mut with = |key: &str, value: Value| {
            let mut d = base.clone();
            d.insert(key, value);
            cases.push(d);
        };
        with("extra", Value::from("field"));
        with("trace", Value::from("not an object"));
        with("trace", Value::Object(doc! { "id" => 1i64 }));
        with("writeAt", Value::from("soon"));
        with("oldIndex", Value::Null);
        with("subscriptions", Value::Int(5));
        with("subscriptions", Value::Array(vec![Value::from("x")]));
        with("item", Value::from("k"));
        with("type", Value::from("weird"));
        with("type", Value::Int(1));
        with("tenant", Value::Int(1));
        for (field, value) in [
            ("doc", Value::Int(1)),
            ("version", Value::from("v")),
            ("index", Value::from("i")),
            ("extra", Value::Null),
        ] {
            let mut item = base.get("item").and_then(Value::as_object).unwrap().clone();
            item.insert(field, value);
            with("item", Value::Object(item));
        }
        let mut keyless = base.clone();
        if let Some(Value::Object(item)) = keyless.get_mut("item") {
            item.remove("key");
        }
        cases.push(keyless);
        let mut untyped = base.clone();
        untyped.remove("type");
        cases.push(untyped);
        for d in cases {
            let payload = WireCodec.encode(&d);
            assert_eq!(
                decode_lazily(LazyDoc::new(&payload).unwrap(), payload.len(), &tenant()),
                None,
                "{d:?}"
            );
            assert_agrees(&payload);
        }
        // Bytes behind the envelope: the eager decoder refuses them.
        let mut trailing = written(&envelopes()[0]).to_vec();
        trailing.push(0);
        assert_eq!(decode_notify_payload(&trailing, &tenant()), None);
        assert_agrees(&trailing);
    }
}
