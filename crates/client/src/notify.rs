//! Decoding what arrives on a notify topic: one typed decoder for every
//! payload there.
//!
//! Nearly every payload is a change envelope: one transition of one query,
//! addressed to every subscription that shares it. The dispatcher decodes
//! it once, in one pass over a borrowed [`LazyDoc`] view, and materializes
//! only what the [`NotifyEnvelope`] keeps — the id list (straight into the
//! dispatcher's reused `Vec`, through [`decode_notify_into`]), an item's key
//! and record, an initial result's records, the trace. No document of the
//! envelope or of its items is built on the way.
//!
//! Contract, as for the cluster topic at the ingress: a payload decodes to
//! exactly what `NotifyEnvelope::from_document(payload_to_document(..))`
//! returns (a heartbeat, to a heartbeat), or to `None` where that fails.
//! The notifier never repeats a field, so a payload that does is
//! malformed, to this decoder and that one alike.

use invalidb_common::{
    ChangeItem, EpochNotice, MaintenanceError, MatchType, NotificationKind, NotifyEnvelope,
    SubscriptionId, TenantId,
};
use invalidb_json::{wire, LazyDoc, LazyValue};

/// What a payload on a notify topic turns out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum NotifyPayload {
    /// The cluster's liveness ping.
    Heartbeat,
    /// A notification, addressed to some of the reader's subscriptions.
    Envelope(NotifyEnvelope),
}

/// Decodes one payload read off the epoch topic, in one pass: `None` for
/// anything but an object of an integer `epoch` and `reassigned` (and
/// well-formed fields besides).
pub fn decode_epoch_notice(payload: &[u8]) -> Option<EpochNotice> {
    let [epoch, reassigned] = LazyDoc::new(payload).ok()?.fields(["epoch", "reassigned"]).ok()?;
    Some(EpochNotice { epoch: epoch?.as_i64()? as u64, reassigned: reassigned?.as_i64()? as u64 })
}

/// Decodes one payload read off `tenant`'s notify topic, once — what an
/// app server's dispatcher does with everything it receives. `None` for a
/// payload that is neither a heartbeat nor an envelope.
pub fn decode_notify_payload(payload: &[u8], tenant: &TenantId) -> Option<NotifyPayload> {
    decode_notify_into(payload, tenant, &mut Vec::new())
}

/// [`decode_notify_payload`] for a reader that decodes envelope after
/// envelope (the dispatcher): the addressees are read into `addressees`,
/// cleared first, and the envelope takes that buffer. Handed back once the
/// envelope is delivered, it serves the next one, so the address list
/// allocates nothing in the steady state. An envelope that names the
/// reader's tenant — all of them, unless the topic is misused — shares
/// `reader`'s id instead of allocating its own.
pub fn decode_notify_into(
    payload: &[u8],
    reader: &TenantId,
    addressees: &mut Vec<SubscriptionId>,
) -> Option<NotifyPayload> {
    let lazy = LazyDoc::new(payload).ok()?;
    let [kind] = lazy.root().find(["type"]).ok()?;
    // Each kind reads the envelope's four fields and its own; `fields`
    // checks the rest.
    let (head, kind) = match kind?.as_str()? {
        "heartbeat" => {
            // The notifier's `{type, tenant}` is read without materializing.
            let [_, tenant] = lazy.fields(["type", "tenant"]).ok()?;
            tenant.map(LazyValue::checked).transpose().ok()?;
            return Some(NotifyPayload::Heartbeat);
        }
        "initial" => {
            let [tenant, ids, write_at, _, trace, items] =
                lazy.fields(["tenant", "subscriptions", "writeAt", "type", "trace", "items"]).ok()?;
            let LazyValue::Array(items) = items? else { return None };
            let mut result = Vec::with_capacity(items.len().ok()?);
            for item in items.items() {
                result.push(wire::item(item.ok()?)?);
            }
            ([tenant, ids, write_at, trace], NotificationKind::InitialResult { items: result })
        }
        "error" => {
            let [tenant, ids, write_at, _, trace, error] =
                lazy.fields(["tenant", "subscriptions", "writeAt", "type", "trace", "error"]).ok()?;
            let reason = wire::optional(error, LazyValue::as_str)?.unwrap_or("unknown").to_owned();
            ([tenant, ids, write_at, trace], NotificationKind::Error(MaintenanceError { reason }))
        }
        change => {
            let match_type = MatchType::parse_str(change)?;
            let names = ["tenant", "subscriptions", "writeAt", "type", "trace", "item", "oldIndex"];
            let [tenant, ids, write_at, _, trace, item, old_index] = lazy.fields(names).ok()?;
            let old_index = wire::optional(old_index, LazyValue::as_i64)?.map(|i| i as u64);
            let change = ChangeItem { match_type, item: wire::item(item?)?, old_index };
            ([tenant, ids, write_at, trace], NotificationKind::Change(change))
        }
    };
    let [tenant, ids, write_at, trace] = head;
    let tenant = match tenant?.as_str()? {
        name if name == reader.as_str() => reader.clone(),
        name => TenantId::new(name),
    };
    let LazyValue::Array(ids) = ids? else { return None };
    addressees.clear();
    addressees.reserve(ids.len().ok()?);
    for id in ids.items() {
        addressees.push(SubscriptionId(id.ok()?.as_i64()? as u64));
    }
    Some(NotifyPayload::Envelope(NotifyEnvelope {
        tenant,
        caused_by_write_at: wire::optional(write_at, LazyValue::as_i64)?.unwrap_or(0) as u64,
        trace: wire::trace(trace)?,
        kind,
        subscriptions: std::mem::take(addressees),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use invalidb_common::{doc, Document, FieldWriter, Key, ResultItem, Stage, TraceContext, Value};
    use invalidb_json::WireCodec;

    fn tenant() -> TenantId {
        TenantId::new("app")
    }

    /// The oracle: the whole payload as a document, then a heartbeat or
    /// the envelope taken out of it.
    fn oracle(payload: &[u8]) -> Option<NotifyPayload> {
        let d = invalidb_json::bin::decode_document(payload).ok()?;
        if d.get("type").and_then(Value::as_str) == Some("heartbeat") {
            return Some(NotifyPayload::Heartbeat);
        }
        NotifyEnvelope::from_document(d).ok().map(NotifyPayload::Envelope)
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
        ]
    }

    fn written(envelope: &NotifyEnvelope) -> Bytes {
        let mut w = WireCodec.writer();
        envelope.as_ref().write_to(&mut w);
        w.finish()
    }

    /// `decode_notify_payload` agrees with the oracle on `payload` and on
    /// every truncation of it.
    fn assert_agrees(payload: &[u8]) {
        assert_eq!(decode_notify_payload(payload, &tenant()), oracle(payload), "{payload:?}");
        for cut in 0..payload.len() {
            let torn = &payload[..cut];
            assert_eq!(decode_notify_payload(torn, &tenant()), oracle(torn), "cut at {cut}");
        }
    }

    #[test]
    fn every_kind_decodes_like_the_oracle() {
        for envelope in envelopes() {
            let payload = written(&envelope);
            assert_eq!(
                decode_notify_payload(&payload, &tenant()),
                Some(NotifyPayload::Envelope(envelope.clone()))
            );
            assert_agrees(&payload);
        }
        let heartbeat = WireCodec.encode(&doc! { "type" => "heartbeat", "tenant" => "app" });
        assert_eq!(decode_notify_payload(&heartbeat, &tenant()), Some(NotifyPayload::Heartbeat));
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

    /// The notifier never repeats a field: a payload that does is no
    /// envelope and no heartbeat, whichever field repeats.
    #[test]
    fn a_repeated_field_is_rejected() {
        let d = change_document();
        for (key, first) in [
            ("type", Value::from("remove")),
            ("type", Value::from("heartbeat")),
            ("item", Value::Null),
            ("subscriptions", Value::Array(vec![Value::Int(99)])),
            ("tenant", Value::from("other")),
            ("extra", Value::Null),
        ] {
            let mut payload = with_duplicate(&d, key, first.clone());
            if key == "extra" {
                payload =
                    with_duplicate(&doc! { "extra" => Value::Null, "type" => "error" }, key, first);
            }
            assert_eq!(decode_notify_payload(&payload, &tenant()), None, "{key} twice");
            assert_eq!(oracle(&payload), None, "{key} twice");
        }
        let heartbeat = with_duplicate(&doc! { "type" => "heartbeat" }, "type", Value::from("add"));
        assert_eq!(decode_notify_payload(&heartbeat, &tenant()), None);
        // Inside the item, too.
        let mut w = WireCodec.writer();
        w.begin_object(5);
        w.key("tenant");
        w.str("app");
        w.key("subscriptions");
        w.begin_array(1);
        w.int(1);
        w.end_array();
        w.key("writeAt");
        w.int(0);
        w.key("type");
        w.str("add");
        w.key("item");
        w.begin_object(4);
        for (key, value) in [("key", 1), ("version", 2), ("index", 3), ("index", 4)] {
            w.key(key);
            w.int(value);
        }
        w.end_object();
        w.end_object();
        let payload = w.finish();
        assert_eq!(decode_notify_payload(&payload, &tenant()), None);
        assert_eq!(oracle(&payload), None);
    }

    #[test]
    fn odd_shapes_decode_like_the_oracle() {
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
            assert_agrees(&WireCodec.encode(&d));
        }
        // Bytes behind the envelope: the oracle refuses them.
        let mut trailing = written(&envelopes()[0]).to_vec();
        trailing.push(0);
        assert_eq!(decode_notify_payload(&trailing, &tenant()), None);
        assert_agrees(&trailing);
    }
}
