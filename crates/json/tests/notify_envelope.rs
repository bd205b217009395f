//! Property-based tests for the notify-topic envelope: the borrowed writer
//! and the document encoder agree byte for byte, every envelope shape
//! round-trips (multicast list, list of one, removes with a null doc,
//! traced), and torn or corrupted envelopes never panic the decoder.

use bytes::Bytes;
use invalidb_common::{
    ChangeItem, Document, Key, MaintenanceError, MatchType, NotificationKind, NotifyEnvelope,
    ResultItem, Stage, SubscriptionId, TenantId, TraceContext, Value,
};
use invalidb_json::{payload_to_document, WireCodec};
use proptest::prelude::*;

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
        "\\PC{0,12}".prop_map(Value::String),
    ]
}

fn document() -> impl Strategy<Value = Document> {
    let nested = prop::collection::vec(("\\PC{1,8}", scalar()), 0..4)
        .prop_map(|pairs| Value::Object(pairs.into_iter().collect::<Document>()));
    let field =
        prop_oneof![scalar(), prop::collection::vec(scalar(), 0..4).prop_map(Value::Array), nested];
    prop::collection::vec(("\\PC{1,8}", field), 0..6).prop_map(|pairs| pairs.into_iter().collect())
}

fn item() -> impl Strategy<Value = ResultItem> {
    (scalar(), any::<u32>(), optional(document()), optional(0u64..1_000)).prop_map(
        |(key, version, doc, index)| ResultItem { key: Key(key), version: version as u64, doc, index },
    )
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

fn trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), 0u64..1_000_000).prop_map(|(id, at)| {
        let mut trace = TraceContext { trace_id: id, stamps: Vec::new() };
        trace.stamp_at(Stage::AppServer, at);
        trace.stamp_worker(Stage::Matching, "w1", 3);
        trace.stamp_at(Stage::Notifier, at + 40);
        trace
    })
}

/// Envelopes addressing none, one or many subscriptions.
fn envelope() -> impl Strategy<Value = NotifyEnvelope> {
    (
        "\\PC{1,8}",
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

fn written(envelope: &NotifyEnvelope) -> Bytes {
    let mut w = WireCodec.writer();
    envelope.as_ref().write_to(&mut w);
    w.finish()
}

fn decoded(payload: &Bytes) -> Option<NotifyEnvelope> {
    NotifyEnvelope::from_document(payload_to_document(payload).ok()?).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The notifier's borrowed encode and the document encode are the same
    /// bytes, and those bytes decode back to the envelope.
    #[test]
    fn written_envelope_equals_encoded_document_and_roundtrips(envelope in envelope()) {
        let payload = written(&envelope);
        prop_assert_eq!(&payload, &WireCodec.encode(&envelope.as_ref().to_document()));
        prop_assert_eq!(decoded(&payload), Some(envelope));
    }

    /// Every addressee sees the one payload under its own id.
    #[test]
    fn addressees_see_the_same_change(envelope in envelope()) {
        let seen = decoded(&written(&envelope)).unwrap().into_notifications();
        prop_assert_eq!(
            seen.iter().map(|n| n.subscription).collect::<Vec<_>>(),
            envelope.subscriptions.clone()
        );
        for n in &seen {
            prop_assert_eq!(&n.kind, &envelope.kind);
            prop_assert_eq!(&n.trace, &envelope.trace);
            prop_assert_eq!(n.caused_by_write_at, envelope.caused_by_write_at);
        }
    }

    /// No proper prefix of an envelope decodes, and none panics.
    #[test]
    fn truncated_envelopes_error_never_panic(envelope in envelope()) {
        let full = written(&envelope);
        for cut in 0..full.len() {
            let torn = Bytes::copy_from_slice(&full[..cut]);
            prop_assert!(decoded(&torn).is_none(), "prefix of {} bytes decoded", cut);
        }
    }

    /// A flipped byte may or may not still be an envelope; it never panics.
    #[test]
    fn corrupted_envelopes_never_panic(envelope in envelope(), at in any::<u16>(), flip in 1u8..=255) {
        let mut raw = written(&envelope).to_vec();
        let at = at as usize % raw.len();
        raw[at] ^= flip;
        let _ = decoded(&Bytes::from(raw));
    }
}
