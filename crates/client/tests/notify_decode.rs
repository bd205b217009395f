//! Property tests for the dispatcher's decode: on every envelope the
//! notifier can write, and on every truncation or corruption of one,
//! `decode_notify_payload` answers exactly what the eager decoder answers
//! (`LazyDoc::materialize` followed by `NotifyEnvelope::from_document_for`,
//! after the heartbeat sniff).

use bytes::Bytes;
use invalidb_client::{decode_notify_payload, NotifyPayload};
use invalidb_common::{
    ChangeItem, Document, Key, MaintenanceError, MatchType, NotificationKind, NotifyEnvelope,
    ResultItem, Stage, SubscriptionId, TenantId, TraceContext, Value,
};
use invalidb_json::{LazyDoc, WireCodec};
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

fn reader() -> TenantId {
    TenantId::new("app")
}

fn written(envelope: &NotifyEnvelope) -> Bytes {
    let mut w = WireCodec.writer();
    envelope.as_ref().write_to(&mut w);
    w.finish()
}

/// The eager decoder: the heartbeat sniff, then the whole payload as a
/// document and the envelope taken out of it.
fn eager(payload: &[u8]) -> Option<NotifyPayload> {
    let lazy = LazyDoc::new(payload).ok()?;
    if matches!(lazy.get("type"), Ok(Some(v)) if v.as_str() == Some("heartbeat")) {
        return Some(NotifyPayload::Heartbeat);
    }
    let d = lazy.materialize().ok()?;
    NotifyEnvelope::from_document_for(d, &reader()).ok().map(NotifyPayload::Envelope)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every envelope decodes to itself, as the eager decoder has it.
    #[test]
    fn decodes_like_the_eager_decoder(envelope in envelope()) {
        let payload = written(&envelope);
        let decoded = decode_notify_payload(&payload, &reader());
        prop_assert_eq!(&decoded, &eager(&payload));
        prop_assert_eq!(decoded, Some(NotifyPayload::Envelope(envelope)));
    }

    /// Every prefix of an envelope gets the eager decoder's answer.
    #[test]
    fn truncations_decode_like_the_eager_decoder(envelope in envelope()) {
        let full = written(&envelope);
        for cut in 0..full.len() {
            let torn = &full[..cut];
            prop_assert_eq!(decode_notify_payload(torn, &reader()), eager(torn), "cut at {}", cut);
        }
    }

    /// A byte behind an envelope makes it no envelope, to both decoders.
    #[test]
    fn trailing_bytes_decode_like_the_eager_decoder(envelope in envelope(), extra in any::<u8>()) {
        let mut raw = written(&envelope).to_vec();
        raw.push(extra);
        prop_assert_eq!(decode_notify_payload(&raw, &reader()), eager(&raw));
    }

    /// A flipped byte may leave an envelope, a heartbeat or nothing; either
    /// way both decoders say the same.
    #[test]
    fn corruptions_decode_like_the_eager_decoder(
        envelope in envelope(),
        at in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let mut raw = written(&envelope).to_vec();
        let at = at as usize % raw.len();
        raw[at] ^= flip;
        prop_assert_eq!(decode_notify_payload(&raw, &reader()), eager(&raw));
    }
}
