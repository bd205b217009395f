//! Property-based tests for the write envelope on the cluster topic: the
//! borrowed single-pass writer an application server
//! uses and the document encoder agree byte for byte (with and without a
//! trace, deletes included), the bytes decode back to the after-image at the
//! cluster's ingress, and torn or corrupted envelopes never panic it.

use bytes::Bytes;
use invalidb_common::{AfterImage, ClusterMessage, Document, Key, Stage, TenantId, TraceContext, Value};
use invalidb_core::ingest::decode_cluster_payload;
use invalidb_json::WireCodec;
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

fn trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), 0u64..1_000_000).prop_map(|(id, at)| {
        let mut trace = TraceContext { trace_id: id, stamps: Vec::new() };
        trace.stamp_at(Stage::AppServer, at);
        trace
    })
}

/// Inserts, updates and deletes (`doc: None`), traced or not.
fn after_image() -> impl Strategy<Value = AfterImage> {
    (
        ("\\PC{1,8}", "\\PC{1,8}", scalar(), any::<u32>()),
        (optional(document()), 0u64..(i64::MAX as u64), optional(trace())),
    )
        .prop_map(|((tenant, collection, key, version), (doc, written_at, trace))| AfterImage {
            tenant: TenantId::new(&tenant),
            collection,
            key: Key(key),
            version: version as u64,
            doc,
            written_at,
            trace,
        })
}

fn written(image: &AfterImage) -> Bytes {
    let mut w = WireCodec.writer();
    image.as_ref().write_to(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The app server's borrowed encode and the document encode are the
    /// same bytes, and the ingress decodes them back to the after-image.
    #[test]
    fn written_envelope_equals_encoded_document_and_roundtrips(image in after_image()) {
        let message = ClusterMessage::Write(image.clone());
        let payload = written(&image);
        prop_assert_eq!(&payload, &WireCodec.encode(&message.to_document()));
        prop_assert_eq!(decode_cluster_payload(&payload), Some(message));
    }

    /// No proper prefix of a write envelope decodes, and none panics.
    #[test]
    fn truncated_envelopes_error_never_panic(image in after_image()) {
        let full = written(&image);
        for cut in 0..full.len() {
            let torn = Bytes::copy_from_slice(&full[..cut]);
            prop_assert!(decode_cluster_payload(&torn).is_none(), "prefix of {} bytes decoded", cut);
        }
    }

    /// A flipped byte may or may not still be a write; it never panics.
    #[test]
    fn corrupted_envelopes_never_panic(image in after_image(), at in any::<u16>(), flip in 1u8..=255) {
        let mut raw = written(&image).to_vec();
        let at = at as usize % raw.len();
        raw[at] ^= flip;
        let _ = decode_cluster_payload(&Bytes::from(raw));
    }
}
