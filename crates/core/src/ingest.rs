//! Zero-copy envelope decoding for the ingestion tier.
//!
//! The hot message on the cluster topic is the write after-image, and the
//! eager decode path pays for it twice: `payload_to_document` materializes
//! the *entire* envelope (including the embedded record state), then
//! `ClusterMessage::from_document` clones the `doc` subtree again into the
//! [`invalidb_common::AfterImage`]. [`decode_cluster_payload`] keeps the same
//! observable result while doing neither: write envelopes are walked once
//! through a borrowed [`LazyDoc`] view, materializing only the three
//! subtrees the after-image actually owns (`key`, `doc`, `trace`) straight
//! into their final places. Control ops (subscribe / unsubscribe /
//! extendTtl — rare, and structurally dominated by the initial result) fall
//! back to the eager decoder.
//!
//! Equivalence contract: for every payload, the fast path either produces
//! the exact message the eager path would, or bows out and lets the eager
//! path run (so malformed payloads are still counted as decode errors by
//! the caller exactly as before). It bows out of no write the eager path
//! takes, which is what lets a cell retain a write as its payload
//! ([`decode_event_with`]) and decode it again when a new subscription
//! replays it.

use crate::event::Event;
use invalidb_common::{AfterImage, ClusterMessage, Key, TenantId, TraceContext};
use invalidb_json::lazy::{LazyDoc, LazyValue};
use invalidb_json::WireCodec;
use std::sync::Arc;

/// Decodes an event-layer payload into a [`ClusterMessage`], zero-copy for
/// write envelopes. Returns `None` when the payload is malformed — the
/// same outcomes as
/// `payload_to_document(..).ok().and_then(|d| ClusterMessage::from_document(&d).ok())`.
pub fn decode_cluster_payload(payload: &bytes::Bytes) -> Option<ClusterMessage> {
    decode_cluster_payload_with(payload, TenantId::new)
}

/// [`decode_cluster_payload`] for a reader that sees the same tenants
/// write after write (the ingress): `tenant_of` turns a write's tenant name
/// into its id, typically through a [`invalidb_common::TenantInterner`], so
/// the name is not allocated again for every after-image.
pub fn decode_cluster_payload_with(
    payload: &bytes::Bytes,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<ClusterMessage> {
    if let Some((img, _, _)) = decode_write(payload, tenant_of) {
        return Some(ClusterMessage::Write(img));
    }
    let doc = invalidb_json::payload_to_document(payload).ok()?;
    ClusterMessage::from_document(&doc).ok()
}

/// What the ingress routes to the cells: [`decode_cluster_payload_with`]'s
/// message, a write carrying its payload (moved in, not copied) and the
/// offset of its `doc` object beside the decoded image, so a cell can
/// retain the bytes and let the image go. A write whose document
/// repeats a field (no writer of this codebase emits one) carries its
/// image encoded again instead, each field once as eager decoding keeps it,
/// so that a field read in place is the one the image holds.
pub fn decode_event_with(
    payload: bytes::Bytes,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<Event> {
    if let Some((img, doc_at, repeats)) = decode_write(&payload, tenant_of) {
        let (img, payload, doc_at) = if repeats {
            let mut w = WireCodec.writer();
            img.as_ref().write_to(&mut w);
            let payload = w.finish();
            let (img, doc_at, _) = decode_write(&payload, |_| img.tenant.clone())?;
            (img, payload, doc_at)
        } else {
            (img, payload, doc_at)
        };
        return Some(Event::Write { image: Arc::new(img), payload, doc_at });
    }
    let doc = invalidb_json::payload_to_document(&payload).ok()?;
    Some(match ClusterMessage::from_document(&doc).ok()? {
        ClusterMessage::Subscribe(req) => Event::Subscribe(Arc::new(req)),
        ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
            Event::Unsubscribe { tenant, subscription, query_hash }
        }
        ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
            Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
        }
        // `decode_write` takes every write the eager decoder takes.
        ClusterMessage::Write(_) => return None,
    })
}

/// A retained write's payload decoded again for replay: the after-image
/// [`decode_event_with`] decoded from it, of `tenant`, without its trace —
/// a replayed transition is not the live write's stage path.
pub(crate) fn decode_retained(payload: &[u8], tenant: &TenantId) -> Option<AfterImage> {
    let (img, _, _) = decode_write(payload, |_| tenant.clone())?;
    Some(AfterImage { trace: None, ..img })
}

/// The write decoder: one skip-scan pass over a write envelope, each field
/// resolved last-duplicate-wins like the eager decoder, so that it takes
/// every write that decoder takes. Returns the after-image, the offset of
/// its `doc` object (`None` for a delete) and whether that object repeats a
/// field. `None` means "not a well-formed write" — the callers fall back
/// to the eager decoder, which reproduces the old error accounting.
fn decode_write(
    payload: &[u8],
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<(AfterImage, Option<u32>, bool)> {
    let lazy = LazyDoc::new(payload).ok()?;
    let (mut op, mut tenant, mut collection, mut key, mut version) = (None, None, None, None, None);
    let (mut written_at, mut doc, mut trace) = (None, None, None);
    for entry in lazy.root().entries() {
        let (name, value) = entry.ok()?;
        let slot = match name {
            "op" => &mut op,
            "tenant" => &mut tenant,
            "collection" => &mut collection,
            "key" => &mut key,
            "version" => &mut version,
            "writtenAt" => &mut written_at,
            "doc" => &mut doc,
            "trace" => &mut trace,
            _ => continue,
        };
        *slot = Some(value);
    }
    if op?.as_str()? != "write" {
        return None;
    }
    let (doc, doc_at, repeats) = match doc {
        None | Some(LazyValue::Null) => (None, None, false),
        Some(LazyValue::Object(obj)) => {
            let doc = obj.materialize().ok()?;
            let repeats = doc.len() != obj.len().ok()?;
            (Some(doc), Some(u32::try_from(obj.offset()).ok()?), repeats)
        }
        Some(_) => return None, // eager path rejects non-object `doc`
    };
    let trace = match trace {
        Some(LazyValue::Object(td)) => Some(TraceContext::from_document(&td.materialize().ok()?).ok()?),
        _ => None,
    };
    let img = AfterImage {
        tenant: tenant_of(tenant?.as_str()?),
        collection: collection?.as_str()?.to_owned(),
        key: Key(key?.materialize().ok()?),
        version: version?.as_i64()? as invalidb_common::Version,
        doc,
        written_at: written_at.and_then(|v: LazyValue<'_>| v.as_i64()).unwrap_or(0) as u64,
        trace,
    };
    Some((img, doc_at, repeats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, AfterImage, QueryHash, SubscriptionId, Value};
    use invalidb_json::WireCodec;

    fn eager(payload: &bytes::Bytes) -> Option<ClusterMessage> {
        let d = invalidb_json::payload_to_document(payload).ok()?;
        ClusterMessage::from_document(&d).ok()
    }

    fn sample_messages() -> Vec<ClusterMessage> {
        let mut trace = TraceContext { trace_id: 7, stamps: Vec::new() };
        trace.stamp_at(invalidb_common::Stage::AppServer, 100);
        vec![
            ClusterMessage::Write(AfterImage {
                tenant: TenantId::new("app"),
                collection: "users".into(),
                key: Key::of("u1"),
                version: 3,
                doc: Some(doc! { "n" => 9i64, "tags" => vec![Value::from("a")] }),
                written_at: 1234,
                trace: None,
            }),
            ClusterMessage::Write(AfterImage {
                tenant: TenantId::new("app"),
                collection: "users".into(),
                key: Key::of(5i64),
                version: 8,
                doc: None,
                written_at: 0,
                trace: Some(trace),
            }),
            ClusterMessage::Unsubscribe {
                tenant: TenantId::new("app"),
                subscription: SubscriptionId(4),
                query_hash: QueryHash(11),
            },
        ]
    }

    #[test]
    fn fast_path_agrees_with_eager() {
        for msg in sample_messages() {
            let payload = WireCodec.encode(&msg.to_document());
            assert_eq!(decode_cluster_payload(&payload), eager(&payload), "{msg:?}");
            assert_eq!(decode_cluster_payload(&payload).as_ref(), Some(&msg));
        }
    }

    #[test]
    fn writes_take_the_lazy_path() {
        let ClusterMessage::Write(img) = &sample_messages()[0] else { unreachable!() };
        let payload = WireCodec.encode(&ClusterMessage::Write(img.clone()).to_document());
        assert!(decode_write(&payload, TenantId::new).is_some());
        // Control ops fall through to the eager decoder.
        let unsub = &sample_messages()[2];
        let ctrl = WireCodec.encode(&unsub.to_document());
        assert!(decode_write(&ctrl, TenantId::new).is_none());
    }

    /// Fields resolve last-duplicate-wins, as in the eager decoder, so the
    /// write decoder takes every write that decoder takes; a document that
    /// repeats a field reaches the cells encoded again, each field once.
    #[test]
    fn repeated_fields_resolve_like_eager() {
        use invalidb_common::FieldWriter;
        let mut w = WireCodec.writer();
        let fields: [(&str, Value); 8] = [
            ("op", "write".into()),
            ("tenant", 5i64.into()),
            ("tenant", "app".into()),
            ("collection", "users".into()),
            ("key", "u1".into()),
            ("version", 3i64.into()),
            ("doc", 5i64.into()),
            ("trace", "untraced".into()),
        ];
        w.begin_object(fields.len() + 1);
        for (name, value) in &fields {
            w.key(name);
            w.value(value);
        }
        w.key("doc");
        w.begin_object(2);
        for n in [1, 9] {
            w.key("n");
            w.int(n);
        }
        w.end_object();
        w.end_object();
        let payload = w.finish();
        let decoded = decode_cluster_payload(&payload);
        let expected = Some(doc! { "n" => 9i64 });
        assert!(matches!(&decoded, Some(ClusterMessage::Write(img)) if img.doc == expected));
        assert_eq!(decoded, eager(&payload));
        let Some(Event::Write { image, payload: kept, doc_at }) =
            decode_event_with(payload.clone(), TenantId::new)
        else {
            panic!("a write")
        };
        assert_eq!((image.doc.clone(), image.trace.clone()), (expected, None));
        let at = doc_at.expect("a document") as usize;
        let [n] = invalidb_json::LazyObject::at(&kept, at).find(["n"]).unwrap();
        assert_eq!(n.and_then(|n| n.as_i64()), Some(9), "the field the image holds");
    }

    #[test]
    fn malformed_payloads_decode_to_none_like_eager() {
        let msg = &sample_messages()[0];
        let full = WireCodec.encode(&msg.to_document());
        for cut in 1..full.len() {
            let torn = bytes::Bytes::copy_from_slice(&full[..cut]);
            assert_eq!(decode_cluster_payload(&torn), eager(&torn), "cut at {cut}");
        }
    }
}
