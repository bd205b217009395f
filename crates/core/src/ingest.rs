//! Decoding the cluster topic: one typed decoder for every message on it.
//!
//! Writes, subscribes, unsubscribes and TTL extensions are read in one pass
//! over a borrowed [`LazyDoc`] view. Nothing is built that the message does
//! not keep: a write's key, record and trace go straight into its
//! [`AfterImage`], a subscription's filter and initial records straight
//! into its [`SubscriptionRequest`], each materialized once, and no
//! document of the envelope is built on the way.
//!
//! Contract: a payload decodes to exactly what
//! `ClusterMessage::from_document(&payload_to_document(..))` returns, or to
//! `None` where that fails. Its writers never repeat a field, so a payload
//! that does, at any level, is malformed, to this decoder and that one
//! alike. That is what lets a cell retain a write as its payload
//! ([`decode_event_with`]), read its fields in place and decode it again
//! when a new subscription replays it.

use crate::event::Event;
use invalidb_common::{
    AfterImage, ClusterMessage, Key, QueryHash, SubscriptionId, SubscriptionRequest, TenantId, Version,
};
use invalidb_json::lazy::{LazyDoc, LazyValue};
use invalidb_json::wire;
use std::sync::Arc;

/// Decodes an event-layer payload into a [`ClusterMessage`]; `None` when
/// the payload is malformed.
pub fn decode_cluster_payload(payload: &bytes::Bytes) -> Option<ClusterMessage> {
    decode(payload, TenantId::new).map(|(message, _)| message)
}

/// What the ingress routes to the cells: the payload's message, a write
/// carrying its payload (moved in, not copied) and the offset of its `doc`
/// object beside the decoded image, so a cell can retain the bytes and let
/// the image go. `tenant_of` turns the tenant's name into its id,
/// typically through a [`invalidb_common::TenantInterner`], so the name is
/// not allocated again for every message.
pub fn decode_event_with(
    payload: bytes::Bytes,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<Event> {
    Some(match decode(&payload, tenant_of)? {
        (ClusterMessage::Write(img), doc_at) => Event::Write { image: Arc::new(img), payload, doc_at },
        (ClusterMessage::Subscribe(req), _) => Event::Subscribe(Arc::new(req)),
        (ClusterMessage::Unsubscribe { tenant, subscription, query_hash }, _) => {
            Event::Unsubscribe { tenant, subscription, query_hash }
        }
        (ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros }, _) => {
            Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
        }
    })
}

/// A retained write's payload decoded again for replay: the after-image
/// [`decode_event_with`] decoded from it, of `tenant`, without its trace —
/// a replayed transition is not the live write's stage path.
pub(crate) fn decode_retained(payload: &[u8], tenant: &TenantId) -> Option<AfterImage> {
    let (img, _) = decode_write(LazyDoc::new(payload).ok()?, |_| tenant.clone())?;
    Some(AfterImage { trace: None, ..img })
}

/// Decodes a control message — a subscribe, unsubscribe or TTL extension;
/// `None` for a write, skipped once its `op` is read, or a malformed
/// payload. What a reader that keeps only subscriptions needs.
pub fn decode_control(payload: &[u8]) -> Option<ClusterMessage> {
    let (lazy, op) = opened(payload)?;
    decode_control_op(lazy, op, TenantId::new)
}

/// The payload's view and its `op`. Every writer puts `op` first; the
/// decoders' `fields` reject a second one.
fn opened(payload: &[u8]) -> Option<(LazyDoc<'_>, &str)> {
    let lazy = LazyDoc::new(payload).ok()?;
    let [op] = lazy.root().find(["op"]).ok()?;
    Some((lazy, op?.as_str()?))
}

/// The decoder: the message, and for a write the offset of its `doc`
/// object (`None` for a delete).
fn decode(
    payload: &[u8],
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<(ClusterMessage, Option<u32>)> {
    match opened(payload)? {
        (lazy, "write") => {
            let (img, doc_at) = decode_write(lazy, tenant_of)?;
            Some((ClusterMessage::Write(img), doc_at))
        }
        (lazy, op) => Some((decode_control_op(lazy, op, tenant_of)?, None)),
    }
}

/// A control message whose `op` has been read; `None` for any other `op`.
fn decode_control_op(
    lazy: LazyDoc<'_>,
    op: &str,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<ClusterMessage> {
    Some(match op {
        "subscribe" => {
            let names = [
                "op",
                "tenant",
                "subscription",
                "query",
                "queryHash",
                "slack",
                "ttl",
                "renewal",
                "initial",
            ];
            let [_, tenant, subscription, query, query_hash, slack, ttl, renewal, initial] =
                lazy.fields(names).ok()?;
            let LazyValue::Array(initial) = initial? else { return None };
            let mut items = Vec::with_capacity(initial.len().ok()?);
            for item in initial.items() {
                items.push(wire::item(item.ok()?)?);
            }
            ClusterMessage::Subscribe(SubscriptionRequest {
                subscription: SubscriptionId(subscription?.as_i64()? as u64),
                spec: wire::query(query?)?,
                query_hash: QueryHash(query_hash?.as_i64()? as u64),
                initial: items,
                slack: wire::optional(slack, LazyValue::as_i64)?.unwrap_or(0) as u64,
                ttl_micros: wire::optional(ttl, LazyValue::as_i64)?.unwrap_or(i64::MAX) as u64,
                renewal: wire::optional(renewal, LazyValue::as_bool)?.unwrap_or(false),
                tenant: tenant_of(tenant?.as_str()?),
            })
        }
        "unsubscribe" => {
            let [_, tenant, subscription, query_hash] =
                lazy.fields(["op", "tenant", "subscription", "queryHash"]).ok()?;
            ClusterMessage::Unsubscribe {
                subscription: SubscriptionId(subscription?.as_i64()? as u64),
                query_hash: QueryHash(query_hash?.as_i64()? as u64),
                tenant: tenant_of(tenant?.as_str()?),
            }
        }
        "extendTtl" => {
            let [_, tenant, subscription, query_hash, ttl] =
                lazy.fields(["op", "tenant", "subscription", "queryHash", "ttl"]).ok()?;
            ClusterMessage::ExtendTtl {
                subscription: SubscriptionId(subscription?.as_i64()? as u64),
                query_hash: QueryHash(query_hash?.as_i64()? as u64),
                ttl_micros: ttl?.as_i64()? as u64,
                tenant: tenant_of(tenant?.as_str()?),
            }
        }
        _ => return None,
    })
}

/// A write envelope: its after-image and the offset of its `doc` object.
fn decode_write(
    lazy: LazyDoc<'_>,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<(AfterImage, Option<u32>)> {
    let names = ["op", "tenant", "collection", "key", "version", "writtenAt", "doc", "trace"];
    let [_, tenant, collection, key, version, written_at, doc, trace] = lazy.fields(names).ok()?;
    let doc_at = match doc {
        Some(LazyValue::Object(obj)) => Some(u32::try_from(obj.offset()).ok()?),
        _ => None,
    };
    let img = AfterImage {
        collection: collection?.as_str()?.to_owned(),
        key: Key(key?.materialize().ok()?),
        version: version?.as_i64()? as Version,
        doc: wire::document(doc)?,
        written_at: wire::optional(written_at, LazyValue::as_i64)?.unwrap_or(0) as u64,
        trace: wire::trace(trace)?,
        tenant: tenant_of(tenant?.as_str()?),
    };
    Some((img, doc_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, FieldWriter, QuerySpec, ResultItem, SortDirection, TraceContext, Value};
    use invalidb_json::WireCodec;

    /// The oracle: the whole payload as a document, then the message taken
    /// out of it.
    fn oracle(payload: &bytes::Bytes) -> Option<ClusterMessage> {
        let d = invalidb_json::payload_to_document(payload).ok()?;
        ClusterMessage::from_document(&d).ok()
    }

    fn written(msg: &ClusterMessage) -> bytes::Bytes {
        let mut w = WireCodec.writer();
        msg.write_to(&mut w);
        w.finish()
    }

    fn sample_messages() -> Vec<ClusterMessage> {
        let mut trace = TraceContext { trace_id: 7, stamps: Vec::new() };
        trace.stamp_at(invalidb_common::Stage::AppServer, 100);
        let spec = QuerySpec::filter("users", doc! { "n" => doc! { "$gt" => 3i64 } })
            .sorted_by("n", SortDirection::Desc)
            .with_limit(10);
        let mut item = ResultItem::new(Key::of("u1"), 2, doc! { "n" => 4i64 });
        item.index = Some(0);
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
            ClusterMessage::Subscribe(SubscriptionRequest {
                tenant: TenantId::new("app"),
                subscription: SubscriptionId(4),
                query_hash: spec.stable_hash(),
                spec,
                initial: vec![item],
                slack: 3,
                ttl_micros: 60_000_000,
                renewal: true,
            }),
            ClusterMessage::Unsubscribe {
                tenant: TenantId::new("app"),
                subscription: SubscriptionId(4),
                query_hash: QueryHash(11),
            },
            ClusterMessage::ExtendTtl {
                tenant: TenantId::new("app"),
                subscription: SubscriptionId(4),
                query_hash: QueryHash(11),
                ttl_micros: 5,
            },
        ]
    }

    #[test]
    fn every_message_and_every_truncation_decodes_like_the_oracle() {
        for msg in sample_messages() {
            let full = written(&msg);
            assert_eq!(decode_cluster_payload(&full).as_ref(), Some(&msg));
            assert_eq!(decode_cluster_payload(&full), oracle(&full), "{msg:?}");
            for cut in 1..full.len() {
                let torn = bytes::Bytes::copy_from_slice(&full[..cut]);
                assert_eq!(decode_cluster_payload(&torn), oracle(&torn), "cut at {cut}");
            }
        }
    }

    /// No writer repeats a field, so a payload that does is malformed, at
    /// the root and inside the record alike, to the ingress and the oracle.
    #[test]
    fn a_repeated_field_is_rejected() {
        let fields: [(&str, Value); 6] = [
            ("op", "write".into()),
            ("tenant", "app".into()),
            ("collection", "users".into()),
            ("key", "u1".into()),
            ("version", 3i64.into()),
            ("version", 3i64.into()),
        ];
        for (repeat, n) in [(true, 1), (false, 2)] {
            let fields = if repeat { &fields[..] } else { &fields[..5] };
            let mut w = WireCodec.writer();
            w.begin_object(fields.len() + 1);
            for (name, value) in fields {
                w.key(name);
                w.value(value);
            }
            w.key("doc");
            w.begin_object(n);
            for i in 0..n {
                w.key("n");
                w.int(i as i64);
            }
            w.end_object();
            w.end_object();
            let payload = w.finish();
            assert_eq!(decode_cluster_payload(&payload), None);
            assert_eq!(oracle(&payload), None);
            assert!(decode_event_with(payload, TenantId::new).is_none());
        }
    }
}
