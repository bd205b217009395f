//! Decoding the cluster topic: one typed decoder for every message on it.
//!
//! Writes, subscribes, unsubscribes and TTL extensions are read in one pass
//! over a borrowed [`LazyDoc`] view. Nothing is built that the message does
//! not keep: a subscription's filter and initial records go straight into
//! its [`SubscriptionRequest`], each materialized once, and no document of
//! the envelope is built on the way. A write the ingress hands on is not
//! decoded beyond its header and trace: it is checked as strictly as
//! decoding it would check it and travels as its payload
//! ([`decode_event_with`]).
//!
//! Contract: a payload decodes to exactly what
//! `ClusterMessage::from_document(&payload_to_document(..))` returns, or to
//! `None` where that fails, and [`decode_event_with`] rejects exactly the
//! payloads [`decode_cluster_payload`] rejects. Its writers never repeat a
//! field, so a payload that does, at any level, is malformed, to these
//! decoders and that one alike. That is what lets a cell read a write's
//! fields in place with probes that take the first field of a name.

use crate::event::{DocSpan, Event, WriteEvent, WriteHeader};
use invalidb_common::{
    AfterImage, ClusterMessage, Key, QueryHash, SubscriptionId, SubscriptionRequest, TenantId,
    TraceContext, Version,
};
use invalidb_json::lazy::{LazyDoc, LazyValue};
use invalidb_json::wire;
use std::sync::Arc;

/// Decodes an event-layer payload into a [`ClusterMessage`]; `None` when
/// the payload is malformed.
pub fn decode_cluster_payload(payload: &bytes::Bytes) -> Option<ClusterMessage> {
    let (lazy, op) = opened(payload)?;
    if op != "write" {
        return decode_control_op(lazy, op, TenantId::new);
    }
    // The write as the ingress checks it, then decoded whole.
    let (WriteHeader { tenant, key, version, written_at }, collection, doc, trace) =
        check_write(lazy, TenantId::new)?;
    Some(ClusterMessage::Write(AfterImage {
        tenant,
        collection: collection.to_owned(),
        key,
        version,
        doc: doc.of(payload).map(|doc| doc.materialize()),
        written_at,
        trace,
    }))
}

/// What the ingress routes to the cells: the payload's message. A write is
/// checked, its header and trace decoded, and the payload moved into the
/// event, not copied: an untraced write costs no allocation. `tenant_of`
/// turns the tenant's name into its id, typically through a
/// [`invalidb_common::TenantInterner`], so the name is not allocated again
/// for every message.
pub fn decode_event_with(
    payload: bytes::Bytes,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<Event> {
    let (lazy, op) = opened(&payload)?;
    if op == "write" {
        let (header, _, doc, trace) = check_write(lazy, tenant_of)?;
        return Some(Event::Write(WriteEvent { payload, header, doc, trace: trace.map(Box::new) }));
    }
    Some(match decode_control_op(lazy, op, tenant_of)? {
        ClusterMessage::Subscribe(req) => Event::Subscribe(Arc::new(req)),
        ClusterMessage::Unsubscribe { tenant, subscription, query_hash } => {
            Event::Unsubscribe { tenant, subscription, query_hash }
        }
        ClusterMessage::ExtendTtl { tenant, subscription, query_hash, ttl_micros } => {
            Event::ExtendTtl { tenant, subscription, query_hash, ttl_micros }
        }
        ClusterMessage::Write(_) => return None,
    })
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

/// A write envelope checked as strictly as decoding it whole would check
/// it, building nothing of its record: its header, its collection, where
/// its `doc` object lies, and its trace.
fn check_write(
    lazy: LazyDoc<'_>,
    tenant_of: impl FnOnce(&str) -> TenantId,
) -> Option<(WriteHeader, &str, DocSpan, Option<TraceContext>)> {
    let names = ["op", "tenant", "collection", "key", "version", "writtenAt", "doc", "trace"];
    let [_, tenant, collection, key, version, written_at, doc, trace] = lazy.fields(names).ok()?;
    let doc = match doc {
        None | Some(LazyValue::Null) => DocSpan::NONE,
        Some(LazyValue::Object(obj)) => DocSpan::at(obj.offset(), obj.check().ok()?.bytes().len())?,
        Some(_) => return None,
    };
    let (collection, trace) = (collection?.as_str()?, wire::trace(trace)?);
    let header = WriteHeader {
        key: Key(key?.materialize().ok()?),
        version: version?.as_i64()? as Version,
        written_at: wire::optional(written_at, LazyValue::as_i64)?.unwrap_or(0) as u64,
        tenant: tenant_of(tenant?.as_str()?),
    };
    Some((header, collection, doc, trace))
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

    /// What the ingress hands on for `payload` agrees with the oracle: the
    /// same payloads are rejected, and a write's header, record and trace,
    /// read where the event keeps them, are the oracle's after-image.
    fn assert_event_agrees(payload: &bytes::Bytes) {
        let event = decode_event_with(payload.clone(), TenantId::new);
        assert_eq!(event.is_some(), oracle(payload).is_some(), "{payload:?}");
        if let (Some(Event::Write(write)), Some(ClusterMessage::Write(img))) = (event, oracle(payload)) {
            let WriteHeader { tenant, key, version, written_at } = &write.header;
            assert_eq!(
                (tenant, write.collection(), key, *version, *written_at),
                (&img.tenant, Some(img.collection.as_str()), &img.key, img.version, img.written_at)
            );
            assert_eq!(write.doc().map(|doc| doc.materialize()), img.doc);
            assert_eq!(write.trace.map(|trace| *trace), img.trace);
        }
    }

    #[test]
    fn every_message_and_every_truncation_decodes_like_the_oracle() {
        for msg in sample_messages() {
            let full = written(&msg);
            assert_eq!(decode_cluster_payload(&full).as_ref(), Some(&msg));
            assert_eq!(decode_cluster_payload(&full), oracle(&full), "{msg:?}");
            assert_event_agrees(&full);
            for cut in 1..full.len() {
                let torn = bytes::Bytes::copy_from_slice(&full[..cut]);
                assert_eq!(decode_cluster_payload(&torn), oracle(&torn), "cut at {cut}");
                assert_event_agrees(&torn);
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
