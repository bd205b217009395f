//! Payload writer: a [`FieldWriter`] over the payload codec.
//!
//! [`WireCodec::encode`](crate::WireCodec::encode) needs the whole message
//! as a [`Document`] first. A producer that already holds the parts — the
//! notifier holds the after-image a notification is about — writes them
//! through a [`PayloadWriter`] instead and the bytes come out the same,
//! with nothing copied in between.
//!
//! Both write into one buffer per thread, reused from payload to payload,
//! and copy the finished bytes once into the shared [`Bytes`]: a payload
//! costs one allocation, and the buffer does not regrow for every payload.
//! A buffer that grew past 64 KiB (a large initial result) is freed
//! instead of kept, so no thread holds more than that between payloads.

use crate::bin::{self, BIN_MAGIC, BIN_VERSION, TAG_ARRAY, TAG_OBJECT, TAG_STRING};
use crate::lazy::CheckedObject;
use bytes::Bytes;
use invalidb_common::{Document, EncodedObject, FieldWriter, Value};
use std::cell::Cell;
use std::fmt;

/// The largest buffer a thread keeps between two payloads.
const SPARE_CAPACITY: usize = 64 * 1024;

thread_local! {
    /// This thread's buffer while no writer holds it.
    static SPARE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Serializes one payload field by field; created by
/// [`WireCodec::writer`](crate::WireCodec::writer). The bytes equal
/// `WireCodec.encode(..)` of the document the same calls would build.
pub struct PayloadWriter {
    bytes: Vec<u8>,
    /// Set until the root object opened: it alone carries the payload
    /// header instead of a value tag.
    root: bool,
}

impl PayloadWriter {
    pub(crate) fn new() -> Self {
        // A writer opened while another is open on the same thread finds no
        // spare buffer and starts its own.
        let mut bytes = SPARE.try_with(Cell::take).unwrap_or_default();
        if bytes.capacity() == 0 {
            // Notification envelopes run to a few hundred bytes.
            bytes.reserve(256);
        }
        Self { bytes, root: true }
    }

    /// `doc` as a whole payload: what [`WireCodec::encode`](crate::WireCodec::encode) returns.
    pub(crate) fn encode(doc: &Document) -> Bytes {
        let mut w = Self::new();
        bin::encode_document_into(doc, &mut w.bytes);
        w.finish()
    }

    /// The finished payload.
    pub fn finish(self) -> Bytes {
        Bytes::copy_from_slice(&self.bytes)
    }
}

impl Drop for PayloadWriter {
    /// Hands the buffer back to the thread, unless it grew too large.
    fn drop(&mut self) {
        let mut bytes = std::mem::take(&mut self.bytes);
        if bytes.capacity() <= SPARE_CAPACITY {
            bytes.clear();
            let _ = SPARE.try_with(|spare| spare.set(bytes));
        }
    }
}

/// A record held on its own as the body of its encoded object: the bytes
/// [`EncodedObject::body`] returns and a payload writer copies verbatim.
/// The store keeps each record so, shared by the record, its oplog entry
/// and the write's after-image.
#[derive(Clone, PartialEq, Eq)]
pub struct EncodedDoc(Bytes);

impl EncodedDoc {
    /// Encodes `doc` through this thread's buffer and copies the bytes out
    /// once: one allocation.
    pub fn encode(doc: &Document) -> Self {
        let mut w = PayloadWriter::new();
        bin::encode_object_body(doc, &mut w.bytes);
        EncodedDoc(w.finish())
    }

    /// The record, read in place.
    pub fn object(&self) -> CheckedObject<'_> {
        CheckedObject::new(&self.0)
    }
}

impl EncodedObject for EncodedDoc {
    fn body(&self) -> &[u8] {
        &self.0
    }

    fn to_document(&self) -> Document {
        self.object().materialize()
    }
}

impl fmt::Debug for EncodedDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("EncodedDoc").field(&self.to_document()).finish()
    }
}

impl FieldWriter for PayloadWriter {
    fn begin_object(&mut self, fields: usize) {
        if std::mem::take(&mut self.root) {
            self.bytes.extend_from_slice(&BIN_MAGIC);
            self.bytes.push(BIN_VERSION);
        } else {
            self.bytes.push(TAG_OBJECT);
        }
        bin::put_varint(&mut self.bytes, fields as u64);
    }

    fn end_object(&mut self) {}

    fn begin_array(&mut self, len: usize) {
        self.bytes.push(TAG_ARRAY);
        bin::put_varint(&mut self.bytes, len as u64);
    }

    fn end_array(&mut self) {}

    fn key(&mut self, key: &str) {
        bin::put_varint(&mut self.bytes, key.len() as u64);
        self.bytes.extend_from_slice(key.as_bytes());
    }

    fn value(&mut self, value: &Value) {
        bin::encode_value_into(value, &mut self.bytes);
    }

    fn document(&mut self, doc: &Document) {
        self.bytes.push(TAG_OBJECT);
        bin::encode_object_body(doc, &mut self.bytes);
    }

    fn encoded(&mut self, object: &dyn EncodedObject) {
        self.bytes.push(TAG_OBJECT);
        self.bytes.extend_from_slice(object.body());
    }

    fn str(&mut self, s: &str) {
        self.bytes.push(TAG_STRING);
        bin::put_varint(&mut self.bytes, s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireCodec;
    use invalidb_common::doc;

    /// The same calls through a `DocumentBuilder` and through a
    /// `PayloadWriter` must describe the same payload, byte for byte.
    fn write_sample(w: &mut impl FieldWriter) {
        let inner = doc! { "n" => 1i64, "s" => "q\"uote", "deep" => doc! { "f" => 2.5f64 } };
        w.begin_object(6);
        w.key("tenant");
        w.str("app");
        w.key("ids");
        w.begin_array(3);
        w.int(7);
        w.int(-9);
        w.int(i64::MAX);
        w.end_array();
        w.key("none");
        w.begin_array(0);
        w.end_array();
        w.key("item");
        w.begin_object(3);
        w.key("key");
        w.value(&Value::from("k1"));
        w.key("doc");
        w.document(&inner);
        w.key("gone");
        w.value(&Value::Null);
        w.end_object();
        w.key("items");
        w.begin_array(2);
        w.begin_object(1);
        w.key("a");
        w.int(1);
        w.end_object();
        w.begin_object(0);
        w.end_object();
        w.end_array();
        w.key("last");
        w.value(&Value::Array(vec![Value::Bool(true), Value::Float(0.5)]));
        w.end_object();
    }

    fn sample() -> Document {
        let mut builder = invalidb_common::DocumentBuilder::new();
        write_sample(&mut builder);
        builder.finish()
    }

    /// The spare buffer's capacity, left in place.
    fn spare_capacity() -> usize {
        SPARE.with(|spare| {
            let bytes = spare.take();
            let capacity = bytes.capacity();
            spare.set(bytes);
            capacity
        })
    }

    #[test]
    fn writer_bytes_equal_encoding_the_built_document() {
        let built = sample();
        let mut w = WireCodec.writer();
        write_sample(&mut w);
        let payload = w.finish();
        assert_eq!(payload, Bytes::from(bin::encode_document(&built)));
        assert_eq!(payload, WireCodec.encode(&built));
        assert_eq!(crate::payload_to_document(&payload).unwrap(), built);
    }

    /// An encoded record is the body a payload writer splices: the bytes
    /// that follow the header of the document's own payload.
    #[test]
    fn an_encoded_doc_is_its_documents_payload_body() {
        for doc in [sample(), Document::new()] {
            let encoded = EncodedDoc::encode(&doc);
            assert_eq!(encoded.body(), &bin::encode_document(&doc)[5..]);
            assert_eq!(encoded.to_document(), doc);
        }
    }

    /// A writer opened while another is open on the same thread (an
    /// encode inside a write) gets a buffer of its own: neither payload
    /// sees the other's bytes.
    #[test]
    fn nested_writers_on_one_thread_write_their_own_payloads() {
        let expected = Bytes::from(bin::encode_document(&sample()));
        let mut outer = WireCodec.writer();
        outer.begin_object(2);
        outer.key("a");
        outer.str("outer");
        let mut inner = WireCodec.writer();
        write_sample(&mut inner);
        let encoded = WireCodec.encode(&sample());
        outer.key("b");
        outer.int(2);
        outer.end_object();
        assert_eq!(inner.finish(), expected);
        assert_eq!(encoded, expected);
        let outer_doc = doc! { "a" => "outer", "b" => 2i64 };
        assert_eq!(outer.finish(), Bytes::from(bin::encode_document(&outer_doc)));
        assert_eq!(WireCodec.encode(&outer_doc), Bytes::from(bin::encode_document(&outer_doc)));
        // A writer after all of them starts from an empty buffer.
        let mut after = WireCodec.writer();
        write_sample(&mut after);
        assert_eq!(after.finish(), expected);
    }

    /// A payload past the spare capacity comes out whole, its buffer is
    /// not kept, and the next small payload is unaffected.
    #[test]
    fn a_large_payload_is_written_whole_and_its_buffer_freed() {
        let large = doc! { "blob" => "x".repeat(SPARE_CAPACITY + 1), "n" => 1i64 };
        let payload = WireCodec.encode(&large);
        assert_eq!(payload, Bytes::from(bin::encode_document(&large)));
        assert!(spare_capacity() <= SPARE_CAPACITY, "spare kept {} bytes", spare_capacity());
        let mut w = WireCodec.writer();
        write_sample(&mut w);
        assert_eq!(w.finish(), WireCodec.encode(&sample()));
        assert_eq!(WireCodec.encode(&sample()), Bytes::from(bin::encode_document(&sample())));
        assert!(spare_capacity() > 0, "a small payload's buffer is kept");
    }
}
