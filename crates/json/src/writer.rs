//! Payload writer: a [`FieldWriter`] over the payload codec.
//!
//! [`WireCodec::encode`](crate::WireCodec::encode) needs the whole message
//! as a [`Document`] first. A producer that already holds the parts — the
//! notifier holds the after-image a notification is about — writes them
//! through a [`PayloadWriter`] instead and the bytes come out the same,
//! with nothing copied in between.

use crate::bin::{self, BIN_MAGIC, BIN_VERSION, TAG_ARRAY, TAG_OBJECT, TAG_STRING};
use bytes::Bytes;
use invalidb_common::{Document, FieldWriter, Value};

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
        // Notification envelopes run to a few hundred bytes.
        Self { bytes: Vec::with_capacity(256), root: true }
    }

    /// The finished payload.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.bytes)
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

    #[test]
    fn writer_bytes_equal_encoding_the_built_document() {
        let mut builder = invalidb_common::DocumentBuilder::new();
        write_sample(&mut builder);
        let built = builder.finish();
        let mut w = WireCodec.writer();
        write_sample(&mut w);
        let payload = w.finish();
        assert_eq!(payload, WireCodec.encode(&built));
        assert_eq!(crate::payload_to_document(&payload).unwrap(), built);
    }
}
