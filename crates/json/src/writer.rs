//! Payload writer: a [`FieldWriter`] over the wire codecs.
//!
//! [`WireCodec::encode`](crate::WireCodec::encode) needs the whole message
//! as a [`Document`] first. A producer that already holds the parts — the
//! notifier holds the after-image a notification is about — writes them
//! through a [`PayloadWriter`] instead and the bytes come out the same,
//! with nothing copied in between.

use crate::bin::{self, BIN_MAGIC, BIN_VERSION, TAG_ARRAY, TAG_OBJECT, TAG_STRING};
use crate::{ser, WireCodec};
use bytes::Bytes;
use invalidb_common::{Document, FieldWriter, Value};

enum Out {
    /// `comma` is set when the next value or key at this nesting level
    /// needs a separator before it.
    Json { text: String, comma: bool },
    /// `root` is set until the root object opened: it alone carries the
    /// payload header instead of a value tag.
    Binary { bytes: Vec<u8>, root: bool },
}

/// Serializes one payload field by field; created by
/// [`WireCodec::writer`](crate::WireCodec::writer). The bytes equal
/// `codec.encode(..)` of the document the same calls would build.
pub struct PayloadWriter {
    out: Out,
}

impl PayloadWriter {
    pub(crate) fn new(codec: WireCodec) -> Self {
        // Notification envelopes run to a few hundred bytes.
        let out = match codec {
            WireCodec::Json => Out::Json { text: String::with_capacity(256), comma: false },
            WireCodec::Binary => Out::Binary { bytes: Vec::with_capacity(256), root: true },
        };
        Self { out }
    }

    /// The finished payload.
    pub fn finish(self) -> Bytes {
        match self.out {
            Out::Json { text, .. } => Bytes::from(text.into_bytes()),
            Out::Binary { bytes, .. } => Bytes::from(bytes),
        }
    }

    /// JSON: the separator before a value, and the note that one follows.
    fn json_value(text: &mut String, comma: &mut bool) {
        if *comma {
            text.push(',');
        }
        *comma = true;
    }
}

impl FieldWriter for PayloadWriter {
    fn begin_object(&mut self, fields: usize) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                text.push('{');
                *comma = false;
            }
            Out::Binary { bytes, root } => {
                if std::mem::take(root) {
                    bytes.extend_from_slice(&BIN_MAGIC);
                    bytes.push(BIN_VERSION);
                } else {
                    bytes.push(TAG_OBJECT);
                }
                bin::put_varint(bytes, fields as u64);
            }
        }
    }

    fn end_object(&mut self) {
        if let Out::Json { text, comma } = &mut self.out {
            text.push('}');
            *comma = true;
        }
    }

    fn begin_array(&mut self, len: usize) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                text.push('[');
                *comma = false;
            }
            Out::Binary { bytes, .. } => {
                bytes.push(TAG_ARRAY);
                bin::put_varint(bytes, len as u64);
            }
        }
    }

    fn end_array(&mut self) {
        if let Out::Json { text, comma } = &mut self.out {
            text.push(']');
            *comma = true;
        }
    }

    fn key(&mut self, key: &str) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                ser::write_string(key, text);
                text.push(':');
                *comma = false;
            }
            Out::Binary { bytes, .. } => {
                bin::put_varint(bytes, key.len() as u64);
                bytes.extend_from_slice(key.as_bytes());
            }
        }
    }

    fn value(&mut self, value: &Value) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                ser::write_value(value, text);
            }
            Out::Binary { bytes, .. } => bin::encode_value_into(value, bytes),
        }
    }

    fn document(&mut self, doc: &Document) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                ser::write_document(doc, text);
            }
            Out::Binary { bytes, .. } => {
                bytes.push(TAG_OBJECT);
                bin::encode_object_body(doc, bytes);
            }
        }
    }

    fn str(&mut self, s: &str) {
        match &mut self.out {
            Out::Json { text, comma } => {
                Self::json_value(text, comma);
                ser::write_string(s, text);
            }
            Out::Binary { bytes, .. } => {
                bytes.push(TAG_STRING);
                bin::put_varint(bytes, s.len() as u64);
                bytes.extend_from_slice(s.as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let mut w = codec.writer();
            write_sample(&mut w);
            let payload = w.finish();
            assert_eq!(payload, codec.encode(&built), "{codec:?}");
            assert_eq!(crate::payload_to_document(&payload).unwrap(), built, "{codec:?}");
        }
    }
}
