//! Event-layer payload codecs for the InvaliDB document model.
//!
//! The event layer transports *entirely opaque payloads* (§5.3); this crate
//! provides the wire formats that application servers and the InvaliDB
//! cluster agree on. Two codecs share one payload namespace:
//!
//! * **JSON text** — the original, human-readable encoding (and the
//!   fallback every peer understands). Serialization cost is part of what
//!   the paper measures (§6.3 attributes the slightly sublinear write
//!   scalability to per-write (de)serialization overhead), so the codec is
//!   implemented honestly rather than bypassed with in-process references.
//! * **Binary** ([`bin`]) — a tag-based, length-prefixed encoding behind
//!   the `IVBD` magic, negotiated per connection via a `Hello` capability
//!   bit in `invalidb-net`. Much cheaper on both sides of the wire.
//!
//! [`payload_to_document`] sniffs the codec from the leading bytes: binary
//! payloads start with `IVBD`, JSON document payloads start with `{` (the
//! root is always an object), so the two can never be confused and old
//! JSON payloads remain decodable forever.
//!
//! Deviations from strict JSON (both documented and round-trip safe):
//!
//! * `NaN`, `Infinity` and `-Infinity` are accepted and produced as bare
//!   tokens so that the full [`Value`](invalidb_common::Value) float domain round-trips;
//! * integers and floats are distinct: a number without `.`/`e`/`E` that
//!   fits `i64` parses as [`Value::Int`](invalidb_common::Value::Int), anything else as [`Value::Float`](invalidb_common::Value::Float);
//!   the serializer always prints floats with a fractional part or exponent.

pub mod bin;
mod error;
pub mod lazy;
mod parse;
mod ser;
mod writer;

pub use bin::{BinError, BinErrorKind};
pub use error::{JsonError, JsonErrorKind};
pub use lazy::{LazyArray, LazyDoc, LazyObject, LazyValue, PayloadView};
pub use parse::{parse_document, parse_value, Parser};
pub use ser::{to_bytes, to_string, write_document, write_value};
pub use writer::PayloadWriter;

use bytes::Bytes;
use invalidb_common::Document;

/// Which payload encoding a producer writes. Decoding is always sniffed
/// (see [`payload_to_document`]), so the codec choice is local to the
/// producer and never has to match the consumer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// JSON text — the universal fallback.
    Json,
    /// Binary (`IVBD`) — compact and allocation-lean; the default.
    #[default]
    Binary,
}

impl WireCodec {
    /// Encodes a document in this codec.
    pub fn encode(&self, doc: &Document) -> Bytes {
        match self {
            WireCodec::Json => document_to_payload(doc),
            WireCodec::Binary => document_to_binary_payload(doc),
        }
    }

    /// A writer producing a payload in this codec field by field, for a
    /// message that should not be copied into a [`Document`] first.
    pub fn writer(&self) -> PayloadWriter {
        PayloadWriter::new(*self)
    }
}

/// Serializes a document as JSON text and wraps it in [`Bytes`] for the
/// event layer.
pub fn document_to_payload(doc: &Document) -> Bytes {
    Bytes::from(to_bytes(doc))
}

/// Serializes a document in the binary codec ([`bin`]) and wraps it in
/// [`Bytes`] for the event layer.
pub fn document_to_binary_payload(doc: &Document) -> Bytes {
    Bytes::from(bin::encode_document(doc))
}

/// Decodes an event-layer payload back into a document, sniffing the codec
/// from the leading bytes: `IVBD` is the binary codec, anything else is
/// JSON text. Binary errors are reported through the same [`JsonError`]
/// type (closest kind, byte offset preserved) so consumers have a single
/// decode-error path.
pub fn payload_to_document(payload: &Bytes) -> Result<Document, JsonError> {
    if bin::is_binary(payload) {
        return bin::decode_document(payload).map_err(JsonError::from);
    }
    let text =
        std::str::from_utf8(payload).map_err(|_| JsonError::new(JsonErrorKind::InvalidUtf8, 0))?;
    parse_document(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, Value};

    #[test]
    fn payload_roundtrip() {
        let d = doc! {
            "name" => "ada",
            "age" => 36i64,
            "score" => 1.5f64,
            "tags" => vec![Value::from("x"), Value::Null, Value::from(true)],
            "nested" => doc! { "a" => doc!{ "b" => 1i64 } },
        };
        let payload = document_to_payload(&d);
        let back = payload_to_document(&payload).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn binary_payload_roundtrip_via_sniffing() {
        let d = doc! {
            "name" => "ada",
            "age" => 36i64,
            "nested" => doc! { "a" => doc!{ "b" => 1i64 } },
        };
        let payload = document_to_binary_payload(&d);
        assert!(bin::is_binary(&payload));
        assert_eq!(payload_to_document(&payload).unwrap(), d);
    }

    #[test]
    fn wire_codec_selects_encoding() {
        let d = doc! { "n" => 1i64 };
        assert!(!bin::is_binary(&WireCodec::Json.encode(&d)));
        assert!(bin::is_binary(&WireCodec::Binary.encode(&d)));
        assert_eq!(payload_to_document(&WireCodec::Json.encode(&d)).unwrap(), d);
        assert_eq!(payload_to_document(&WireCodec::Binary.encode(&d)).unwrap(), d);
    }

    #[test]
    fn truncated_binary_payload_is_an_error() {
        let full = document_to_binary_payload(&doc! { "n" => 1i64, "s" => "abcdef" });
        for cut in 1..full.len() {
            let torn = Bytes::copy_from_slice(&full[..cut]);
            assert!(payload_to_document(&torn).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn invalid_utf8_payload_rejected() {
        let payload = Bytes::from_static(&[0xff, 0xfe, b'{']);
        assert!(payload_to_document(&payload).is_err());
    }
}
