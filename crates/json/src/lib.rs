//! Codecs for the InvaliDB document model.
//!
//! The event layer transports *entirely opaque payloads* (§5.3); every
//! payload on it is one [`bin`] (`IVBD`) document — a tag-based,
//! length-prefixed encoding, produced by [`WireCodec`] and read back field
//! by field, without materializing, by [`LazyDoc`] (the typed message
//! decoders, with [`wire`]'s readers of the parts they share) or whole by
//! [`payload_to_document`]. Serialization cost is part of what the paper measures
//! (§6.3 attributes the slightly sublinear write scalability to per-write
//! (de)serialization overhead), so the codec is implemented honestly
//! rather than bypassed with in-process references.
//!
//! The JSON *text* codec ([`parse_document`], [`to_string`]) serves what
//! people and files read: the admin endpoint and metrics snapshots. Its
//! deviations from strict JSON (both documented and round-trip safe):
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
pub mod wire;
mod writer;

pub use bin::{BinError, BinErrorKind};
pub use error::{JsonError, JsonErrorKind};
pub use lazy::{CheckedObject, LazyArray, LazyDoc, LazyObject, LazyValue};
pub use parse::{parse_document, parse_value, Parser};
pub use ser::{to_bytes, to_string, write_document, write_value};
pub use writer::{EncodedDoc, PayloadWriter};

use bytes::Bytes;
use invalidb_common::Document;

/// The event-layer payload codec: binary (`IVBD`) documents, see [`bin`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCodec;

impl WireCodec {
    /// Encodes a document as an event-layer payload.
    pub fn encode(&self, doc: &Document) -> Bytes {
        PayloadWriter::encode(doc)
    }

    /// A writer producing a payload field by field, for a message that
    /// should not be copied into a [`Document`] first.
    pub fn writer(&self) -> PayloadWriter {
        PayloadWriter::new()
    }
}

/// Decodes an event-layer payload back into a document. Anything but a
/// well-formed `IVBD` document is an error ([`BinErrorKind::BadMagic`] for
/// a payload in another format), never a panic.
pub fn payload_to_document(payload: &Bytes) -> Result<Document, BinError> {
    bin::decode_document(payload)
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
        let payload = WireCodec.encode(&d);
        assert_eq!(&payload[..4], &bin::BIN_MAGIC);
        assert_eq!(payload_to_document(&payload).unwrap(), d);
    }

    #[test]
    fn truncated_binary_payload_is_an_error() {
        let full = WireCodec.encode(&doc! { "n" => 1i64, "s" => "abcdef" });
        for cut in 1..full.len() {
            let torn = Bytes::copy_from_slice(&full[..cut]);
            assert!(payload_to_document(&torn).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn json_text_payload_is_bad_magic() {
        let json = Bytes::from(to_bytes(&doc! { "n" => 1i64 }));
        assert_eq!(payload_to_document(&json).unwrap_err().kind, BinErrorKind::BadMagic);
        let garbage = Bytes::from_static(&[0xff, 0xfe, b'{']);
        assert_eq!(payload_to_document(&garbage).unwrap_err().kind, BinErrorKind::BadMagic);
    }
}
