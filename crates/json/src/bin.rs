//! Binary document codec — the compact wire encoding for event-layer
//! payloads.
//!
//! The event layer transports *opaque* payloads (§5.3), which is exactly
//! what lets the encoding evolve without touching the broker: this module
//! provides a tag-based, length-prefixed binary encoding of the
//! [`Value`]/[`Document`] model that round-trips losslessly (including the
//! `Int`/`Float` distinction and every `f64` bit pattern) and costs a
//! fraction of the JSON text codec on both sides — no digit formatting on
//! encode, no char-by-char scanning on decode.
//!
//! ## Layout
//!
//! A binary payload is:
//!
//! ```text
//!  offset  size  field
//!  0       4     magic "IVBD"
//!  4       1     codec version (currently 1)
//!  5       ..    object body: entry count (varint), then per entry
//!                key length (varint) + key UTF-8 bytes + value
//! ```
//!
//! Values are one tag byte followed by tag-specific data:
//!
//! | tag  | type   | payload                                        |
//! |------|--------|------------------------------------------------|
//! | 0x00 | null   | —                                              |
//! | 0x01 | false  | —                                              |
//! | 0x02 | true   | —                                              |
//! | 0x03 | int    | zigzag LEB128 varint                           |
//! | 0x04 | float  | 8 bytes, IEEE-754 bits big-endian              |
//! | 0x05 | string | length varint + UTF-8 bytes                    |
//! | 0x06 | array  | count varint + values                          |
//! | 0x07 | object | count varint + (key varint+bytes, value) pairs |

use crate::lazy::{LazyDoc, LazyValue};
use invalidb_common::{Document, Value};
use std::fmt;

/// Leading bytes of every binary payload.
pub const BIN_MAGIC: [u8; 4] = *b"IVBD";

/// Current binary codec version.
pub const BIN_VERSION: u8 = 1;

/// Maximum nesting depth accepted by the decoder — mirrors the JSON
/// parser's `MAX_DEPTH` so neither codec can be used to smuggle a stack
/// overflow past the other.
pub const MAX_DEPTH: usize = 128;

pub(crate) const TAG_NULL: u8 = 0x00;
pub(crate) const TAG_FALSE: u8 = 0x01;
pub(crate) const TAG_TRUE: u8 = 0x02;
pub(crate) const TAG_INT: u8 = 0x03;
pub(crate) const TAG_FLOAT: u8 = 0x04;
pub(crate) const TAG_STRING: u8 = 0x05;
pub(crate) const TAG_ARRAY: u8 = 0x06;
pub(crate) const TAG_OBJECT: u8 = 0x07;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a document into `out` (magic + version + object body),
/// appending to whatever is already there.
pub fn encode_document_into(doc: &Document, out: &mut Vec<u8>) {
    out.extend_from_slice(&BIN_MAGIC);
    out.push(BIN_VERSION);
    encode_object_body(doc, out);
}

/// Encodes a document into a fresh buffer.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    // Envelopes are small; 128 covers the common case without a regrow.
    let mut out = Vec::with_capacity(128);
    encode_document_into(doc, &mut out);
    out
}

/// Encodes one value (tag + data) into `out`.
pub fn encode_value_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value_into(item, out);
            }
        }
        Value::Object(doc) => {
            out.push(TAG_OBJECT);
            encode_object_body(doc, out);
        }
    }
}

pub(crate) fn encode_object_body(doc: &Document, out: &mut Vec<u8>) {
    put_varint(out, doc.len() as u64);
    for (key, value) in doc.iter() {
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key.as_bytes());
        encode_value_into(value, out);
    }
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads the id of an envelope's embedded trace context *without decoding
/// the envelope*: resolves the root's own `"trace"` field and returns the
/// `"id"` integer it starts with (the layout `TraceContext::to_document`
/// produces). A `trace` field nested inside a user document is not the
/// envelope's and does not count. What lets the broker client flag, and
/// the broker server stamp, only sampled envelopes.
pub fn sniff_trace_id(payload: &[u8]) -> Option<i64> {
    let trace = LazyDoc::new(payload).ok()?.get("trace").ok()??.as_object()?;
    match trace.entries().next()?.ok()? {
        ("id", LazyValue::Int(id)) => Some(id),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Why a binary payload could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinErrorKind {
    /// Payload does not start with [`BIN_MAGIC`].
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Unknown value tag byte.
    BadTag(u8),
    /// Payload ended inside a field (torn/truncated payload).
    Truncated,
    /// Bytes left over after the root object.
    TrailingBytes,
    /// A string or key was not valid UTF-8.
    BadUtf8,
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// A varint ran past 10 bytes (corrupt length).
    BadVarint,
}

/// A binary decode error with the byte offset it was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinError {
    /// What went wrong.
    pub kind: BinErrorKind,
    /// Byte offset into the payload.
    pub offset: usize,
}

impl BinError {
    fn new(kind: BinErrorKind, offset: usize) -> Self {
        BinError { kind, offset }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            BinErrorKind::BadMagic => "bad magic".to_string(),
            BinErrorKind::BadVersion(v) => format!("unsupported codec version {v}"),
            BinErrorKind::BadTag(t) => format!("unknown value tag {t:#04x}"),
            BinErrorKind::Truncated => "payload truncated mid-field".to_string(),
            BinErrorKind::TrailingBytes => "trailing bytes after root object".to_string(),
            BinErrorKind::BadUtf8 => "string is not valid UTF-8".to_string(),
            BinErrorKind::TooDeep => "nesting too deep".to_string(),
            BinErrorKind::BadVarint => "varint overflow".to_string(),
        };
        write!(f, "binary codec error at byte {}: {what}", self.offset)
    }
}

impl std::error::Error for BinError {}

/// Decodes a binary payload (as produced by [`encode_document`]) back into
/// a [`Document`]. The input is borrowed; only strings and containers
/// allocate. Never panics on malformed input — truncation, bad tags, and
/// corrupt varints all surface as [`BinError`]s.
pub fn decode_document(payload: &[u8]) -> Result<Document, BinError> {
    let mut r = BinReader { buf: payload, pos: 0 };
    let magic = r.take(4).map_err(|e| BinError::new(BinErrorKind::BadMagic, e.offset))?;
    if magic != BIN_MAGIC {
        return Err(BinError::new(BinErrorKind::BadMagic, 0));
    }
    let version = r.byte()?;
    if version != BIN_VERSION {
        return Err(BinError::new(BinErrorKind::BadVersion(version), 4));
    }
    let doc = r.object_body(0)?;
    if r.pos != payload.len() {
        return Err(BinError::new(BinErrorKind::TrailingBytes, r.pos));
    }
    Ok(doc)
}

pub(crate) struct BinReader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> BinReader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.buf.len() - self.pos < n {
            return Err(BinError::new(BinErrorKind::Truncated, self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn byte(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn varint(&mut self) -> Result<u64, BinError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(BinError::new(BinErrorKind::BadVarint, start));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint used as a length/count: additionally bounded by the bytes
    /// actually remaining, so a corrupt huge count fails fast instead of
    /// attempting a giant allocation.
    pub(crate) fn len_varint(&mut self) -> Result<usize, BinError> {
        let start = self.pos;
        let v = self.varint()?;
        if v > (self.buf.len() - self.pos) as u64 {
            return Err(BinError::new(BinErrorKind::Truncated, start));
        }
        Ok(v as usize)
    }

    /// A length-prefixed string, borrowed from the payload.
    pub(crate) fn str(&mut self) -> Result<&'a str, BinError> {
        let len = self.len_varint()?;
        let start = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| BinError::new(BinErrorKind::BadUtf8, start))
    }

    pub(crate) fn object_body(&mut self, depth: usize) -> Result<Document, BinError> {
        if depth > MAX_DEPTH {
            return Err(BinError::new(BinErrorKind::TooDeep, self.pos));
        }
        // A non-empty entry costs ≥ 3 bytes; `len_varint` bounded the count
        // by the remaining bytes, so this capacity cannot be DoS-sized.
        let count = self.len_varint()?;
        let mut doc = Document::with_capacity(count);
        for _ in 0..count {
            let key = self.str()?;
            let value = self.value(depth)?;
            doc.insert(key, value);
        }
        Ok(doc)
    }

    pub(crate) fn value(&mut self, depth: usize) -> Result<Value, BinError> {
        if depth > MAX_DEPTH {
            return Err(BinError::new(BinErrorKind::TooDeep, self.pos));
        }
        let at = self.pos;
        Ok(match self.byte()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(unzigzag(self.varint()?)),
            TAG_FLOAT => {
                let b = self.take(8)?;
                Value::Float(f64::from_bits(u64::from_be_bytes(b.try_into().expect("8 bytes"))))
            }
            TAG_STRING => Value::String(self.str()?.to_owned()),
            TAG_ARRAY => {
                let count = self.len_varint()?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            TAG_OBJECT => Value::Object(self.object_body(depth + 1)?),
            other => return Err(BinError::new(BinErrorKind::BadTag(other), at)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    fn sample() -> Document {
        doc! {
            "name" => "ada",
            "age" => 36i64,
            "negative" => -42i64,
            "score" => 1.5f64,
            "ok" => true,
            "missing" => Value::Null,
            "tags" => vec![Value::from("x"), Value::Null, Value::from(false)],
            "nested" => doc! { "a" => doc!{ "b" => i64::MIN }, "empty" => Document::new() },
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let bytes = encode_document(&d);
        assert_eq!(bytes[..4], BIN_MAGIC);
        assert_eq!(decode_document(&bytes).unwrap(), d);
    }

    #[test]
    fn empty_document_roundtrips() {
        let d = Document::new();
        assert_eq!(decode_document(&encode_document(&d)).unwrap(), d);
    }

    #[test]
    fn int_float_distinction_survives() {
        let d = doc! { "i" => 1i64, "f" => 1.0f64 };
        let back = decode_document(&encode_document(&d)).unwrap();
        assert_eq!(back.get("i"), Some(&Value::Int(1)));
        assert_eq!(back.get("f"), Some(&Value::Float(1.0)));
    }

    #[test]
    fn float_bits_survive() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let d = doc! { "f" => f };
            let back = decode_document(&encode_document(&d)).unwrap();
            match back.get("f") {
                Some(Value::Float(g)) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn int_extremes_roundtrip() {
        for i in [i64::MIN, i64::MAX, 0, -1, 1, 127, -128] {
            let d = doc! { "i" => i };
            assert_eq!(decode_document(&encode_document(&d)).unwrap().get("i"), Some(&Value::Int(i)));
        }
    }

    #[test]
    fn unicode_keys_and_strings() {
        let d = doc! { "ключ" => "значение", "🦀" => "crab" };
        assert_eq!(decode_document(&encode_document(&d)).unwrap(), d);
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = encode_document(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_document(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_document(&sample());
        bytes.push(0x00);
        assert_eq!(decode_document(&bytes).unwrap_err().kind, BinErrorKind::TrailingBytes);
    }

    #[test]
    fn bad_version_and_magic_rejected() {
        let mut bytes = encode_document(&doc! {});
        bytes[4] = 9;
        assert_eq!(decode_document(&bytes).unwrap_err().kind, BinErrorKind::BadVersion(9));
        let mut bytes = encode_document(&doc! {});
        bytes[0] = b'X';
        assert_eq!(decode_document(&bytes).unwrap_err().kind, BinErrorKind::BadMagic);
    }

    #[test]
    fn corrupt_count_fails_fast() {
        // Object body claiming u64::MAX entries must not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BIN_MAGIC);
        bytes.push(BIN_VERSION);
        bytes.extend_from_slice(&[0xFF; 10]); // varint overflow
        assert!(decode_document(&bytes).is_err());
    }

    #[test]
    fn trace_id_sniffing() {
        use invalidb_common::TraceContext;
        let trace = TraceContext::start(-7i64 as u64);
        let mut d = doc! { "op" => "write", "n" => 1i64 };
        d.insert("trace", trace.to_document());
        let bytes = encode_document(&d);
        assert_eq!(sniff_trace_id(&bytes), Some(-7));
        // Untraced payloads miss.
        assert_eq!(sniff_trace_id(&encode_document(&doc! { "op" => "write" })), None);
        // A *string* "trace" is not an embedded trace object.
        assert_eq!(sniff_trace_id(&encode_document(&doc! { "trace" => "zzz" })), None);
    }

    #[test]
    fn trace_sniffing_ignores_a_trace_field_inside_the_user_document() {
        let user_doc = doc! { "trace" => doc! { "id" => 5i64 } };
        let untraced = doc! { "op" => "write", "doc" => user_doc };
        assert_eq!(sniff_trace_id(&encode_document(&untraced)), None);
        // The envelope's own trace follows `doc` in a write envelope.
        let mut traced = untraced;
        traced.insert("trace", invalidb_common::TraceContext::start(9).to_document());
        assert_eq!(sniff_trace_id(&encode_document(&traced)), Some(9));
    }

    #[test]
    fn deep_nesting_rejected() {
        let mut v = Value::Null;
        for _ in 0..(MAX_DEPTH + 2) {
            v = Value::Array(vec![v]);
        }
        let mut d = Document::new();
        d.insert("deep", v);
        let bytes = encode_document(&d);
        assert_eq!(decode_document(&bytes).unwrap_err().kind, BinErrorKind::TooDeep);
    }
}
