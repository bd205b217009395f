//! Field names across the inline/boxed boundary, on the wire.
//!
//! A `Document` keeps a name of up to 22 bytes inside the entry and boxes a
//! longer one; the decoders hand it names borrowed from the payload. None of
//! that may show in a single byte: for names of 0, 1, 22, 23 and 64 bytes
//! (and multi-byte characters ending on and past the boundary) the payload
//! codec and the JSON text codec must produce exactly the bytes spelled out
//! by hand below, decode them back to the same document — eagerly, lazily
//! and through the text parser with escapes — and keep resolving duplicates
//! last-wins.

use bytes::Bytes;
use invalidb_common::{Document, Value};
use invalidb_json::{bin, parse_document, payload_to_document, to_string, LazyDoc, WireCodec};
use proptest::prelude::*;

/// Names on both sides of the boundary that need no JSON escaping.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,3}",
        Just("x".repeat(22)),
        Just("x".repeat(23)),
        Just("x".repeat(64)),
        Just("é".repeat(11)),
        Just(format!("a{}", "é".repeat(11))),
        "[a-zà-ÿ]{20,26}",
    ]
}

fn varint(mut v: u64, out: &mut Vec<u8>) {
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

/// The binary payload of a flat document of small non-negative integers,
/// written out from the layout in `bin.rs`'s module docs.
fn binary_by_hand(fields: &[(String, i64)]) -> Vec<u8> {
    let mut out = b"IVBD\x01".to_vec();
    varint(fields.len() as u64, &mut out);
    for (name, value) in fields {
        varint(name.len() as u64, &mut out);
        out.extend_from_slice(name.as_bytes());
        out.push(0x03);
        varint((*value as u64) << 1, &mut out); // zigzag of a non-negative
    }
    out
}

fn json_by_hand(fields: &[(String, i64)]) -> String {
    let body: Vec<String> = fields.iter().map(|(name, value)| format!("\"{name}\":{value}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Keeps the last value of a repeated name at the name's first position,
/// like `Document::insert`.
fn last_wins(fields: &[(String, i64)]) -> Vec<(String, i64)> {
    let mut out: Vec<(String, i64)> = Vec::new();
    for (name, value) in fields {
        match out.iter_mut().find(|(k, _)| k == name) {
            Some((_, slot)) => *slot = *value,
            None => out.push((name.clone(), *value)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_codecs_write_the_bytes_spelled_out_by_hand(
        fields in prop::collection::vec((name_strategy(), 0i64..1_000_000), 0..8),
    ) {
        let unique = last_wins(&fields);
        let doc: Document = unique.iter().map(|(k, v)| (k.clone(), Value::Int(*v))).collect();
        let binary = WireCodec.encode(&doc);
        prop_assert_eq!(&binary[..], &binary_by_hand(&unique)[..]);
        let json = to_string(&doc);
        prop_assert_eq!(&json, &json_by_hand(&unique));
        // And back, through every decoder.
        prop_assert_eq!(&payload_to_document(&binary).unwrap(), &doc);
        prop_assert_eq!(&parse_document(&json).unwrap(), &doc);
        prop_assert_eq!(&LazyDoc::new(&binary).unwrap().materialize().unwrap(), &doc);
        let lazy = LazyDoc::new(&binary).unwrap();
        for (name, value) in &unique {
            prop_assert_eq!(lazy.get(name).unwrap().and_then(|v| v.as_i64()), Some(*value));
        }
    }

    #[test]
    fn decoders_resolve_repeated_names_last_wins(
        fields in prop::collection::vec((name_strategy(), 0i64..1_000_000), 1..8),
        again in 0i64..1_000_000,
    ) {
        // The first name once more at the end, whatever its length.
        let mut wire = fields.clone();
        wire.push((fields[0].0.clone(), again));
        let expected: Document =
            last_wins(&wire).into_iter().map(|(k, v)| (k, Value::Int(v))).collect();
        let binary = Bytes::from(binary_by_hand(&wire));
        prop_assert_eq!(&bin::decode_document(&binary).unwrap(), &expected);
        prop_assert_eq!(&parse_document(&json_by_hand(&wire)).unwrap(), &expected);
        let lazy = LazyDoc::new(&binary).unwrap();
        prop_assert_eq!(lazy.get(&fields[0].0).unwrap().and_then(|v| v.as_i64()), Some(again));
    }
}

#[test]
fn escaped_names_decode_to_the_same_name_as_plain_ones() {
    // The text parser borrows a plain name from its input and assembles an
    // escaped one; both must land on the same field, inline or boxed.
    for len in [1usize, 22, 23, 64] {
        let name = "n".repeat(len);
        let escaped = format!("\\u006e{}", "n".repeat(len - 1));
        let doc = parse_document(&format!("{{\"{name}\":1,\"{escaped}\":2}}")).unwrap();
        assert_eq!(doc.len(), 1, "{len}-byte name");
        assert_eq!(doc.get(&name), Some(&Value::Int(2)));
    }
    let doc = parse_document(r#"{"a\"b":1,"tab\there":2,"":3}"#).unwrap();
    assert_eq!(doc.keys().collect::<Vec<_>>(), ["a\"b", "tab\there", ""]);
}
