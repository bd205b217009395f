//! Property-based tests for the binary (`IVBD`) codec: round-trip
//! fidelity, deterministic encoding, and torn-payload robustness.

use bytes::Bytes;
use invalidb_common::{Document, Value};
use invalidb_json::{bin, payload_to_document, LazyDoc, WireCodec};
use proptest::prelude::*;

/// Every dotted path addressable in `doc` (object keys and array indices),
/// in depth-first order. Keys containing `.` are skipped — the dotted-path
/// grammar cannot address them, in the eager and lazy walkers alike.
fn all_paths(doc: &Document) -> Vec<String> {
    fn walk(prefix: &str, v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Object(d) => {
                for (k, vv) in d.iter() {
                    if k.contains('.') {
                        continue;
                    }
                    let p = if prefix.is_empty() { k.to_owned() } else { format!("{prefix}.{k}") };
                    out.push(p.clone());
                    walk(&p, vv, out);
                }
            }
            Value::Array(items) => {
                for (i, vv) in items.iter().enumerate() {
                    let p = format!("{prefix}.{i}");
                    out.push(p.clone());
                    walk(&p, vv, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk("", &Value::Object(doc.clone()), &mut out);
    out
}

/// Arbitrary values with unicode keys and strings, empty containers
/// included. Finite floats only: NaN breaks the PartialEq-based
/// assertions (bit-exact NaN round-trip is covered by unit tests in
/// `bin.rs`).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        "\\PC{0,16}".prop_map(Value::String),
    ];
    leaf.prop_recursive(4, 32, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec((key_strategy(), inner), 0..6)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect::<Document>())),
        ]
    })
}

/// Keys exercise the full unicode range (minus unassigned/control), not
/// just ASCII identifiers.
fn key_strategy() -> impl Strategy<Value = String> {
    "\\PC{1,12}"
}

fn document_strategy() -> impl Strategy<Value = Document> {
    prop::collection::vec((key_strategy(), value_strategy()), 0..8)
        .prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decoding yields the document, and the encoder is deterministic (two
    /// encodings of the same document are byte-identical — a consumer that
    /// re-publishes a decoded notification cannot introduce wire-level
    /// drift).
    #[test]
    fn binary_document_roundtrips(doc in document_strategy()) {
        let payload = WireCodec.encode(&doc);
        let back = payload_to_document(&payload).unwrap();
        prop_assert_eq!(&back, &doc);
        prop_assert_eq!(WireCodec.encode(&back), payload, "binary encoding must be deterministic");
    }

    /// Every proper prefix of a valid binary payload is an error — never a
    /// panic, never a silently-wrong document.
    #[test]
    fn truncated_binary_payload_errors_never_panics(doc in document_strategy()) {
        let full = WireCodec.encode(&doc);
        for cut in 0..full.len() {
            let torn = Bytes::copy_from_slice(&full[..cut]);
            prop_assert!(
                payload_to_document(&torn).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// Arbitrary bytes behind the magic must decode or fail cleanly.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(body in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut raw = b"IVBD".to_vec();
        raw.extend_from_slice(&body);
        let _ = payload_to_document(&Bytes::from(raw));
    }

    /// The lazy view agrees with eager decoding on every addressable path
    /// of an arbitrary document — `None`s included — and its full
    /// materialization is the eager result.
    #[test]
    fn lazy_paths_agree_with_eager_decode(doc in document_strategy()) {
        let payload = WireCodec.encode(&doc);
        let lazy = LazyDoc::new(&payload).unwrap();
        let eager = payload_to_document(&payload).unwrap();
        prop_assert_eq!(&lazy.materialize().unwrap(), &eager);
        let mut paths = all_paths(&eager);
        paths.push("__absent__".into());
        paths.push("__absent__.x.0".into());
        for path in &paths {
            let lazy_v = match lazy.get_path(path) {
                Ok(v) => v.map(|v| v.materialize().unwrap()),
                Err(e) => return Err(TestCaseError::fail(format!("path {path}: {e:?}"))),
            };
            prop_assert_eq!(lazy_v.as_ref(), eager.get_path(path), "path {}", path);
        }
    }

    /// Lazy access over every proper prefix of a valid payload: header
    /// validation or path walks may error, but must never panic, and a
    /// full materialization of a torn payload must never succeed.
    #[test]
    fn lazy_access_on_truncated_payload_never_panics(doc in document_strategy()) {
        let full = WireCodec.encode(&doc);
        let paths = all_paths(&doc);
        for cut in 0..full.len() {
            if let Ok(lazy) = LazyDoc::new(&full[..cut]) {
                prop_assert!(lazy.materialize().is_err(), "prefix of {} bytes materialized", cut);
                for path in &paths {
                    if let Ok(Some(v)) = lazy.get_path(path) {
                        let _ = v.materialize();
                    }
                }
                for entry in lazy.root().entries() {
                    if entry.is_err() {
                        break;
                    }
                }
            }
        }
    }

    /// Bit flips behind the header: lazy walks must fail cleanly or agree
    /// with the eager decoder. Whenever the eager decoder accepts the
    /// corrupted payload, the entry walk must reproduce its document
    /// (last duplicate wins, like eager insertion).
    #[test]
    fn lazy_access_on_corrupted_payload_never_panics(
        doc in document_strategy(),
        pos_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut raw = WireCodec.encode(&doc).to_vec();
        if raw.len() <= bin::BIN_MAGIC.len() + 1 {
            return Ok(());
        }
        let idx = bin::BIN_MAGIC.len()
            + ((raw.len() - bin::BIN_MAGIC.len() - 1) as f64 * pos_fraction) as usize;
        raw[idx] ^= 1 << bit;
        let lazy = match LazyDoc::new(&raw) {
            Ok(l) => l,
            Err(_) => return Ok(()), // header corruption: rejected up front
        };
        for path in all_paths(&doc) {
            if let Ok(Some(v)) = lazy.get_path(&path) {
                let _ = v.materialize();
            }
        }
        if let Ok(eager) = payload_to_document(&Bytes::from(raw.clone())) {
            let mut walked = Document::new();
            for entry in lazy.root().entries() {
                let (key, value) = entry.expect("eager-decodable payload, lazy walk failed");
                walked.insert(key, value.materialize().expect("eager-decodable value"));
            }
            prop_assert_eq!(walked, eager);
        }
    }

    /// Bit flips inside a valid payload must decode or fail cleanly; if
    /// they decode, re-encoding must be stable (no amplification of
    /// corruption into non-canonical states).
    #[test]
    fn corrupted_binary_payload_never_panics(
        doc in document_strategy(),
        pos_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut raw = WireCodec.encode(&doc).to_vec();
        if raw.len() <= bin::BIN_MAGIC.len() + 1 {
            return Ok(());
        }
        let idx = bin::BIN_MAGIC.len()
            + ((raw.len() - bin::BIN_MAGIC.len() - 1) as f64 * pos_fraction) as usize;
        raw[idx] ^= 1 << bit;
        if let Ok(decoded) = payload_to_document(&Bytes::from(raw)) {
            let reencoded = WireCodec.encode(&decoded);
            prop_assert_eq!(payload_to_document(&reencoded).unwrap(), decoded);
        }
    }
}
