//! JSON serializer for [`Value`]/[`Document`].

use invalidb_common::{Document, Value};

/// Serializes a document to a JSON string.
pub fn to_string(doc: &Document) -> String {
    let mut out = String::with_capacity(64);
    write_document(doc, &mut out);
    out
}

/// Serializes a document to JSON bytes.
pub fn to_bytes(doc: &Document) -> Vec<u8> {
    to_string(doc).into_bytes()
}

/// Appends the JSON encoding of a document to `out`.
pub fn write_document(doc: &Document, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in doc.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(k, out);
        out.push(':');
        write_value(v, out);
    }
    out.push('}');
}

/// Appends the JSON encoding of a value to `out`.
pub fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let mut buf = itoa_buf();
            out.push_str(write_i64(*i, &mut buf));
        }
        Value::Float(f) => write_float(*f, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(v, out);
            }
            out.push(']');
        }
        Value::Object(doc) => write_document(doc, out),
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("NaN");
    } else if f == f64::INFINITY {
        out.push_str("Infinity");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else {
        // `{:?}` prints the shortest representation that round-trips and
        // always includes a `.` or exponent, preserving the float/int
        // distinction on re-parse (e.g. `2.0`, `1e300`).
        use std::fmt::Write;
        write!(out, "{f:?}").expect("writing to String cannot fail");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// Small stack-allocated i64 formatter to avoid a heap allocation per number.
fn itoa_buf() -> [u8; 20] {
    [0u8; 20]
}

fn write_i64(mut v: i64, buf: &mut [u8; 20]) -> &str {
    if v == 0 {
        return "0";
    }
    let neg = v < 0;
    let mut pos = buf.len();
    // Work on the magnitude in u64 space so i64::MIN does not overflow.
    let mut mag = if neg { (v as i128).unsigned_abs() as u64 } else { v as u64 };
    v = 0;
    let _ = v;
    while mag > 0 {
        pos -= 1;
        buf[pos] = b'0' + (mag % 10) as u8;
        mag /= 10;
    }
    if neg {
        pos -= 1;
        buf[pos] = b'-';
    }
    std::str::from_utf8(&buf[pos..]).expect("digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_value;
    use invalidb_common::doc;

    #[test]
    fn serializes_scalars() {
        let d = doc! {
            "n" => Value::Null,
            "t" => true,
            "i" => 42i64,
            "neg" => -7i64,
            "min" => i64::MIN,
            "f" => 2.5f64,
            "whole" => 2.0f64,
            "s" => "hi",
        };
        let s = to_string(&d);
        assert_eq!(
            s,
            r#"{"n":null,"t":true,"i":42,"neg":-7,"min":-9223372036854775808,"f":2.5,"whole":2.0,"s":"hi"}"#
        );
    }

    #[test]
    fn float_int_distinction_survives_roundtrip() {
        let d = doc! { "a" => 2.0f64, "b" => 2i64 };
        let back = crate::parse::parse_document(&to_string(&d)).unwrap();
        assert_eq!(back.get("a"), Some(&Value::Float(2.0)));
        assert_eq!(back.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn escapes_strings() {
        let d = doc! { "s" => "a\"b\\c\n\t\u{1}" };
        let s = to_string(&d);
        assert_eq!(s, r#"{"s":"a\"b\\c\n\t\u0001"}"#);
        let back = crate::parse::parse_document(&s).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn special_floats_roundtrip() {
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            write_value(&Value::Float(f), &mut s);
            assert_eq!(parse_value(&s).unwrap(), Value::Float(f));
        }
        let mut s = String::new();
        write_value(&Value::Float(f64::NAN), &mut s);
        assert!(matches!(parse_value(&s).unwrap(), Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn unicode_passthrough() {
        let d = doc! { "s" => "héllo 😀" };
        let back = crate::parse::parse_document(&to_string(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn i64_formatter_edge_cases() {
        let mut buf = itoa_buf();
        assert_eq!(write_i64(0, &mut buf), "0");
        let mut buf = itoa_buf();
        assert_eq!(write_i64(i64::MAX, &mut buf), "9223372036854775807");
        let mut buf = itoa_buf();
        assert_eq!(write_i64(i64::MIN, &mut buf), "-9223372036854775808");
    }
}
