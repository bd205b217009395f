//! Recursive-descent JSON parser producing [`Value`]/[`Document`].

use crate::error::{JsonError, JsonErrorKind};
use invalidb_common::{Document, Value};
use std::borrow::Cow;

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON value from `text` (entire input must be consumed).
pub fn parse_value(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(text);
    let v = p.value(0)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err(JsonErrorKind::TrailingInput));
    }
    Ok(v)
}

/// Parses a JSON object from `text` into a [`Document`].
pub fn parse_document(text: &str) -> Result<Document, JsonError> {
    match parse_value(text)? {
        Value::Object(doc) => Ok(doc),
        _ => Err(JsonError::new(JsonErrorKind::RootNotObject, 0)),
    }
}

/// Streaming JSON parser over a borrowed string.
pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the given input.
    pub fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError::new(kind, self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                self.pos -= 1;
                Err(self.err(JsonErrorKind::UnexpectedChar(got as char)))
            }
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parses one JSON value at the current position.
    pub fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'{') => self.object(depth).map(Value::Object),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(|s| Value::String(s.as_ref().into())),
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err(JsonErrorKind::UnexpectedChar('t')))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err(JsonErrorKind::UnexpectedChar('f')))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err(JsonErrorKind::UnexpectedChar('n')))
                }
            }
            Some(b'N') => {
                if self.eat_keyword("NaN") {
                    Ok(Value::Float(f64::NAN))
                } else {
                    Err(self.err(JsonErrorKind::UnexpectedChar('N')))
                }
            }
            Some(b'I') => {
                if self.eat_keyword("Infinity") {
                    Ok(Value::Float(f64::INFINITY))
                } else {
                    Err(self.err(JsonErrorKind::UnexpectedChar('I')))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(JsonErrorKind::UnexpectedChar(c as char))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Document, JsonError> {
        self.expect(b'{')?;
        let mut doc = Document::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(doc);
        }
        loop {
            self.skip_ws();
            // A name is borrowed from the input unless it has escapes.
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            doc.insert(&*key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(doc),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.err(JsonErrorKind::UnexpectedChar(c as char)));
                }
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(c) => {
                    self.pos -= 1;
                    return Err(self.err(JsonErrorKind::UnexpectedChar(c as char)));
                }
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    /// A string literal: borrowed from the input when it is one run of plain
    /// bytes (every field name in practice), assembled when it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: take a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Input is known-valid UTF-8 (constructed from &str), and a run
            // ends before an ASCII byte, so on a character boundary.
            let run = std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is valid UTF-8");
            match self.bump() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(b'"') if out.is_empty() => return Ok(Cow::Borrowed(run)),
                Some(b'"') => {
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.escape(&mut out)?
                }
                Some(c) if c < 0x20 => {
                    self.pos -= 1;
                    return Err(self.err(JsonErrorKind::UnexpectedChar(c as char)));
                }
                Some(_) => unreachable!("fast path consumed plain bytes"),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.bump() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'"') => {
                out.push('"');
                Ok(())
            }
            Some(b'\\') => {
                out.push('\\');
                Ok(())
            }
            Some(b'/') => {
                out.push('/');
                Ok(())
            }
            Some(b'b') => {
                out.push('\u{0008}');
                Ok(())
            }
            Some(b'f') => {
                out.push('\u{000C}');
                Ok(())
            }
            Some(b'n') => {
                out.push('\n');
                Ok(())
            }
            Some(b'r') => {
                out.push('\r');
                Ok(())
            }
            Some(b't') => {
                out.push('\t');
                Ok(())
            }
            Some(b'u') => {
                let hi = self.hex4()?;
                let ch = if (0xD800..=0xDBFF).contains(&hi) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err(JsonErrorKind::BadSurrogate));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(self.err(JsonErrorKind::BadSurrogate));
                    }
                    let code = 0x10000 + (((hi - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32;
                    char::from_u32(code).ok_or_else(|| self.err(JsonErrorKind::BadSurrogate))?
                } else if (0xDC00..=0xDFFF).contains(&hi) {
                    return Err(self.err(JsonErrorKind::BadSurrogate));
                } else {
                    char::from_u32(hi as u32).ok_or_else(|| self.err(JsonErrorKind::BadSurrogate))?
                };
                out.push(ch);
                Ok(())
            }
            Some(_) => {
                self.pos -= 1;
                Err(self.err(JsonErrorKind::BadEscape))
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err(JsonErrorKind::UnexpectedEof))?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => {
                    self.pos -= 1;
                    return Err(self.err(JsonErrorKind::BadEscape));
                }
            };
            v = (v << 4) | digit as u16;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_keyword("Infinity") {
                return Ok(Value::Float(f64::NEG_INFINITY));
            }
        }
        let mut is_float = false;
        // Integer part.
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err(JsonErrorKind::BadNumber));
        }
        // Leading-zero rule: "0" ok, "01" not.
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(JsonError::new(JsonErrorKind::BadNumber, int_start));
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            // Out-of-range integer literal falls back to float.
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError::new(JsonErrorKind::BadNumber, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    #[test]
    fn scalars() {
        assert_eq!(parse_value("null").unwrap(), Value::Null);
        assert_eq!(parse_value("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_value("4.25").unwrap(), Value::Float(4.25));
        assert_eq!(parse_value("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse_value("-2.5e-1").unwrap(), Value::Float(-0.25));
        assert_eq!(parse_value("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn int_float_distinction() {
        assert_eq!(parse_value("5").unwrap(), Value::Int(5));
        assert_eq!(parse_value("5.0").unwrap(), Value::Float(5.0));
        assert!(matches!(parse_value("5e0").unwrap(), Value::Float(_)));
    }

    #[test]
    fn i64_boundaries() {
        assert_eq!(parse_value("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(parse_value("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        // One beyond: falls back to float.
        assert!(matches!(parse_value("9223372036854775808").unwrap(), Value::Float(_)));
    }

    #[test]
    fn special_floats() {
        assert!(matches!(parse_value("NaN").unwrap(), Value::Float(f) if f.is_nan()));
        assert_eq!(parse_value("Infinity").unwrap(), Value::Float(f64::INFINITY));
        assert_eq!(parse_value("-Infinity").unwrap(), Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn nested_structures() {
        let v = parse_value(r#" { "a" : [1, {"b": null}, "x"] , "c": {} } "#).unwrap();
        let expect = doc! {
            "a" => vec![Value::Int(1), Value::Object(doc!{ "b" => Value::Null }), Value::from("x")],
            "c" => doc! {},
        };
        assert_eq!(v, Value::Object(expect));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_value(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap(),
            Value::String("a\"b\\c/d\u{8}\u{c}\n\r\t".into())
        );
        assert_eq!(parse_value(r#""é""#).unwrap(), Value::String("é".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse_value(r#""😀""#).unwrap(), Value::String("😀".into()));
    }

    #[test]
    fn bad_surrogates_rejected() {
        assert!(parse_value(r#""\ud83d""#).is_err());
        assert!(parse_value(r#""\ud83dA""#).is_err());
        assert!(parse_value(r#""\udc00""#).is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse_value("{\"a\": 01}").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::BadNumber);
        assert_eq!(e.offset, 6);
        assert!(parse_value("[1, ]").is_err());
        assert!(parse_value("{\"a\" 1}").is_err());
        assert!(parse_value("tru").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = parse_value(&deep).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_value(&ok).is_ok());
    }

    #[test]
    fn document_root_must_be_object() {
        assert!(parse_document("[1]").is_err());
        assert!(parse_document("{\"a\": 1}").is_ok());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let d = parse_document(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn control_chars_in_strings_rejected() {
        assert!(parse_value("\"a\nb\"").is_err());
    }
}
