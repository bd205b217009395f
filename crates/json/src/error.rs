//! Codec errors.

use std::fmt;

/// What went wrong while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Unexpected end of input.
    UnexpectedEof,
    /// Unexpected character.
    UnexpectedChar(char),
    /// Malformed number literal.
    BadNumber,
    /// Malformed string escape sequence.
    BadEscape,
    /// Lone or mismatched UTF-16 surrogate in a `\u` escape.
    BadSurrogate,
    /// Nesting exceeded the depth limit (guards against stack overflow on
    /// adversarial payloads — the event layer is a trust boundary).
    TooDeep,
    /// Document root was not a JSON object.
    RootNotObject,
    /// Trailing non-whitespace input after the value.
    TrailingInput,
}

/// Parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Error category.
    pub kind: JsonErrorKind,
    /// Byte offset where the error was detected.
    pub offset: usize,
}

impl JsonError {
    pub(crate) fn new(kind: JsonErrorKind, offset: usize) -> Self {
        Self { kind, offset }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_owned(),
            JsonErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            JsonErrorKind::BadNumber => "malformed number".to_owned(),
            JsonErrorKind::BadEscape => "malformed string escape".to_owned(),
            JsonErrorKind::BadSurrogate => "invalid UTF-16 surrogate pair".to_owned(),
            JsonErrorKind::TooDeep => "nesting too deep".to_owned(),
            JsonErrorKind::RootNotObject => "document root must be an object".to_owned(),
            JsonErrorKind::TrailingInput => "trailing input after value".to_owned(),
        };
        write!(f, "JSON parse error at byte {}: {}", self.offset, what)
    }
}

impl std::error::Error for JsonError {}
