//! Insertion-ordered document type.
//!
//! Documents preserve field insertion order (like BSON documents) because
//! object comparison and the canonical hash encoding are order-sensitive.
//! Lookups are linear scans over a small `Vec`; documents in this domain are
//! records with a handful of attributes, where a `Vec` beats hash maps both
//! in memory and speed.
//!
//! Field names are *names*, not data: the same dozen short strings recur in
//! every record of a collection, and a document is decoded, cloned and
//! compared far more often than a name is ever looked at as text. They are
//! therefore stored inline in the entry (`FieldName`) and the API speaks
//! `&str` only — building, decoding and cloning a document allocate for its
//! values, never for its names.

use crate::value::Value;
use std::fmt;

/// Longest name stored inline. With the length byte and the enum tag this
/// makes a [`FieldName`] exactly as large as the `String` it replaces.
const INLINE_NAME: usize = 22;

/// A field name: up to [`INLINE_NAME`] bytes inline, longer ones boxed.
#[derive(Clone)]
enum FieldName {
    /// The first `len` bytes of `bytes` are the name — a whole `str`, copied
    /// by [`FieldName::new`] and never modified, hence valid UTF-8.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME],
    },
    Boxed(Box<str>),
}

// An entry must not grow: retained after-images and stored records are
// made of these.
const _: () = assert!(std::mem::size_of::<FieldName>() == std::mem::size_of::<String>());

impl FieldName {
    fn new(name: &str) -> Self {
        if name.len() <= INLINE_NAME {
            let mut bytes = [0; INLINE_NAME];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            FieldName::Inline { len: name.len() as u8, bytes }
        } else {
            FieldName::Boxed(name.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            FieldName::Inline { len, bytes } => &bytes[..*len as usize],
            FieldName::Boxed(name) => name.as_bytes(),
        }
    }

    /// The name as text. Lookups compare [`FieldName::as_bytes`] and skip
    /// the (at most 22-byte) validation this pays for an inline name.
    fn as_str(&self) -> &str {
        match self {
            FieldName::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline field name holds a whole str")
            }
            FieldName::Boxed(name) => name,
        }
    }

    fn is(&self, name: &str) -> bool {
        self.as_bytes() == name.as_bytes()
    }
}

impl PartialEq for FieldName {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// An ordered mapping from field names to [`Value`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    entries: Vec<(FieldName, Value)>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self { entries: Vec::new() }
    }

    /// Creates an empty document with capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Self { entries: Vec::with_capacity(n) }
    }

    /// Gives back the capacity the top-level fields do not use. For a
    /// document that is about to be kept: a document grown by `insert`
    /// carries up to twice the room it needs.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a top-level field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k.is(key)).map(|(_, v)| v)
    }

    /// Mutable lookup of a top-level field.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k.is(key)).map(|(_, v)| v)
    }

    /// True if the field exists at top level.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces a field, returning the previous value if any.
    /// Replacement keeps the field's original position; a new field appends.
    /// The name is copied into the entry, so a borrowed `&str` is all a
    /// caller needs to have.
    pub fn insert(&mut self, key: impl AsRef<str>, value: impl Into<Value>) -> Option<Value> {
        let key = key.as_ref();
        let value = value.into();
        match self.get_mut(key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((FieldName::new(key), value));
                None
            }
        }
    }

    /// Removes a field, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k.is(key))?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Resolves a dotted path (`"a.b.c"`) through nested objects.
    ///
    /// This is the *plain* resolution used by sort keys and the store: it
    /// descends through objects only and additionally supports numeric path
    /// segments as array indices (`"tags.0"`). The query engine layers
    /// MongoDB's implicit array fan-out on top of this in `invalidb-query`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut segments = path.split('.');
        let first = segments.next()?;
        let mut current = self.get(first)?;
        for seg in segments {
            current = match current {
                Value::Object(doc) => doc.get(seg)?,
                Value::Array(items) => {
                    let idx: usize = seg.parse().ok()?;
                    items.get(idx)?
                }
                _ => return None,
            };
        }
        Some(current)
    }

    /// Sets a dotted path, creating intermediate objects as needed.
    /// Returns the previous value at the path, if any. Fails (returns `Err`)
    /// when a non-object intermediate blocks the path.
    pub fn set_path(&mut self, path: &str, value: impl Into<Value>) -> Result<Option<Value>, PathError> {
        let segments: Vec<&str> = path.split('.').collect();
        set_path_inner(self, &segments, value.into())
    }

    /// Removes a dotted path, returning the removed value.
    pub fn remove_path(&mut self, path: &str) -> Option<Value> {
        let (head, tail) = match path.split_once('.') {
            Some((h, t)) => (h, Some(t)),
            None => (path, None),
        };
        match tail {
            None => self.remove(head),
            Some(rest) => match self.get_mut(head)? {
                Value::Object(doc) => doc.remove_path(rest),
                _ => None,
            },
        }
    }
}

/// Error when a `set_path` traversal hits a non-object value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// The path segment where traversal stopped.
    pub at: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot descend through non-object value at `{}`", self.at)
    }
}

impl std::error::Error for PathError {}

fn set_path_inner(
    doc: &mut Document,
    segments: &[&str],
    value: Value,
) -> Result<Option<Value>, PathError> {
    let (head, rest) = segments.split_first().expect("path has at least one segment");
    if rest.is_empty() {
        return Ok(doc.insert(*head, value));
    }
    if !doc.contains_key(head) {
        doc.insert(*head, Value::Object(Document::new()));
    }
    match doc.get_mut(head).expect("just inserted") {
        Value::Object(inner) => set_path_inner(inner, rest, value),
        _ => Err(PathError { at: (*head).to_owned() }),
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {v}", k.as_str())?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut doc = Document::new();
        for (k, v) in iter {
            doc.insert(k, v);
        }
        doc
    }
}

/// Owning iterator over a document's fields, in insertion order.
pub struct IntoIter(std::vec::IntoIter<(FieldName, Value)>);

impl Iterator for IntoIter {
    type Item = (String, Value);
    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_str().to_owned(), v))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl IntoIterator for Document {
    type Item = (String, Value);
    type IntoIter = IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter(self.entries.into_iter())
    }
}

/// Convenience macro for building documents in tests and examples.
///
/// ```
/// use invalidb_common::{doc, Value};
/// let d = doc! { "name" => "ada", "age" => 36i64, "tags" => vec!["a", "b"] };
/// assert_eq!(d.get("age"), Some(&Value::Int(36)));
/// ```
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut d = $crate::Document::new();
        $( d.insert($k, $v); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_preserves_order_and_replaces_in_place() {
        let mut d = Document::new();
        d.insert("b", 1i64);
        d.insert("a", 2i64);
        d.insert("b", 3i64);
        let keys: Vec<_> = d.keys().collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(d.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn dotted_path_resolution() {
        let d = doc! {
            "user" => doc! { "name" => "ada", "emails" => vec!["a@x", "b@x"] },
        };
        assert_eq!(d.get_path("user.name"), Some(&Value::String("ada".into())));
        assert_eq!(d.get_path("user.emails.1"), Some(&Value::String("b@x".into())));
        assert_eq!(d.get_path("user.emails.7"), None);
        assert_eq!(d.get_path("user.missing"), None);
        assert_eq!(d.get_path("missing.name"), None);
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut d = Document::new();
        d.set_path("a.b.c", 1i64).unwrap();
        assert_eq!(d.get_path("a.b.c"), Some(&Value::Int(1)));
        let prev = d.set_path("a.b.c", 2i64).unwrap();
        assert_eq!(prev, Some(Value::Int(1)));
    }

    #[test]
    fn set_path_rejects_non_object_intermediate() {
        let mut d = doc! { "a" => 5i64 };
        let err = d.set_path("a.b", 1i64).unwrap_err();
        assert_eq!(err.at, "a");
    }

    #[test]
    fn remove_path_nested() {
        let mut d = doc! { "a" => doc! { "b" => 1i64, "c" => 2i64 } };
        assert_eq!(d.remove_path("a.b"), Some(Value::Int(1)));
        assert_eq!(d.get_path("a.b"), None);
        assert_eq!(d.get_path("a.c"), Some(&Value::Int(2)));
        assert_eq!(d.remove_path("a.b"), None);
    }

    #[test]
    fn from_iterator_dedups_by_insert_semantics() {
        let d: Document =
            vec![("x".to_owned(), Value::Int(1)), ("x".to_owned(), Value::Int(2))].into_iter().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("x"), Some(&Value::Int(2)));
    }
}
