//! Field-by-field document output.
//!
//! A message that is assembled from borrowed parts — a tenant here, an
//! after-image there — should not have to be copied into a [`Document`]
//! just to be serialized. [`FieldWriter`] is the sink such a message writes
//! itself into: the payload codec in `invalidb-json` implements it over a
//! byte buffer, and [`DocumentBuilder`] implements it over an owned tree, so a
//! layout is written down once and serves both.

use crate::document::Document;
use crate::value::Value;

/// Receiver of a document written one field at a time.
///
/// Container sizes are announced up front because the binary codec
/// length-prefixes them; a writer must then supply exactly that many
/// entries before the matching `end_*`. Inside an object every value is
/// preceded by its [`key`](FieldWriter::key).
pub trait FieldWriter {
    /// Opens an object (the root, or a value) with `fields` entries.
    fn begin_object(&mut self, fields: usize);
    /// Closes the innermost object.
    fn end_object(&mut self);
    /// Opens an array value with `len` items.
    fn begin_array(&mut self, len: usize);
    /// Closes the innermost array.
    fn end_array(&mut self);
    /// Names the next value of the innermost object.
    fn key(&mut self, key: &str);
    /// Writes a borrowed value.
    fn value(&mut self, value: &Value);
    /// Writes a borrowed document as an object value.
    fn document(&mut self, doc: &Document);
    /// Writes a string value.
    fn str(&mut self, s: &str);
    /// Writes an integer value.
    fn int(&mut self, i: i64) {
        self.value(&Value::Int(i));
    }
}

enum Frame {
    Object { doc: Document, key: String },
    Array(Vec<Value>),
}

/// A [`FieldWriter`] that builds an owned [`Document`].
#[derive(Default)]
pub struct DocumentBuilder {
    open: Vec<Frame>,
    root: Document,
}

impl DocumentBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document written so far (complete once the root object closed).
    pub fn finish(self) -> Document {
        self.root
    }

    fn push(&mut self, value: Value) {
        match self.open.last_mut() {
            Some(Frame::Object { doc, key }) => {
                doc.insert(key.as_str(), value);
            }
            Some(Frame::Array(items)) => items.push(value),
            None => {
                if let Value::Object(doc) = value {
                    self.root = doc;
                }
            }
        }
    }
}

impl FieldWriter for DocumentBuilder {
    fn begin_object(&mut self, fields: usize) {
        self.open.push(Frame::Object { doc: Document::with_capacity(fields), key: String::new() });
    }

    fn end_object(&mut self) {
        if let Some(Frame::Object { doc, .. }) = self.open.pop() {
            self.push(Value::Object(doc));
        }
    }

    fn begin_array(&mut self, len: usize) {
        self.open.push(Frame::Array(Vec::with_capacity(len)));
    }

    fn end_array(&mut self) {
        if let Some(Frame::Array(items)) = self.open.pop() {
            self.push(Value::Array(items));
        }
    }

    fn key(&mut self, key: &str) {
        if let Some(Frame::Object { key: slot, .. }) = self.open.last_mut() {
            key.clone_into(slot);
        }
    }

    fn value(&mut self, value: &Value) {
        self.push(value.clone());
    }

    fn document(&mut self, doc: &Document) {
        self.push(Value::Object(doc.clone()));
    }

    fn str(&mut self, s: &str) {
        self.push(Value::String(s.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn builder_assembles_nested_containers() {
        let inner = doc! { "n" => 1i64 };
        let mut b = DocumentBuilder::new();
        b.begin_object(4);
        b.key("name");
        b.str("ada");
        b.key("ids");
        b.begin_array(2);
        b.int(7);
        b.int(9);
        b.end_array();
        b.key("item");
        b.begin_object(2);
        b.key("doc");
        b.document(&inner);
        b.key("gone");
        b.value(&Value::Null);
        b.end_object();
        b.key("last");
        b.int(-1);
        b.end_object();
        assert_eq!(
            b.finish(),
            doc! {
                "name" => "ada",
                "ids" => vec![Value::Int(7), Value::Int(9)],
                "item" => doc! { "doc" => inner, "gone" => Value::Null },
                "last" => -1i64,
            }
        );
    }
}
