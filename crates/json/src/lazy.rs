//! Zero-copy views over binary (`IVBD`) payloads.
//!
//! [`decode_document`](crate::bin::decode_document) materializes the whole
//! tree — every key, string and nested container becomes an owned
//! allocation even when the consumer only needs two or three envelope
//! fields. [`LazyDoc`] is the borrowed alternative: a validated window onto
//! the wire bytes that resolves field access by **skip-scanning** the
//! tag/varint layout of [`crate::bin`], allocating nothing until a subtree
//! is explicitly [`materialize`](LazyValue::materialize)d. This is what the
//! cluster's ingestion tier runs on — an after-image envelope is a handful
//! of scalar fields plus one `doc` subtree, and only that subtree needs to
//! become an owned [`Document`].
//!
//! Semantics mirror the eager decoder exactly where both are defined:
//!
//! * duplicate keys resolve **last-wins** (eager decoding inserts into a
//!   [`Document`], whose `insert` replaces in place);
//! * [`LazyDoc::get_path`] walks dotted paths with numeric array indices,
//!   matching `Document::get_path`;
//! * structural corruption (truncation, bad tags, overlong varints, over-
//!   deep nesting) surfaces as the same [`BinError`]s — never a panic.
//!
//! Two documented deviations, both on inputs the eager decoder rejects
//! outright: a lazy access never validates UTF-8 of strings it merely
//! skips over, and bytes trailing the root object go unnoticed unless
//! [`LazyDoc::materialize`] is called (which re-checks, like the eager
//! path).

use crate::bin::{
    self, BinError, BinErrorKind, BinReader, BIN_MAGIC, BIN_VERSION, MAX_DEPTH, TAG_ARRAY, TAG_FALSE,
    TAG_FLOAT, TAG_INT, TAG_NULL, TAG_OBJECT, TAG_STRING, TAG_TRUE,
};
use invalidb_common::{Document, Value};

/// A borrowed, lazily resolved view over a binary payload's root object.
///
/// Construction ([`LazyDoc::new`]) validates only the magic and version
/// header; every access re-walks the needed prefix of the object body, so
/// corruption anywhere on the walked path is still reported exactly like
/// the eager decoder would.
#[derive(Clone, Copy)]
pub struct LazyDoc<'a> {
    /// The full payload (offsets in errors are payload-relative).
    buf: &'a [u8],
}

impl<'a> LazyDoc<'a> {
    /// Wraps a binary payload, validating the `IVBD` magic and version.
    /// The object body is *not* walked here — malformed bodies surface on
    /// first access instead.
    pub fn new(payload: &'a [u8]) -> Result<LazyDoc<'a>, BinError> {
        if payload.len() < 5 {
            return Err(BinError { kind: BinErrorKind::Truncated, offset: payload.len() });
        }
        if payload[..4] != BIN_MAGIC {
            return Err(BinError { kind: BinErrorKind::BadMagic, offset: 0 });
        }
        if payload[4] != BIN_VERSION {
            return Err(BinError { kind: BinErrorKind::BadVersion(payload[4]), offset: 4 });
        }
        Ok(LazyDoc { buf: payload })
    }

    /// The root object as a [`LazyObject`].
    pub fn root(&self) -> LazyObject<'a> {
        LazyObject { buf: self.buf, pos: 5, depth: 0 }
    }

    /// Resolves a top-level field without materializing anything else.
    /// `Ok(None)` means "well-formed but no such key"; `Err` means the
    /// scan hit corruption before the object body ended.
    pub fn get(&self, key: &str) -> Result<Option<LazyValue<'a>>, BinError> {
        self.root().get(key)
    }

    /// Resolves a dotted path (`"doc.tags.0"`) through nested objects and
    /// arrays, mirroring `Document::get_path`: objects descend by key,
    /// arrays by numeric segment, scalars terminate the walk with `None`.
    pub fn get_path(&self, path: &str) -> Result<Option<LazyValue<'a>>, BinError> {
        let mut segments = path.split('.');
        let first = match segments.next() {
            Some(s) => s,
            None => return Ok(None),
        };
        let mut current = match self.get(first)? {
            Some(v) => v,
            None => return Ok(None),
        };
        for seg in segments {
            current = match current {
                LazyValue::Object(obj) => match obj.get(seg)? {
                    Some(v) => v,
                    None => return Ok(None),
                },
                LazyValue::Array(arr) => {
                    let idx: usize = match seg.parse() {
                        Ok(i) => i,
                        Err(_) => return Ok(None),
                    };
                    match arr.get(idx)? {
                        Some(v) => v,
                        None => return Ok(None),
                    }
                }
                _ => return Ok(None),
            };
        }
        Ok(Some(current))
    }

    /// Eagerly decodes the whole payload — exactly
    /// [`bin::decode_document`], trailing-bytes check included.
    pub fn materialize(&self) -> Result<Document, BinError> {
        bin::decode_document(self.buf)
    }
}

/// A borrowed value inside a binary payload. Scalars are decoded in place;
/// containers stay as lazy windows.
#[derive(Clone, Copy)]
pub enum LazyValue<'a> {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A double-precision float.
    Float(f64),
    /// A borrowed string slice (UTF-8 validated on access).
    Str(&'a str),
    /// A lazy array window.
    Array(LazyArray<'a>),
    /// A lazy object window.
    Object(LazyObject<'a>),
}

impl<'a> LazyValue<'a> {
    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            LazyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            LazyValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            LazyValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object window, if this is an object.
    pub fn as_object(&self) -> Option<LazyObject<'a>> {
        match self {
            LazyValue::Object(o) => Some(*o),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, LazyValue::Null)
    }

    /// Converts into an owned [`Value`], decoding any contained subtree
    /// eagerly (the one place a lazy access allocates).
    pub fn materialize(&self) -> Result<Value, BinError> {
        Ok(match self {
            LazyValue::Null => Value::Null,
            LazyValue::Bool(b) => Value::Bool(*b),
            LazyValue::Int(i) => Value::Int(*i),
            LazyValue::Float(f) => Value::Float(*f),
            LazyValue::Str(s) => Value::String((*s).to_owned()),
            LazyValue::Array(arr) => Value::Array(arr.materialize()?),
            LazyValue::Object(obj) => Value::Object(obj.materialize()?),
        })
    }
}

/// A lazy window onto an encoded object body (positioned at its entry-count
/// varint). `Copy`: carrying one around costs a pointer and two integers.
#[derive(Clone, Copy)]
pub struct LazyObject<'a> {
    buf: &'a [u8],
    /// Offset of the entry-count varint.
    pos: usize,
    /// Nesting depth of this object (root = 0), bounding recursion.
    depth: usize,
}

impl<'a> LazyObject<'a> {
    /// Resolves a field by key (last duplicate wins, like eager decoding).
    /// The whole object body is skip-scanned so corruption behind the hit
    /// is still detected.
    pub fn get(&self, key: &str) -> Result<Option<LazyValue<'a>>, BinError> {
        let mut r = BinReader { buf: self.buf, pos: self.pos };
        let count = r.len_varint()?;
        let mut found = None;
        for _ in 0..count {
            let klen = r.len_varint()?;
            let kbytes = r.take(klen)?;
            if kbytes == key.as_bytes() {
                found = Some(read_lazy_value(&mut r, self.depth + 1)?);
            } else {
                skip_value(&mut r, self.depth + 1)?;
            }
        }
        Ok(found)
    }

    /// Iterates `(key, value)` entries in wire order. Each call to
    /// `next()` decodes one key slice and wraps one value lazily.
    pub fn entries(&self) -> LazyEntries<'a> {
        LazyEntries { r: BinReader { buf: self.buf, pos: self.pos }, remaining: None, depth: self.depth }
    }

    /// Number of entries on the wire (duplicates counted separately).
    pub fn len(&self) -> Result<usize, BinError> {
        let mut r = BinReader { buf: self.buf, pos: self.pos };
        r.len_varint()
    }

    /// True when the object has no entries.
    pub fn is_empty(&self) -> Result<bool, BinError> {
        Ok(self.len()? == 0)
    }

    /// Eagerly decodes this object subtree into an owned [`Document`].
    pub fn materialize(&self) -> Result<Document, BinError> {
        let mut r = BinReader { buf: self.buf, pos: self.pos };
        r.object_body(self.depth)
    }
}

/// Iterator over a [`LazyObject`]'s entries. Yields `Err` once and then
/// `None` if the body is corrupt.
pub struct LazyEntries<'a> {
    r: BinReader<'a>,
    /// `None` until the count varint is read on the first `next()`.
    remaining: Option<usize>,
    depth: usize,
}

impl<'a> Iterator for LazyEntries<'a> {
    type Item = Result<(&'a str, LazyValue<'a>), BinError>;

    fn next(&mut self) -> Option<Self::Item> {
        let remaining = match self.remaining {
            Some(n) => n,
            None => match self.r.len_varint() {
                Ok(n) => {
                    self.remaining = Some(n);
                    n
                }
                Err(e) => {
                    self.remaining = Some(0);
                    return Some(Err(e));
                }
            },
        };
        if remaining == 0 {
            return None;
        }
        self.remaining = Some(remaining - 1);
        let entry = (|| {
            let klen = self.r.len_varint()?;
            let start = self.r.pos;
            let kbytes = self.r.take(klen)?;
            let key = std::str::from_utf8(kbytes)
                .map_err(|_| BinError { kind: BinErrorKind::BadUtf8, offset: start })?;
            let value = read_lazy_value(&mut self.r, self.depth + 1)?;
            Ok((key, value))
        })();
        if entry.is_err() {
            self.remaining = Some(0); // poison: the stream position is lost
        }
        Some(entry)
    }
}

/// A lazy window onto an encoded array (positioned at its item-count
/// varint).
#[derive(Clone, Copy)]
pub struct LazyArray<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> LazyArray<'a> {
    /// Resolves the item at `index`, skip-scanning the items before it.
    pub fn get(&self, index: usize) -> Result<Option<LazyValue<'a>>, BinError> {
        let mut r = BinReader { buf: self.buf, pos: self.pos };
        let count = r.len_varint()?;
        if index >= count {
            return Ok(None);
        }
        for _ in 0..index {
            skip_value(&mut r, self.depth + 1)?;
        }
        Ok(Some(read_lazy_value(&mut r, self.depth + 1)?))
    }

    /// Number of items on the wire.
    pub fn len(&self) -> Result<usize, BinError> {
        let mut r = BinReader { buf: self.buf, pos: self.pos };
        r.len_varint()
    }

    /// True when the array has no items.
    pub fn is_empty(&self) -> Result<bool, BinError> {
        Ok(self.len()? == 0)
    }

    /// Iterates the items in wire order.
    pub fn items(&self) -> LazyItems<'a> {
        LazyItems { r: BinReader { buf: self.buf, pos: self.pos }, remaining: None, depth: self.depth }
    }

    /// Eagerly decodes this array subtree into owned [`Value`]s.
    pub fn materialize(&self) -> Result<Vec<Value>, BinError> {
        let mut out = Vec::new();
        for item in self.items() {
            out.push(item?.materialize()?);
        }
        Ok(out)
    }
}

/// Iterator over a [`LazyArray`]'s items. Yields `Err` once and then
/// `None` if the body is corrupt.
pub struct LazyItems<'a> {
    r: BinReader<'a>,
    remaining: Option<usize>,
    depth: usize,
}

impl<'a> Iterator for LazyItems<'a> {
    type Item = Result<LazyValue<'a>, BinError>;

    fn next(&mut self) -> Option<Self::Item> {
        let remaining = match self.remaining {
            Some(n) => n,
            None => match self.r.len_varint() {
                Ok(n) => {
                    self.remaining = Some(n);
                    n
                }
                Err(e) => {
                    self.remaining = Some(0);
                    return Some(Err(e));
                }
            },
        };
        if remaining == 0 {
            return None;
        }
        self.remaining = Some(remaining - 1);
        let item = read_lazy_value(&mut self.r, self.depth + 1);
        if item.is_err() {
            self.remaining = Some(0);
        }
        Some(item)
    }
}

/// Reads one value at the cursor: scalars decode in place, containers wrap
/// lazily — and are then *skipped* so the cursor lands after the value.
fn read_lazy_value<'a>(r: &mut BinReader<'a>, depth: usize) -> Result<LazyValue<'a>, BinError> {
    if depth > MAX_DEPTH {
        return Err(BinError { kind: BinErrorKind::TooDeep, offset: r.pos });
    }
    let at = r.pos;
    Ok(match r.byte()? {
        TAG_NULL => LazyValue::Null,
        TAG_FALSE => LazyValue::Bool(false),
        TAG_TRUE => LazyValue::Bool(true),
        TAG_INT => LazyValue::Int(bin::unzigzag(r.varint()?)),
        TAG_FLOAT => {
            let b = r.take(8)?;
            LazyValue::Float(f64::from_bits(u64::from_be_bytes(b.try_into().expect("8 bytes"))))
        }
        TAG_STRING => {
            let len = r.len_varint()?;
            let start = r.pos;
            let bytes = r.take(len)?;
            LazyValue::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| BinError { kind: BinErrorKind::BadUtf8, offset: start })?,
            )
        }
        TAG_ARRAY => {
            let window = LazyArray { buf: r.buf, pos: r.pos, depth };
            skip_container_body(r, depth, false)?;
            LazyValue::Array(window)
        }
        TAG_OBJECT => {
            let window = LazyObject { buf: r.buf, pos: r.pos, depth };
            skip_container_body(r, depth, true)?;
            LazyValue::Object(window)
        }
        tag => return Err(BinError { kind: BinErrorKind::BadTag(tag), offset: at }),
    })
}

/// Advances the cursor past one encoded value without decoding strings or
/// building containers. Structural corruption (truncation, bad tags, bad
/// varints, over-deep nesting) is still detected; non-UTF-8 in skipped
/// strings is not (the eager decoder would reject it — a documented
/// deviation on inputs the eager path refuses entirely).
fn skip_value(r: &mut BinReader<'_>, depth: usize) -> Result<(), BinError> {
    if depth > MAX_DEPTH {
        return Err(BinError { kind: BinErrorKind::TooDeep, offset: r.pos });
    }
    let at = r.pos;
    match r.byte()? {
        TAG_NULL | TAG_FALSE | TAG_TRUE => {}
        TAG_INT => {
            r.varint()?;
        }
        TAG_FLOAT => {
            r.take(8)?;
        }
        TAG_STRING => {
            let len = r.len_varint()?;
            r.take(len)?;
        }
        TAG_ARRAY => skip_container_body(r, depth, false)?,
        TAG_OBJECT => skip_container_body(r, depth, true)?,
        tag => return Err(BinError { kind: BinErrorKind::BadTag(tag), offset: at }),
    }
    Ok(())
}

/// Skips a container body (cursor at the count varint). `keyed` selects
/// object layout (length-prefixed key before each value).
fn skip_container_body(r: &mut BinReader<'_>, depth: usize, keyed: bool) -> Result<(), BinError> {
    let count = r.len_varint()?;
    for _ in 0..count {
        if keyed {
            let klen = r.len_varint()?;
            r.take(klen)?;
        }
        skip_value(r, depth + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::encode_document;
    use invalidb_common::doc;

    fn payload() -> Vec<u8> {
        encode_document(&doc! {
            "op" => "write",
            "version" => 42i64,
            "flag" => true,
            "pi" => 3.5f64,
            "nothing" => Value::Null,
            "doc" => doc! { "n" => 7i64, "tags" => vec![Value::from("a"), Value::from("b")] },
            "arr" => vec![Value::Int(1), Value::Object(doc! { "x" => 2i64 })],
        })
    }

    #[test]
    fn scalar_access_without_materializing() {
        let bytes = payload();
        let lazy = LazyDoc::new(&bytes).unwrap();
        assert_eq!(lazy.get("op").unwrap().unwrap().as_str(), Some("write"));
        assert_eq!(lazy.get("version").unwrap().unwrap().as_i64(), Some(42));
        assert_eq!(lazy.get("flag").unwrap().unwrap().as_bool(), Some(true));
        assert!(matches!(lazy.get("pi").unwrap().unwrap(), LazyValue::Float(f) if f == 3.5));
        assert!(lazy.get("nothing").unwrap().unwrap().is_null());
        assert!(lazy.get("absent").unwrap().is_none());
    }

    #[test]
    fn nested_paths_match_document_get_path() {
        let bytes = payload();
        let lazy = LazyDoc::new(&bytes).unwrap();
        let eager = bin::decode_document(&bytes).unwrap();
        for path in
            ["doc.n", "doc.tags.1", "arr.0", "arr.1.x", "doc", "arr", "doc.tags.9", "op.x", "arr.x"]
        {
            let lazy_v = lazy.get_path(path).unwrap().map(|v| v.materialize().unwrap());
            assert_eq!(lazy_v.as_ref(), eager.get_path(path), "path {path}");
        }
    }

    #[test]
    fn materialize_equals_eager_decode() {
        let bytes = payload();
        let lazy = LazyDoc::new(&bytes).unwrap();
        assert_eq!(lazy.materialize().unwrap(), bin::decode_document(&bytes).unwrap());
        let sub = lazy.get("doc").unwrap().unwrap().as_object().unwrap();
        assert_eq!(
            Some(&Value::Object(sub.materialize().unwrap())),
            lazy.materialize().unwrap().get("doc")
        );
    }

    #[test]
    fn entries_iterate_in_wire_order() {
        let bytes = payload();
        let lazy = LazyDoc::new(&bytes).unwrap();
        let keys: Vec<&str> = lazy.root().entries().map(|e| e.unwrap().0).collect();
        assert_eq!(keys, vec!["op", "version", "flag", "pi", "nothing", "doc", "arr"]);
    }

    #[test]
    fn header_validation() {
        assert!(matches!(LazyDoc::new(b"JSON{}"), Err(BinError { kind: BinErrorKind::BadMagic, .. })));
        assert!(matches!(LazyDoc::new(b"IVB"), Err(BinError { kind: BinErrorKind::Truncated, .. })));
        let mut bytes = payload();
        bytes[4] = 9;
        assert!(matches!(LazyDoc::new(&bytes), Err(BinError { kind: BinErrorKind::BadVersion(9), .. })));
    }

    #[test]
    fn duplicate_keys_resolve_last_wins() {
        // Hand-build a body with `a` twice: eager decoding keeps the last.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BIN_MAGIC);
        bytes.push(BIN_VERSION);
        bytes.push(2); // two entries
        for (i, v) in [1u8, 2u8].iter().enumerate() {
            bytes.push(1);
            bytes.push(b'a');
            bytes.push(TAG_INT);
            bytes.push(*v * 2); // zigzag of 1 is 2, of 2 is 4
            let _ = i;
        }
        let lazy = LazyDoc::new(&bytes).unwrap();
        let eager = bin::decode_document(&bytes).unwrap();
        assert_eq!(eager.get("a"), Some(&Value::Int(2)));
        assert_eq!(lazy.get("a").unwrap().unwrap().as_i64(), Some(2));
    }
}
