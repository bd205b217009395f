//! The dynamically typed value model of the document store.
//!
//! Values follow the shape of JSON with a distinguished integer type, like
//! the aggregate-oriented document stores the paper targets. Cross-type
//! comparison uses a *canonical type ordering* modeled after MongoDB's sort
//! order so that the pluggable real-time query engine and the pull-based
//! store sort identically (paper §5.3: "both query engines have to produce
//! the same output, given the same input of queries and writes").

use crate::document::Document;
use crate::string::Str;
use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed value stored in a [`Document`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Explicit null. Also used when a sort key is missing from a document.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// UTF-8 string; up to 22 bytes inline (see [`Str`]).
    String(Str),
    /// Ordered array of values.
    Array(Vec<Value>),
    /// Nested document.
    Object(Document),
}

// Records, retained after-images and result windows are made of these.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl Value {
    /// Canonical type rank used for cross-type ordering.
    ///
    /// Modeled after MongoDB's comparison order: Null < Numbers < String <
    /// Object < Array < Boolean. Int and Float share one numeric bracket.
    pub fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::String(_) => 2,
            Value::Object(_) => 3,
            Value::Array(_) => 4,
            Value::Bool(_) => 5,
        }
    }

    /// Human-readable type name (used in errors and `$type`-style matching).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// True if the value is numeric (int or float).
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Numeric view as `f64`, if the value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if the value is an `Int` or an integral `Float` that
    /// fits `i64` exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 => {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Nested document view.
    pub fn as_object(&self) -> Option<&Document> {
        match self {
            Value::Object(d) => Some(d),
            _ => None,
        }
    }

    /// Streams a canonical byte encoding of the value into `out`.
    ///
    /// The encoding is used for stable hashing (query/write partitioning)
    /// and guarantees that canonically *equal* values — notably
    /// `Int(1)` and `Float(1.0)` — produce identical bytes, so a primary key
    /// always routes to the same write partition regardless of the numeric
    /// representation chosen by a client. The bytes are the contract, not
    /// how they are cut into [`CanonicalSink::put`] calls: a sink sees the
    /// same stream whether it collects it (`Vec<u8>`) or folds it into a
    /// hash as it arrives.
    pub fn write_canonical<S: CanonicalSink + ?Sized>(&self, out: &mut S) {
        match self {
            Value::Null => out.put(&[0x00]),
            Value::Bool(b) => out.put(&[0x05, *b as u8]),
            // Integral numbers encode through their i64 value when
            // possible so Int(1) == Float(1.0) hash identically.
            Value::Int(i) => out.put(&tagged(0x01, *i as u64)),
            Value::Float(f) => match self.as_i64() {
                Some(i) => out.put(&tagged(0x01, i as u64)),
                None => {
                    let bits = if f.is_nan() { f64::NAN.to_bits() } else { f.to_bits() };
                    out.put(&tagged(0x02, bits));
                }
            },
            Value::String(s) => {
                out.put(&tagged(0x03, s.len() as u64));
                out.put(s.as_bytes());
            }
            Value::Array(items) => {
                out.put(&tagged(0x04, items.len() as u64));
                for item in items {
                    item.write_canonical(out);
                }
            }
            Value::Object(doc) => doc.write_canonical(out),
        }
    }
}

impl Document {
    /// The canonical encoding of this document as a value: exactly what
    /// [`Value::write_canonical`] writes for `Value::Object` of it, without
    /// the copy that wrapping it would take.
    pub fn write_canonical<S: CanonicalSink + ?Sized>(&self, out: &mut S) {
        out.put(&tagged(0x06, self.len() as u64));
        for (k, v) in self.iter() {
            out.put(&(k.len() as u64).to_be_bytes());
            out.put(k.as_bytes());
            v.write_canonical(out);
        }
    }
}

/// A type tag followed by one big-endian word, as one `put`.
fn tagged(tag: u8, word: u64) -> [u8; 9] {
    let mut out = [tag; 9];
    out[1..].copy_from_slice(&word.to_be_bytes());
    out
}

/// Receiver of [`Value::write_canonical`]'s byte stream: a buffer that keeps
/// the bytes, or a hash state that consumes them without anyone having to
/// allocate the encoding first.
pub trait CanonicalSink {
    /// Takes the next bytes of the stream.
    fn put(&mut self, bytes: &[u8]);
}

impl CanonicalSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::String(s) => write!(f, "{s:?}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(d) => write!(f, "{d}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s.into())
    }
}
impl From<Str> for Value {
    fn from(s: Str) -> Self {
        Value::String(s)
    }
}
impl From<Document> for Value {
    fn from(d: Document) -> Self {
        Value::Object(d)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Total-order comparison across all value types.
///
/// Values of different type brackets compare by [`Value::type_rank`]. Within
/// the numeric bracket, `Int` and `Float` compare by numeric value (NaN sorts
/// below every other number and equal to itself, to preserve totality).
/// Arrays and objects compare lexicographically element by element.
pub fn canonical_cmp(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (a.type_rank(), b.type_rank());
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (x, y) if x.is_number() && y.is_number() => cmp_numbers(x, y),
        (Value::Array(x), Value::Array(y)) => {
            for (xv, yv) in x.iter().zip(y.iter()) {
                let c = canonical_cmp(xv, yv);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Object(x), Value::Object(y)) => {
            for ((xk, xv), (yk, yv)) in x.iter().zip(y.iter()) {
                let c = xk.cmp(yk);
                if c != Ordering::Equal {
                    return c;
                }
                let c = canonical_cmp(xv, yv);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => unreachable!("same rank implies same bracket"),
    }
}

fn cmp_numbers(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) => cmp_i64_f64(*x, *y),
        (Value::Float(x), Value::Int(y)) => cmp_i64_f64(*y, *x).reverse(),
        (Value::Float(x), Value::Float(y)) => cmp_f64(*x, *y),
        _ => unreachable!(),
    }
}

fn cmp_f64(x: f64, y: f64) -> Ordering {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => x.partial_cmp(&y).expect("non-NaN floats are comparable"),
    }
}

/// Compares an i64 against an f64 without precision loss for large ints.
fn cmp_i64_f64(x: i64, y: f64) -> Ordering {
    if y.is_nan() {
        return Ordering::Greater;
    }
    if y == f64::INFINITY {
        return Ordering::Less;
    }
    if y == f64::NEG_INFINITY {
        return Ordering::Greater;
    }
    // For |y| beyond the exact-i64 range the float value decides.
    if y >= 9_223_372_036_854_775_808.0 {
        return Ordering::Less;
    }
    if y < -9_223_372_036_854_775_808.0 {
        return Ordering::Greater;
    }
    let yt = y.trunc();
    let yi = yt as i64;
    match x.cmp(&yi) {
        Ordering::Equal => {
            let frac = y - yt;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        other => other,
    }
}

/// Equality under [`canonical_cmp`] — in particular `Int(1)` equals
/// `Float(1.0)`, matching the query semantics of document stores.
pub fn canonical_eq(a: &Value, b: &Value) -> bool {
    canonical_cmp(a, b) == Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    #[test]
    fn type_brackets_order() {
        let vals = [
            Value::Null,
            Value::Int(5),
            Value::String("a".into()),
            Value::Object(Document::new()),
            Value::Array(vec![]),
            Value::Bool(false),
        ];
        for w in vals.windows(2) {
            assert_eq!(canonical_cmp(&w[0], &w[1]), Ordering::Less, "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn cross_numeric_equality() {
        assert!(canonical_eq(&Value::Int(1), &Value::Float(1.0)));
        assert!(!canonical_eq(&Value::Int(1), &Value::Float(1.5)));
        assert_eq!(canonical_cmp(&Value::Int(2), &Value::Float(1.5)), Ordering::Greater);
        assert_eq!(canonical_cmp(&Value::Float(1.5), &Value::Int(2)), Ordering::Less);
    }

    #[test]
    fn large_int_float_comparison_is_exact() {
        // 2^62 + 1 is not representable as f64; naive casting would claim equality.
        let big = (1i64 << 62) + 1;
        assert_eq!(
            canonical_cmp(&Value::Int(big), &Value::Float((1i64 << 62) as f64)),
            Ordering::Greater
        );
        assert_eq!(canonical_cmp(&Value::Int(i64::MAX), &Value::Float(f64::INFINITY)), Ordering::Less);
        assert_eq!(
            canonical_cmp(&Value::Int(i64::MIN), &Value::Float(f64::NEG_INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(canonical_cmp(&nan, &nan), Ordering::Equal);
        assert_eq!(canonical_cmp(&nan, &Value::Float(-1e308)), Ordering::Less);
        assert_eq!(canonical_cmp(&nan, &Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(canonical_cmp(&Value::Null, &nan), Ordering::Less);
    }

    #[test]
    fn array_lexicographic() {
        let a = Value::from(vec![1i64, 2]);
        let b = Value::from(vec![1i64, 3]);
        let c = Value::from(vec![1i64, 2, 0]);
        assert_eq!(canonical_cmp(&a, &b), Ordering::Less);
        assert_eq!(canonical_cmp(&a, &c), Ordering::Less);
        assert_eq!(canonical_cmp(&b, &c), Ordering::Greater);
    }

    #[test]
    fn object_compares_by_entries() {
        let mut a = Document::new();
        a.insert("a", 1i64);
        let mut b = Document::new();
        b.insert("a", 2i64);
        assert_eq!(canonical_cmp(&Value::Object(a.clone()), &Value::Object(b)), Ordering::Less);
        let mut c = Document::new();
        c.insert("a", 1i64);
        c.insert("b", 0i64);
        assert_eq!(canonical_cmp(&Value::Object(a), &Value::Object(c)), Ordering::Less);
    }

    #[test]
    fn canonical_encoding_unifies_numeric_types() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(42).write_canonical(&mut a);
        Value::Float(42.0).write_canonical(&mut b);
        assert_eq!(a, b);
        let mut c = Vec::new();
        Value::Float(42.5).write_canonical(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn as_i64_respects_exactness() {
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Float(f64::NAN).as_i64(), None);
        assert_eq!(Value::Int(-7).as_i64(), Some(-7));
        assert_eq!(Value::String("3".into()).as_i64(), None);
    }

    #[test]
    fn display_formats() {
        let mut d = Document::new();
        d.insert("x", vec![Value::Int(1), Value::String("a".into())]);
        let v = Value::Object(d);
        assert_eq!(v.to_string(), "{x: [1, \"a\"]}");
    }
}
