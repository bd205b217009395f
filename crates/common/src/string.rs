//! Immutable strings that copy like scalars.
//!
//! A short string is a scalar, not data: the `_id` of a record, the name of
//! a field and most string values in this domain are a few bytes long, and
//! every layer that keeps one — the store, the oplog, the matching cell,
//! each live result — copies it. [`Str`] keeps up to 22 bytes in
//! place and shares anything longer behind an `Arc`, so decoding, cloning
//! and comparing a short string never touch the allocator, and cloning a
//! long one bumps a reference count.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Longest string stored inline. With the length byte and the enum tag this
/// makes a [`Str`] exactly as large as a `String`.
const INLINE: usize = 22;

/// An immutable UTF-8 string: up to 22 bytes inline, longer ones
/// shared. Compares, orders and hashes exactly like the `str` it holds, so a
/// map keyed by `Str` is probed with a `&str`.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the string — a whole `str`,
    /// copied by [`Str::new`] and never modified, hence valid UTF-8.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Shared(Arc<str>),
}

// Values, document entries and keys are made of these: none may grow.
const _: () = assert!(std::mem::size_of::<Str>() == 24);

impl Str {
    /// A string holding a copy of `s`.
    pub fn new(s: &str) -> Self {
        if s.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Str(Repr::Inline { len: s.len() as u8, bytes })
        } else {
            Str(Repr::Shared(s.into()))
        }
    }

    /// The string's bytes. Equality and ordering compare these and skip
    /// the (at most 22-byte) validation [`Str::as_str`] pays for an inline
    /// string.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The string as text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline string holds a whole str")
            }
            Repr::Shared(s) => s,
        }
    }
}

impl Default for Str {
    fn default() -> Self {
        Str::new("")
    }
}

impl Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// Eq, Ord and Hash below agree with `str`'s, as `Borrow` requires.
impl Borrow<str> for Str {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Str::new(s)
    }
}

// An `Arc<str>` cannot take over a `String`'s buffer, so this copies too.
impl From<String> for Str {
    fn from(s: String) -> Self {
        Str::new(&s)
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Str {}

impl PartialEq<&str> for Str {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Str> for String {
    fn eq(&self, other: &Str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// `str` orders by its bytes.
impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_strings_are_inline_and_long_ones_shared() {
        let short = Str::new(&"x".repeat(INLINE));
        assert!(matches!(short.0, Repr::Inline { .. }));
        let long = Str::new(&"x".repeat(INLINE + 1));
        let copy = long.clone();
        match (&long.0, &copy.0) {
            (Repr::Shared(a), Repr::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("a string past {INLINE} bytes is shared"),
        }
        assert_eq!(Str::from("x".repeat(INLINE + 1)), long);
    }
}
