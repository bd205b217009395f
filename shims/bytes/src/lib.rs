//! Offline stand-in for the `bytes` crate.
//!
//! The workspace vendors the exact subset it uses so builds never touch a
//! registry: an immutable, cheaply cloneable byte buffer. Slicing windows,
//! `BytesMut`, and the `Buf`/`BufMut` traits are intentionally absent —
//! nothing in this repository needs them.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable chunk of contiguous memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self { data: Arc::from(data) }
    }

    /// Creates a buffer from a static slice (copied; the real crate borrows,
    /// but no caller here observes the difference).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The contents as a slice.
    #[allow(clippy::should_implement_trait)] // mirrors the real `bytes` call sites
    pub fn as_ref(&self) -> &[u8] {
        &self.data
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // Straight into the shared allocation: going through a boxed slice
        // first would shrink the vector (a reallocation) only to copy it.
        Self { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.data[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self.data[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.data[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.data[..].cmp(&other.data[..])
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_eq() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], b"hello");
        assert_eq!(b, Bytes::from(b"hello".to_vec()));
        assert_eq!(b.to_vec(), b"hello".to_vec());
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn empty() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b, Bytes::default());
    }
}
