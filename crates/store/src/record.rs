//! Record-level types and store errors.

use invalidb_common::{Document, Key, Version};
use std::fmt;
use std::sync::Arc;

/// A record as stored inside a collection.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Per-record version, starting at 1 and incremented on every write.
    pub version: Version,
    /// Current document content, shared with the oplog entry and the
    /// [`WriteResult`] of the write that stored it.
    pub doc: Arc<Document>,
}

/// Kind of write that produced a [`WriteResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// A new record was created.
    Insert,
    /// An existing record was modified (or replaced).
    Update,
    /// The record was removed.
    Delete,
}

/// The outcome of a write: exactly the after-image InvaliDB needs (§5.4).
///
/// For deletes, `doc` is `None` — "the after-image of a deleted entity is
/// null and therefore does not have to be retrieved from the database".
#[derive(Debug, Clone, PartialEq)]
pub struct WriteResult {
    /// Primary key of the written record.
    pub key: Key,
    /// Version after the write (tombstone version for deletes).
    pub version: Version,
    /// Post-write record state; `None` for deletes. Shared with the stored
    /// record, not copied out of it.
    pub doc: Option<Arc<Document>>,
    /// What kind of write happened.
    pub op: WriteOp,
}

/// Errors surfaced by the store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Insert with a primary key that already exists.
    DuplicateKey(Key),
    /// Update/delete on a key that does not exist.
    NotFound(Key),
    /// An update operator could not be applied (e.g. `$inc` on a string).
    BadUpdate(String),
    /// The query could not be prepared by the configured engine.
    BadQuery(String),
    /// The named index already exists.
    IndexExists(String),
    /// Write-ahead-log I/O failure.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateKey(k) => write!(f, "duplicate key: {k}"),
            StoreError::NotFound(k) => write!(f, "key not found: {k}"),
            StoreError::BadUpdate(msg) => write!(f, "invalid update: {msg}"),
            StoreError::BadQuery(msg) => write!(f, "invalid query: {msg}"),
            StoreError::IndexExists(field) => write!(f, "index on `{field}` already exists"),
            StoreError::Io(msg) => write!(f, "write-ahead log I/O error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}
