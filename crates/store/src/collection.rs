//! A single document collection: versioned records, secondary indexes, and
//! query execution.

use crate::index::FieldIndex;
use crate::oplog::{Oplog, OplogOp};
use crate::plan::{plan_query, Plan};
use crate::record::{StoreError, StoredRecord, WriteOp, WriteResult};
use crate::update::UpdateSpec;
use invalidb_common::{Document, Key, Version};
use invalidb_query::PreparedQuery;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

struct Inner {
    records: BTreeMap<Key, StoredRecord>,
    /// Last version of deleted records, so re-inserts continue the version
    /// sequence (required for staleness avoidance across delete/insert).
    tombstones: HashMap<Key, Version>,
    indexes: HashMap<String, FieldIndex>,
}

/// A named, thread-safe document collection.
pub struct Collection {
    name: String,
    oplog: Arc<Oplog>,
    inner: RwLock<Inner>,
}

impl Collection {
    pub(crate) fn new(name: String, oplog: Arc<Oplog>) -> Self {
        Self {
            name,
            oplog,
            inner: RwLock::new(Inner {
                records: BTreeMap::new(),
                tombstones: HashMap::new(),
                indexes: HashMap::new(),
            }),
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// True if the collection holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads one record (document and version).
    pub fn get(&self, key: &Key) -> Option<(Version, Document)> {
        let inner = self.inner.read();
        inner.records.get(key).map(|r| (r.version, Document::clone(&r.doc)))
    }

    /// Creates a new record. Fails on duplicate keys (like MongoDB insert).
    /// Returns the after-image (`findAndModify` semantics, §5.4).
    pub fn insert(&self, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        let mut inner = self.inner.write();
        if inner.records.contains_key(&key) {
            return Err(StoreError::DuplicateKey(key));
        }
        let version = inner.tombstones.remove(&key).map(|v| v + 1).unwrap_or(1);
        Ok(self.put(inner, key, version, doc, WriteOp::Insert))
    }

    /// Inserts or replaces (upsert). Returns the after-image.
    pub fn save(&self, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        let mut inner = self.inner.write();
        let (version, op) = match inner.records.get(&key).map(|r| r.version) {
            Some(version) => (version + 1, WriteOp::Update),
            None => (inner.tombstones.remove(&key).map(|v| v + 1).unwrap_or(1), WriteOp::Insert),
        };
        Ok(self.put(inner, key, version, doc, op))
    }

    /// Puts `doc` in place of whatever `key` held, maintaining the indexes,
    /// and logs the write. The record, the oplog entry and the returned
    /// after-image share the one document.
    fn put(
        &self,
        mut inner: parking_lot::RwLockWriteGuard<'_, Inner>,
        key: Key,
        version: Version,
        mut doc: Document,
        op: WriteOp,
    ) -> WriteResult {
        // The caller's document is kept as it is, minus the room it grew
        // into and never used.
        doc.shrink_to_fit();
        let doc = Arc::new(doc);
        // An update replaces the record where it stands (the map keeps its
        // key), and the indexes move from the record that was taken out:
        // nothing is copied just to be forgotten.
        let record = StoredRecord { version, doc: Arc::clone(&doc) };
        let Inner { records, indexes, .. } = &mut *inner;
        let replaced = match records.get_mut(&key) {
            Some(held) => Some(std::mem::replace(held, record)),
            None => records.insert(key.clone(), record),
        };
        reindex(indexes, &key, replaced.as_ref().map(|old| &*old.doc), Some(&doc));
        drop(inner);
        let oplog_op = if op == WriteOp::Insert { OplogOp::Insert } else { OplogOp::Update };
        self.oplog.append(&self.name, key.clone(), version, Some(Arc::clone(&doc)), oplog_op);
        WriteResult { key, version, doc: Some(doc), op }
    }

    /// Applies an update to an existing record; fails if it does not exist.
    /// Returns the after-image.
    pub fn update(&self, key: Key, spec: &UpdateSpec) -> Result<WriteResult, StoreError> {
        let inner = self.inner.write();
        let current = inner.records.get(&key).ok_or_else(|| StoreError::NotFound(key.clone()))?;
        let new_doc = spec.apply(&current.doc)?;
        let version = current.version + 1;
        Ok(self.put(inner, key, version, new_doc, WriteOp::Update))
    }

    /// Deletes a record; fails if it does not exist. The returned
    /// after-image is a tombstone (`doc: None`) carrying the next version.
    pub fn delete(&self, key: Key) -> Result<WriteResult, StoreError> {
        let mut inner = self.inner.write();
        let record = inner.records.remove(&key).ok_or_else(|| StoreError::NotFound(key.clone()))?;
        reindex(&mut inner.indexes, &key, Some(&record.doc), None);
        let version = record.version + 1;
        inner.tombstones.insert(key.clone(), version);
        drop(inner);
        self.oplog.append(&self.name, key.clone(), version, None, OplogOp::Delete);
        Ok(WriteResult { key, version, doc: None, op: WriteOp::Delete })
    }

    /// Creates a secondary index on a (dotted) field path and backfills it.
    pub fn create_index(&self, field: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        if inner.indexes.contains_key(field) {
            return Err(StoreError::IndexExists(field.to_owned()));
        }
        let mut idx = FieldIndex::new();
        for (key, record) in inner.records.iter() {
            idx.insert(field, key, &record.doc);
        }
        inner.indexes.insert(field.to_owned(), idx);
        Ok(())
    }

    /// Names of existing indexes.
    pub fn index_fields(&self) -> Vec<String> {
        self.inner.read().indexes.keys().cloned().collect()
    }

    /// Executes a prepared query: plan, filter, sort, offset, limit.
    /// Returns `(key, version, document)` triples in result order.
    pub fn find(&self, query: &dyn PreparedQuery) -> Vec<(Key, Version, Document)> {
        let spec = query.spec();
        let inner = self.inner.read();
        let plan = plan_query(&spec.filter, inner.indexes.keys().map(String::as_str));
        // Matches share the stored documents while they are sorted and cut
        // to the window; only the rows that are returned get copied.
        let mut matched: Vec<(Key, Version, Arc<Document>)> = Vec::new();
        let mut consider = |key: &Key, inner: &Inner| {
            if let Some(record) = inner.records.get(key) {
                if query.matches(&record.doc) {
                    matched.push((key.clone(), record.version, Arc::clone(&record.doc)));
                }
            }
        };
        match &plan {
            Plan::FullScan => {
                for (key, record) in inner.records.iter() {
                    if query.matches(&record.doc) {
                        matched.push((key.clone(), record.version, Arc::clone(&record.doc)));
                    }
                }
            }
            Plan::IndexEq { field, value } => {
                let idx = inner.indexes.get(field).expect("planned index exists");
                for key in idx.lookup_eq(value) {
                    consider(&key, &inner);
                }
            }
            Plan::IndexRange { field, lower, upper } => {
                let idx = inner.indexes.get(field).expect("planned index exists");
                for key in idx.lookup_range(as_ref_bound(lower), as_ref_bound(upper)) {
                    consider(&key, &inner);
                }
            }
        }
        drop(inner);
        if !spec.sort.is_empty() {
            matched.sort_by(|a, b| query.cmp_items((&a.0, &a.2), (&b.0, &b.2)));
        }
        // Index scans return keys in value order, not key order; normalize
        // unsorted results to key order so results are deterministic.
        if spec.sort.is_empty() && !matches!(plan, Plan::FullScan) {
            matched.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let offset = spec.offset.min(matched.len() as u64) as usize;
        let limit = spec.limit.map_or(usize::MAX, |limit| limit as usize);
        matched
            .into_iter()
            .skip(offset)
            .take(limit)
            .map(|(key, version, doc)| (key, version, Document::clone(&doc)))
            .collect()
    }

    /// Restores a record with an exact version (WAL recovery path —
    /// bypasses the oplog so recovery is not re-logged).
    pub(crate) fn restore(&self, key: Key, version: Version, doc: Document) {
        let mut inner = self.inner.write();
        inner.tombstones.remove(&key);
        let doc = Arc::new(doc);
        let replaced =
            inner.records.insert(key.clone(), StoredRecord { version, doc: Arc::clone(&doc) });
        reindex(&mut inner.indexes, &key, replaced.as_ref().map(|old| &*old.doc), Some(&doc));
    }

    /// Restores a delete with its exact tombstone version (WAL recovery).
    pub(crate) fn restore_delete(&self, key: Key, version: Version) {
        let mut inner = self.inner.write();
        if let Some(record) = inner.records.remove(&key) {
            reindex(&mut inner.indexes, &key, Some(&record.doc), None);
        }
        inner.tombstones.insert(key, version);
    }

    /// Snapshot of tombstone versions (WAL checkpointing).
    pub(crate) fn tombstone_snapshot(&self) -> Vec<(Key, Version)> {
        self.inner.read().tombstones.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Snapshot of all records (tests and tooling).
    pub fn scan_all(&self) -> Vec<(Key, Version, Document)> {
        self.inner
            .read()
            .records
            .iter()
            .map(|(k, r)| (k.clone(), r.version, Document::clone(&r.doc)))
            .collect()
    }
}

fn as_ref_bound(
    b: &std::ops::Bound<invalidb_common::Value>,
) -> std::ops::Bound<&invalidb_common::Value> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}

/// Moves the index entries of `key` from its old document to its new one
/// (`None`: the record did not exist / no longer exists).
fn reindex(
    indexes: &mut HashMap<String, FieldIndex>,
    key: &Key,
    old: Option<&Document>,
    new: Option<&Document>,
) {
    for (field, index) in indexes.iter_mut() {
        match (old, new) {
            (Some(old), Some(new)) => index.replace(field, key, old, new),
            (Some(old), None) => index.remove(field, key, old),
            (None, Some(new)) => index.insert(field, key, new),
            (None, None) => {}
        }
    }
}
