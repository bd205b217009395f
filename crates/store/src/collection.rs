//! A single document collection: versioned records, secondary indexes, and
//! query execution.
//!
//! A record is kept as the bytes of its encoded object ([`EncodedDoc`]),
//! encoded once when it is written: the write envelope and every initial
//! result copy them in as they are. The indexes and the pull queries read
//! them in place, as the matching cells read a write.

use crate::index::FieldIndex;
use crate::oplog::{Oplog, OplogOp};
use crate::plan::{plan_query, Plan};
use crate::record::{Row, StoreError, StoredRecord, WriteOp, WriteResult};
use crate::update::UpdateSpec;
use invalidb_common::{Attributes, Document, EncodedObject, Key, Record, Value, Version};
use invalidb_json::{CheckedObject, EncodedDoc};
use invalidb_query::{compare_keys, PreparedQuery, SortKey};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::cell::OnceCell;
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

    /// Reads one record (document and version), decoded.
    pub fn get(&self, key: &Key) -> Option<(Version, Document)> {
        let (version, doc) = {
            let inner = self.inner.read();
            let record = inner.records.get(key)?;
            (record.version, record.doc.clone())
        };
        Some((version, doc.to_document()))
    }

    /// Creates a new record. Fails on duplicate keys (like MongoDB insert).
    /// Returns the after-image (`findAndModify` semantics, §5.4).
    pub fn insert(&self, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        let doc = EncodedDoc::encode(&doc);
        let mut inner = self.inner.write();
        if inner.records.contains_key(&key) {
            return Err(StoreError::DuplicateKey(key));
        }
        let version = inner.tombstones.remove(&key).map(|v| v + 1).unwrap_or(1);
        Ok(self.put(inner, key, version, doc, WriteOp::Insert))
    }

    /// Inserts or replaces (upsert). Returns the after-image.
    pub fn save(&self, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        // Encoded before the lock is taken: writers to one collection
        // serialize on the bookkeeping alone.
        let doc = EncodedDoc::encode(&doc);
        let mut inner = self.inner.write();
        let (version, op) = match inner.records.get(&key).map(|r| r.version) {
            Some(version) => (version + 1, WriteOp::Update),
            None => (inner.tombstones.remove(&key).map(|v| v + 1).unwrap_or(1), WriteOp::Insert),
        };
        Ok(self.put(inner, key, version, doc, op))
    }

    /// Puts `doc` in place of whatever `key` held, maintaining the indexes,
    /// and logs the write. The record, the oplog entry and the returned
    /// after-image share the one encoding.
    fn put(
        &self,
        mut inner: parking_lot::RwLockWriteGuard<'_, Inner>,
        key: Key,
        version: Version,
        doc: EncodedDoc,
        op: WriteOp,
    ) -> WriteResult {
        // An update replaces the record where it stands (the map keeps its
        // key), and the indexes move from the record that was taken out:
        // nothing is copied just to be forgotten.
        let record = StoredRecord { version, doc: doc.clone() };
        let Inner { records, indexes, .. } = &mut *inner;
        let replaced = match records.get_mut(&key) {
            Some(held) => Some(std::mem::replace(held, record)),
            None => records.insert(key.clone(), record),
        };
        reindex(indexes, &key, replaced.as_ref().map(|old| &old.doc), Some(&doc));
        drop(inner);
        let oplog_op = if op == WriteOp::Insert { OplogOp::Insert } else { OplogOp::Update };
        self.oplog.append(&self.name, key.clone(), version, Some(doc.clone()), oplog_op);
        WriteResult { key, version, doc: Some(doc), op }
    }

    /// Applies an update to an existing record; fails if it does not exist.
    /// Returns the after-image.
    pub fn update(&self, key: Key, spec: &UpdateSpec) -> Result<WriteResult, StoreError> {
        let inner = self.inner.write();
        let current = inner.records.get(&key).ok_or_else(|| StoreError::NotFound(key.clone()))?;
        // The one tree on the write path: the operators apply to the
        // decoded record, which is encoded again.
        let new_doc = EncodedDoc::encode(&spec.apply(&current.doc.to_document())?);
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
            idx.insert(field, key, &record.doc.object());
        }
        inner.indexes.insert(field.to_owned(), idx);
        Ok(())
    }

    /// Executes a prepared query: plan, filter, sort, offset, limit.
    /// Returns the rows in result order, sharing the stored records: each
    /// candidate is matched in its bytes and ordered by a sort key read in
    /// place, and no row is decoded.
    pub fn find(&self, query: &dyn PreparedQuery) -> Vec<Row> {
        let spec = query.spec();
        let mut matched: Vec<(SortKey, Row)> = Vec::new();
        {
            let inner = self.inner.read();
            let mut consider = |key: &Key, record: &StoredRecord| {
                let object = record.doc.object();
                if query.matches_in(&InPlace { object, whole: OnceCell::new() }) {
                    let row = Row {
                        key: key.clone(),
                        version: record.version,
                        doc: record.doc.clone(),
                        index: None,
                    };
                    matched.push((SortKey::of(&object, &spec.sort), row));
                }
            };
            let mut candidates = |keys: &mut dyn Iterator<Item = &Key>| {
                for key in keys {
                    if let Some(record) = inner.records.get(key) {
                        consider(key, record);
                    }
                }
            };
            // Index scans hand out keys in key order, like the records'
            // own map.
            match plan_query(&spec.filter, &inner.indexes) {
                Plan::FullScan => candidates(&mut inner.records.keys()),
                Plan::IndexEq { field, value } => {
                    candidates(&mut inner.indexes[field].lookup_eq(&value))
                }
                Plan::IndexRange { field, lower, upper } => {
                    candidates(&mut inner.indexes[field].lookup_range(lower.as_ref(), upper.as_ref()))
                }
            }
        }
        // Without a sort, the order is the keys' (`compare_keys` ends on
        // them), which the candidates already come in.
        matched.sort_by(|a, b| compare_keys(&spec.sort, (&a.1.key, &a.0), (&b.1.key, &b.0)));
        let offset = spec.offset.min(matched.len() as u64) as usize;
        let limit = spec.limit.map_or(usize::MAX, |limit| limit as usize);
        let sorted = !spec.sort.is_empty();
        matched
            .into_iter()
            .skip(offset)
            .take(limit)
            .enumerate()
            .map(|(i, (_, row))| Row { index: sorted.then_some(i as u64), ..row })
            .collect()
    }

    /// Snapshot of all records, decoded (tests and tooling).
    pub fn scan_all(&self) -> Vec<(Key, Version, Document)> {
        let held: Vec<(Key, Version, EncodedDoc)> = {
            let inner = self.inner.read();
            inner.records.iter().map(|(k, r)| (k.clone(), r.version, r.doc.clone())).collect()
        };
        held.into_iter().map(|(k, version, doc)| (k, version, doc.to_document())).collect()
    }
}

/// A stored record as a pull query's filter reads it: attribute by
/// attribute in place, and decoded whole, once, only for an atom that
/// reads the whole record (as a matching cell reads a write).
struct InPlace<'a> {
    object: CheckedObject<'a>,
    whole: OnceCell<Document>,
}

impl Attributes for InPlace<'_> {
    fn attr(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.object.attr(name)
    }
}

impl Record for InPlace<'_> {
    fn document(&self) -> &Document {
        self.whole.get_or_init(|| self.object.materialize())
    }
}

/// Moves the index entries of `key` from its old record to its new one
/// (`None`: the record did not exist / no longer exists), reading both in
/// place.
fn reindex(
    indexes: &mut HashMap<String, FieldIndex>,
    key: &Key,
    old: Option<&EncodedDoc>,
    new: Option<&EncodedDoc>,
) {
    let (old, new) = (old.map(EncodedDoc::object), new.map(EncodedDoc::object));
    for (field, index) in indexes.iter_mut() {
        match (&old, &new) {
            (Some(old), Some(new)) => index.replace(field, key, old, new),
            (Some(old), None) => index.remove(field, key, old),
            (None, Some(new)) => index.insert(field, key, new),
            (None, None) => {}
        }
    }
}
