//! The store facade: named collections, a shared oplog, and a configured
//! query engine.

use crate::collection::Collection;
use crate::oplog::Oplog;
use crate::record::{Row, StoreError, WriteResult};
use crate::update::UpdateSpec;
use invalidb_common::{Document, Key, QuerySpec, ResultItem};
use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// An embedded multi-collection document store, held in memory.
pub struct Store {
    engine: Arc<dyn QueryEngine>,
    oplog: Arc<Oplog>,
    collections: RwLock<HashMap<String, Arc<Collection>>>,
}

impl Store {
    /// Store with the MongoDB-compatible engine (the production default).
    pub fn new() -> Self {
        Self::with_engine(Arc::new(MongoQueryEngine))
    }

    /// Store with a custom query engine (pluggability, §5.3).
    pub fn with_engine(engine: Arc<dyn QueryEngine>) -> Self {
        Self { engine, oplog: Arc::new(Oplog::new()), collections: RwLock::new(HashMap::new()) }
    }

    /// The configured query engine.
    pub fn engine(&self) -> &Arc<dyn QueryEngine> {
        &self.engine
    }

    /// The store-wide replication log.
    pub fn oplog(&self) -> Arc<Oplog> {
        Arc::clone(&self.oplog)
    }

    /// Gets (or lazily creates) a collection.
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        if let Some(c) = self.collections.read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.collections.write();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Collection::new(name.to_owned(), Arc::clone(&self.oplog)))),
        )
    }

    /// Inserts into a collection (error on duplicate key).
    pub fn insert(&self, collection: &str, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        self.collection(collection).insert(key, doc)
    }

    /// Inserts or replaces.
    pub fn save(&self, collection: &str, key: Key, doc: Document) -> Result<WriteResult, StoreError> {
        self.collection(collection).save(key, doc)
    }

    /// Updates an existing record.
    pub fn update(
        &self,
        collection: &str,
        key: Key,
        spec: &UpdateSpec,
    ) -> Result<WriteResult, StoreError> {
        self.collection(collection).update(key, spec)
    }

    /// Deletes a record.
    pub fn delete(&self, collection: &str, key: Key) -> Result<WriteResult, StoreError> {
        self.collection(collection).delete(key)
    }

    /// Compiles a query through the configured engine.
    pub fn prepare(&self, spec: &QuerySpec) -> Result<Arc<dyn PreparedQuery>, StoreError> {
        self.engine.prepare(spec).map_err(|e| StoreError::BadQuery(e.to_string()))
    }

    /// Executes a pull-based query, returning its rows in query order
    /// (sorted queries carry their position in `index`), each record in
    /// the store's bytes: what an initial result splices.
    pub fn find(&self, spec: &QuerySpec) -> Result<Vec<Row>, StoreError> {
        let prepared = self.prepare(spec)?;
        Ok(self.collection(&spec.collection).find(prepared.as_ref()))
    }

    /// [`Store::find`] with every record decoded.
    pub fn execute(&self, spec: &QuerySpec) -> Result<Vec<ResultItem>, StoreError> {
        Ok(self.find(spec)?.into_iter().map(Row::into_item).collect())
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::{doc, EncodedObject, SortDirection, Value};

    fn seed_articles(store: &Store) {
        // Figure 3's working example.
        for (id, title, year) in [
            (5i64, "DB Fun", 2018i64),
            (8, "No SQL!", 2018),
            (3, "BaaS For Dummies", 2017),
            (4, "Query Languages", 2017),
            (7, "Streams in Action", 2016),
            (9, "SaaS For Dummies", 2016),
        ] {
            store.insert("articles", Key::of(id), doc! { "title" => title, "year" => year }).unwrap();
        }
    }

    #[test]
    fn crud_with_versions_and_after_images() {
        let store = Store::new();
        let w = store.insert("t", Key::of("a"), doc! { "n" => 1i64 }).unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.doc.as_ref().unwrap().to_document().get("n"), Some(&Value::Int(1)));
        let w = store.save("t", Key::of("a"), doc! { "n" => 2i64 }).unwrap();
        assert_eq!(w.version, 2);
        let w = store
            .update(
                "t",
                Key::of("a"),
                &UpdateSpec::from_document(&doc! { "$inc" => doc! { "n" => 5i64 } }).unwrap(),
            )
            .unwrap();
        assert_eq!(w.version, 3);
        assert_eq!(w.doc.as_ref().unwrap().to_document().get("n"), Some(&Value::Int(7)));
        let w = store.delete("t", Key::of("a")).unwrap();
        assert_eq!(w.version, 4);
        assert!(w.doc.is_none(), "delete after-image is null");
        // Re-insert continues the version sequence (staleness avoidance).
        let w = store.insert("t", Key::of("a"), doc! {}).unwrap();
        assert_eq!(w.version, 5);
    }

    #[test]
    fn insert_duplicate_and_missing_updates_error() {
        let store = Store::new();
        store.insert("t", Key::of(1i64), doc! {}).unwrap();
        assert!(matches!(store.insert("t", Key::of(1i64), doc! {}), Err(StoreError::DuplicateKey(_))));
        assert!(matches!(store.delete("t", Key::of(2i64)), Err(StoreError::NotFound(_))));
        assert!(matches!(
            store.update("t", Key::of(2i64), &UpdateSpec::Replace(doc! {})),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn paper_figure3_query() {
        let store = Store::new();
        seed_articles(&store);
        // SELECT id, title, year FROM articles ORDER BY year DESC OFFSET 2 LIMIT 3
        let spec = QuerySpec::filter("articles", doc! {})
            .sorted_by("year", SortDirection::Desc)
            .with_offset(2)
            .with_limit(3);
        let result = store.execute(&spec).unwrap();
        let titles: Vec<&str> = result
            .iter()
            .map(|r| r.doc.as_ref().unwrap().get("title").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(titles, vec!["BaaS For Dummies", "Query Languages", "Streams in Action"]);
        assert_eq!(result[0].index, Some(0));
        assert_eq!(result[2].index, Some(2));
    }

    #[test]
    fn bootstrap_rewrite_returns_offset_result_and_slack() {
        let store = Store::new();
        seed_articles(&store);
        let spec = QuerySpec::filter("articles", doc! {})
            .sorted_by("year", SortDirection::Desc)
            .with_offset(2)
            .with_limit(3);
        let rewritten = spec.rewrite_for_bootstrap(1);
        let result = store.execute(&rewritten).unwrap();
        // offset(2) + limit(3) + slack(1) = 6 items.
        assert_eq!(result.len(), 6);
        let first = result[0].doc.as_ref().unwrap().get("title").unwrap().as_str().unwrap();
        assert_eq!(first, "DB Fun", "offset items included");
    }

    #[test]
    fn filtered_queries() {
        let store = Store::new();
        seed_articles(&store);
        let spec = QuerySpec::filter("articles", doc! { "year" => doc! { "$gte" => 2017i64 } });
        let result = store.execute(&spec).unwrap();
        assert_eq!(result.len(), 4);
        assert!(result.iter().all(|r| r.index.is_none()), "unsorted results carry no index");
    }

    #[test]
    fn indexed_query_agrees_with_full_scan() {
        let store = Store::new();
        for i in 0..100i64 {
            store.insert("t", Key::of(i), doc! { "n" => i % 10, "s" => format!("v{}", i % 7) }).unwrap();
        }
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 3i64, "$lt" => 6i64 } });
        let unindexed = store.execute(&spec).unwrap();
        store.collection("t").create_index("n").unwrap();
        let indexed = store.execute(&spec).unwrap();
        assert_eq!(unindexed, indexed);
        assert_eq!(indexed.len(), 30);
        // Point lookups too.
        let spec = QuerySpec::filter("t", doc! { "s" => "v3" });
        let unindexed = store.execute(&spec).unwrap();
        store.collection("t").create_index("s").unwrap();
        let indexed = store.execute(&spec).unwrap();
        assert_eq!(unindexed, indexed);
    }

    #[test]
    fn index_stays_consistent_across_updates_and_deletes() {
        let store = Store::new();
        store.collection("t").create_index("n").unwrap();
        store.insert("t", Key::of(1i64), doc! { "n" => 1i64 }).unwrap();
        store.insert("t", Key::of(2i64), doc! { "n" => 2i64 }).unwrap();
        store.save("t", Key::of(1i64), doc! { "n" => 5i64 }).unwrap();
        store.delete("t", Key::of(2i64)).unwrap();
        let spec = QuerySpec::filter("t", doc! { "n" => 5i64 });
        assert_eq!(store.execute(&spec).unwrap().len(), 1);
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$lte" => 2i64 } });
        assert_eq!(store.execute(&spec).unwrap().len(), 0);
        assert!(store.collection("t").create_index("n").is_err(), "duplicate index rejected");
    }

    #[test]
    fn oplog_records_every_write() {
        let store = Store::new();
        store.insert("a", Key::of(1i64), doc! {}).unwrap();
        store.save("b", Key::of(1i64), doc! {}).unwrap();
        store.delete("a", Key::of(1i64)).unwrap();
        let entries = store.oplog().read_from(0);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].collection, "a");
        assert_eq!(entries[1].collection, "b");
        assert!(entries[2].doc.is_none());
    }

    #[test]
    fn bad_query_surfaces_engine_error() {
        let store = Store::new();
        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$bogus" => 1i64 } });
        assert!(matches!(store.execute(&spec), Err(StoreError::BadQuery(_))));
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let store = Arc::new(Store::new());
        store.insert("t", Key::of("ctr"), doc! { "n" => 0i64 }).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let inc =
                        UpdateSpec::from_document(&doc! { "$inc" => doc! { "n" => 1i64 } }).unwrap();
                    for _ in 0..100 {
                        store.update("t", Key::of("ctr"), &inc).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (version, doc) = store.collection("t").get(&Key::of("ctr")).unwrap();
        assert_eq!(doc.get("n"), Some(&Value::Int(800)));
        assert_eq!(version, 801);
    }
}
