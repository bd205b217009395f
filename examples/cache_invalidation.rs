//! Quaestor-style query caching (§5, §7, and the VLDB'17 companion paper):
//! InvaliDB's original namesake job — *invalidating* cached query results
//! the moment they become stale.
//!
//! A cache sits in front of the pull-based store. Every cached query is
//! also registered as an InvaliDB real-time subscription; any change
//! notification purges (or refreshes) the corresponding cache entry. Reads
//! are then served from the cache with strong freshness — no TTL guessing.
//!
//! Run with: `cargo run --release --example cache_invalidation`

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec, ResultItem};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A query-result cache kept coherent by InvaliDB notifications.
struct QueryCache {
    app: Arc<AppServer>,
    entries: Mutex<HashMap<String, CacheEntry>>,
    hits: Mutex<u64>,
    misses: Mutex<u64>,
    invalidations: Mutex<u64>,
}

struct CacheEntry {
    result: Vec<ResultItem>,
    subscription: Subscription,
}

impl QueryCache {
    fn new(app: Arc<AppServer>) -> Self {
        Self {
            app,
            entries: Mutex::new(HashMap::new()),
            hits: Mutex::new(0),
            misses: Mutex::new(0),
            invalidations: Mutex::new(0),
        }
    }

    /// Serves a query from cache; on miss, executes it and registers a
    /// real-time subscription that will invalidate the entry.
    fn get(&self, spec: &QuerySpec) -> Vec<ResultItem> {
        let key = spec.to_string();
        let mut entries = self.entries.lock();
        // Drain invalidations first: any pending change notification makes
        // the entry stale (a production cache would do this asynchronously).
        if let Some(entry) = entries.get_mut(&key) {
            let mut stale = false;
            while let Some(ev) = entry.subscription.events().non_blocking().next() {
                if matches!(ev, ClientEvent::Change(_) | ClientEvent::MaintenanceError(_)) {
                    stale = true;
                }
            }
            if stale {
                *self.invalidations.lock() += 1;
                entries.remove(&key);
            }
        }
        if let Some(entry) = entries.get(&key) {
            *self.hits.lock() += 1;
            return entry.result.clone();
        }
        *self.misses.lock() += 1;
        let result = self.app.find(spec).expect("query");
        let mut subscription = self.app.subscribe(spec).expect("subscribe");
        // Consume the initial result so only *changes* invalidate.
        let _ = subscription.events().timeout(Duration::from_secs(5)).next();
        entries.insert(key, CacheEntry { result: result.clone(), subscription });
        result
    }

    fn stats(&self) -> (u64, u64, u64) {
        (*self.hits.lock(), *self.misses.lock(), *self.invalidations.lock())
    }
}

fn main() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app = Arc::new(AppServer::start(
        "shop",
        Arc::clone(&store),
        broker.clone(),
        AppServerConfig::default(),
    ));
    let cache = QueryCache::new(Arc::clone(&app));

    for i in 0..20i64 {
        app.insert("products", Key::of(i), doc! { "name" => format!("item-{i}"), "stock" => i % 7 })
            .unwrap();
    }

    let in_stock = QuerySpec::filter("products", doc! { "stock" => doc! { "$gt" => 0i64 } });

    // Cold read, then a burst of cached reads.
    let n = cache.get(&in_stock).len();
    println!("cold read: {n} products in stock (cache miss)");
    for _ in 0..100 {
        cache.get(&in_stock);
    }
    let (hits, misses, inv) = cache.stats();
    println!("after 100 hot reads: {hits} hits, {misses} misses, {inv} invalidations");

    // A write changes the result: the next read must see fresh data.
    app.insert("products", Key::of(100i64), doc! { "name" => "fresh", "stock" => 5i64 }).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // let the notification arrive
    let n2 = cache.get(&in_stock).len();
    println!("after insert: {n2} products (was {n}) — entry was invalidated, not served stale");
    assert_eq!(n2, n + 1);

    // Irrelevant writes do NOT invalidate (the cluster filters them out).
    for i in 0..50i64 {
        app.insert("orders", Key::of(i), doc! { "product" => i }).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..50 {
        cache.get(&in_stock);
    }
    let (hits, misses, inv) = cache.stats();
    println!("after 50 unrelated writes + 50 reads: {hits} hits, {misses} misses, {inv} invalidations");
    assert_eq!(inv, 1, "only the relevant write invalidated");
    assert_eq!(misses, 2, "one cold miss + one post-invalidation refill");

    println!("query caching with push-based invalidation ✓");
    cluster.shutdown();
}
