//! What a live query and an indexed record hold, in bytes.
//!
//! A matching node's capacity is its memory divided by what one live query
//! costs there (§5.1: query partitions scale the number of concurrent
//! queries), and a store's index is paid once per record. This test counts
//! the bytes each holds under an allocator that keeps a per-thread balance of
//! bytes allocated minus bytes freed, and asserts a ceiling per line. The
//! ceilings sit about a fifth above what the code measured when they were set
//! (DESIGN.md, "What a live query holds", has the table), so a change that
//! keeps a second copy of something per query fails here.
//!
//! Its own binary: a test binary has one global allocator, and
//! `alloc_budget.rs` counts allocations rather than bytes.

use invalidb::broker::Broker;
use invalidb::common::{MockClock, SubscriptionRequest};
use invalidb::core::matching::MatchingNode;
use invalidb::core::query_index::QueryIndex;
use invalidb::core::{ClusterConfig, Event, Publisher};
use invalidb::query::{MongoQueryEngine, QueryEngine};
use invalidb::store::Store;
use invalidb::stream::Task;
use invalidb::{doc, AfterImage, Document, Key, QuerySpec, SubscriptionId, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn add(bytes: i64) {
    // `try_with`: a thread that is being torn down may still free and
    // allocate after its locals are gone.
    let _ = HELD.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the balance is a `Cell` in
// a thread local without a destructor and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn held() -> i64 {
    HELD.with(Cell::get)
}

const TENANT: &str = "app";
const COLLECTION: &str = "items";
/// The benchmark's `range_20k`: 20 000 distinct two-sided ranges, and as
/// many records.
const QUERIES: u64 = 20_000;
const RECORDS: u64 = 20_000;
const SLOT: i64 = 100;
const WIDTH: i64 = 50;

fn range_query(slot: u64) -> QuerySpec {
    let lo = slot as i64 * SLOT;
    QuerySpec::filter(COLLECTION, doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + WIDTH } })
}

/// Knuth's MMIX generator: the test needs a fixed sequence, not randomness.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn record(rng: &mut Lcg) -> Document {
    doc! { "random" => rng.below(QUERIES * SLOT as u64) as i64 }
}

fn per(bytes: i64, n: u64) -> f64 {
    bytes as f64 / n as f64
}

/// Bytes a solo cell holds per subscribed range query: once registered, and
/// once its query index has built the interval tree on the first probe.
#[test]
fn a_live_range_query_holds_one_compiled_filter() {
    let clock = MockClock::new();
    let config = ClusterConfig::new(1, 1);
    let publisher = Publisher::new(Broker::new().into(), &config, Arc::new(clock.clone()));
    let mut cell = MatchingNode::solo(config, Arc::new(clock), publisher);
    let tenant = TenantId::new(TENANT);
    let requests: Vec<_> = (0..QUERIES)
        .map(|q| {
            let spec = range_query(q);
            Arc::new(SubscriptionRequest {
                tenant: tenant.clone(),
                subscription: SubscriptionId(q),
                query_hash: spec.stable_hash(),
                spec,
                initial: Vec::new(),
                slack: 0,
                ttl_micros: 3_600_000_000,
                renewal: false,
            })
        })
        .collect();
    let probe = Event::Write(Arc::new(AfterImage {
        tenant: tenant.clone(),
        collection: COLLECTION.into(),
        key: Key::of("k000001"),
        version: 1,
        doc: Some(doc! { "random" => 7i64 }),
        written_at: 0,
        trace: None,
    }));

    // The requests outlive the count: what a cell holds is what it keeps
    // of them, not the messages themselves.
    let start = held();
    for request in &requests {
        cell.handle(Event::Subscribe(Arc::clone(request)));
    }
    let registered = held() - start;
    cell.handle(probe);
    let built = held() - start;

    drop(cell);

    // Two of the parts, alone: the compiled filters, and the query index
    // with and without its tree.
    let mut filters = Vec::with_capacity(requests.len());
    let start = held();
    for request in &requests {
        filters.push(MongoQueryEngine.prepare_filter(&request.spec.filter).unwrap());
    }
    let compiled = held() - start;
    let mut index = QueryIndex::default();
    let start = held();
    for request in &requests {
        index.insert(request.subscription.0, &request.spec.filter);
    }
    let indexed = held() - start;
    let mut out = Vec::with_capacity(16);
    index.candidates(&doc! { "random" => 7i64 }, &mut out);
    let tree = held() - start - indexed;

    println!("bytes held per subscribed range query over {QUERIES} queries:");
    println!("  cell, registered  {:>8.1}", per(registered, QUERIES));
    println!("  cell, tree built  {:>8.1}  (ceiling {CELL_CEILING})", per(built, QUERIES));
    println!("  of which:");
    println!("    compiled filter {:>8.1}  (ceiling {FILTER_CEILING})", per(compiled, QUERIES));
    println!("    query index     {:>8.1}", per(indexed, QUERIES));
    println!("    interval tree   {:>8.1}", per(tree, QUERIES));
    assert!(
        per(built, QUERIES) <= CELL_CEILING,
        "a live range query holds {:.1} bytes in the cell, budget {CELL_CEILING}",
        per(built, QUERIES)
    );
    assert!(
        per(compiled, QUERIES) <= FILTER_CEILING,
        "a compiled range filter holds {:.1} bytes, budget {FILTER_CEILING}",
        per(compiled, QUERIES)
    );
    drop((filters, index, requests));
}

/// Measured when set: 801.5 in all, 208.0 of it the compiled filter (1 644.5
/// and 927.0 while the cell kept a prepared query: the spec, the whole parsed
/// filter and each atom parsed again).
const CELL_CEILING: f64 = 960.0;
const FILTER_CEILING: f64 = 250.0;

/// Bytes a secondary index costs per record: the same records saved into a
/// store with and without an index on the attribute they vary in.
#[test]
fn an_indexed_record_costs_its_index_one_entry() {
    let fill = |indexed: bool| {
        let start = held();
        let store = Store::new();
        if indexed {
            store.collection(COLLECTION).create_index("random").unwrap();
        }
        let mut rng = Lcg(7);
        for k in 0..RECORDS {
            store.save(COLLECTION, Key::of(format!("k{k:06}")), record(&mut rng)).unwrap();
        }
        let bytes = held() - start;
        drop(store);
        bytes
    };
    let plain = fill(false);
    let indexed = fill(true);
    let index = per(indexed - plain, RECORDS);
    println!("bytes held per record over {RECORDS} records:");
    println!("  store, no index   {:>8.1}", per(plain, RECORDS));
    println!("  index on `random` {index:>8.1}  (ceiling {INDEX_CEILING})");
    assert!(
        index <= INDEX_CEILING,
        "the index holds {index:.1} bytes per record, budget {INDEX_CEILING}"
    );
}

/// Measured when set: 98.3 (451.4 while every distinct value kept a set of
/// its own, one B-tree leaf even for a single record).
const INDEX_CEILING: f64 = 118.0;
