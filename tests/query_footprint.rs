//! What a live query, a retained write and an indexed record hold, in bytes.
//!
//! A matching node's capacity is its memory divided by what one live query
//! costs there (§5.1: query partitions scale the number of concurrent
//! queries) and what it retains of the write stream for replay; a sorting
//! node's, what a window holds per item; a store's index is paid once per
//! record. This test counts
//! the bytes each holds under an allocator that keeps a per-thread balance of
//! bytes allocated minus bytes freed, and asserts a ceiling per line. The
//! ceilings sit about a fifth above what the code measured when they were set
//! (DESIGN.md, "What a live query holds", has the table), so a change that
//! keeps a second copy of something per query fails here.
//!
//! Its own binary: a test binary has one global allocator, and
//! `alloc_budget.rs` counts allocations rather than bytes.

use invalidb::broker::Broker;
use invalidb::common::{MockClock, SubscriptionRequest, TenantInterner, Timestamp};
use invalidb::core::ingest::decode_event_with;
use invalidb::core::matching::MatchingNode;
use invalidb::core::query_index::QueryIndex;
use invalidb::core::{ClusterConfig, Event, FilterChange, FilterChangeKind, Publisher, SortedWindow};
use invalidb::json::WireCodec;
use invalidb::query::{MongoQueryEngine, QueryEngine};
use invalidb::store::Store;
use invalidb::stream::Task;
use invalidb::{doc, AfterImage, Document, Key, QuerySpec, SortDirection, SubscriptionId, TenantId};
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

/// A write as an app server puts it on the cluster topic, decoded into an
/// event by the ingress.
fn write_event(image: &AfterImage, tenants: &mut TenantInterner) -> Event {
    let mut w = WireCodec.writer();
    image.as_ref().write_to(&mut w);
    decode_event_with(w.finish(), |name| tenants.intern(name)).expect("a write envelope")
}

fn solo_cell() -> MatchingNode {
    let clock = MockClock::new();
    let config = ClusterConfig::new(1, 1);
    let publisher = Publisher::new(Broker::new().into(), &config, Arc::new(clock.clone()));
    MatchingNode::solo(config, Arc::new(clock), publisher).0
}

fn per(bytes: i64, n: u64) -> f64 {
    bytes as f64 / n as f64
}

/// Bytes a solo cell holds per subscribed range query: once registered, and
/// once its query index has built the interval tree on the first probe.
#[test]
fn a_live_range_query_holds_one_compiled_filter() {
    let mut cell = solo_cell();
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
    let probe = AfterImage {
        tenant: tenant.clone(),
        collection: COLLECTION.into(),
        key: Key::of("k000001"),
        version: 1,
        doc: Some(doc! { "random" => 7i64 }),
        written_at: 0,
        trace: None,
    };
    let probe = write_event(&probe, &mut TenantInterner::default());

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

/// `range_20k`'s ring: 25 000 writes to its 20 000 records.
const WRITES: u64 = 25_000;

/// Bytes a solo cell holds per retained write: `range_20k`'s documents (the
/// deciding integer, a sequence number, five 10-character strings and four
/// more integers), written as an app server writes them and fed through the
/// ingress decode. No query is subscribed, so what is left after each
/// write is what the cell keeps for replay and staleness avoidance.
#[test]
fn a_retained_write_holds_its_payload() {
    let mut cell = solo_cell();
    let mut tenants = TenantInterner::default();
    let mut rng = Lcg(7);
    let start = held();
    for seq in 0..WRITES {
        let mut doc = record(&mut rng);
        doc.insert("seq", seq as i64);
        for name in ["s1", "s2", "s3", "s4", "s5"] {
            doc.insert(name, format!("{:010}", rng.below(10_000_000_000)));
        }
        for name in ["i1", "i2", "i3", "i4"] {
            doc.insert(name, rng.below(1_000) as i64);
        }
        let image = AfterImage {
            tenant: TenantId::new(TENANT),
            collection: COLLECTION.into(),
            key: Key::of(format!("k{:06}", seq % RECORDS)),
            version: seq / RECORDS + 1,
            doc: Some(doc),
            written_at: seq,
            trace: None,
        };
        cell.handle(write_event(&image, &mut tenants));
        // Ticks run as they would in a cluster; the clock stands at zero,
        // so they trim nothing.
        if seq % 1_000 == 999 {
            cell.tick(Timestamp(0));
        }
    }
    let retained = per(held() - start, WRITES);
    assert_eq!(cell.retained_writes() as u64, WRITES);
    drop(cell);
    println!("bytes held per retained write over {WRITES} writes to {RECORDS} records:");
    println!("  cell              {retained:>8.1}  (ceiling {RETAINED_CEILING})");
    assert!(
        retained <= RETAINED_CEILING,
        "a retained write holds {retained:.1} bytes in the cell, budget {RETAINED_CEILING}"
    );
}

/// Measured when set: 372.5 (855.8 while the cell kept each write's decoded
/// after-image instead of its payload).
const RETAINED_CEILING: f64 = 450.0;

/// Items of the window below: a power of two, so the window's list holds
/// no spare capacity when the count is taken.
const WINDOW_ITEMS: u64 = 4_096;

/// Bytes a sorted window holds per item, beside the payload it shares with
/// the cell that retains the write: `sorted_top10`'s records (a category, a
/// score and the paper's nine other fields), each staged as the change a
/// cell passes on for a `cat = c ORDER BY score DESC LIMIT 10` query whose
/// slack takes them all.
#[test]
fn a_window_item_holds_its_sort_key_and_a_share_of_its_payload() {
    let mut tenants = TenantInterner::default();
    let mut rng = Lcg(7);
    let spec = QuerySpec::filter(COLLECTION, doc! { "cat" => 1i64 })
        .sorted_by("score", SortDirection::Desc)
        .with_limit(10);
    let changes: Vec<FilterChange> = (0..WINDOW_ITEMS)
        .map(|seq| {
            let mut doc =
                doc! { "cat" => 1i64, "score" => rng.below(1 << 40) as i64, "seq" => seq as i64 };
            for name in ["s1", "s2", "s3", "s4", "s5"] {
                doc.insert(name, format!("{:010}", rng.below(10_000_000_000)));
            }
            for name in ["i1", "i2", "i3", "i4"] {
                doc.insert(name, rng.below(1_000) as i64);
            }
            let image = AfterImage {
                tenant: TenantId::new(TENANT),
                collection: COLLECTION.into(),
                key: Key::of(format!("k{seq:06}")),
                version: 1,
                doc: Some(doc),
                written_at: seq,
                trace: None,
            };
            let Event::Write(write) = write_event(&image, &mut tenants) else { panic!("a write") };
            FilterChange {
                query_hash: spec.stable_hash(),
                kind: FilterChangeKind::Add,
                payload: write.payload,
                header: write.header,
                doc: write.doc,
                trace: None,
            }
        })
        .collect();
    let prepared = MongoQueryEngine.prepare(&spec).unwrap();
    let slack = WINDOW_ITEMS - 10;
    let start = held();
    let mut window = SortedWindow::new(prepared, slack, &[]);
    for change in &changes {
        assert!(window.apply_change(change).is_ok(), "a window with room for every item");
    }
    let item = per(held() - start, WINDOW_ITEMS);
    assert_eq!(window.len() as u64, WINDOW_ITEMS);
    drop(window);
    println!("bytes held per window item over {WINDOW_ITEMS} items:");
    println!("  window            {item:>8.1}  (ceiling {WINDOW_ITEM_CEILING})");
    assert!(
        item <= WINDOW_ITEM_CEILING,
        "a window item holds {item:.1} bytes, budget {WINDOW_ITEM_CEILING}"
    );
}

/// Measured when set: 112.3 (its key, version, sort key, payload handle and
/// span; the payload is the cell's).
const WINDOW_ITEM_CEILING: f64 = 135.0;

/// Bytes a store holds per record, its oplog entry included, and what a
/// secondary index adds: the same records saved into a store with and
/// without an index on the attribute they vary in.
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
    let (record, index) = (per(plain, RECORDS), per(indexed - plain, RECORDS));
    println!("bytes held per record over {RECORDS} records:");
    println!("  store, no index   {record:>8.1}  (ceiling {RECORD_CEILING})");
    println!("  index on `random` {index:>8.1}  (ceiling {INDEX_CEILING})");
    assert!(
        record <= RECORD_CEILING,
        "the store holds {record:.1} bytes per record, budget {RECORD_CEILING}"
    );
    assert!(
        index <= INDEX_CEILING,
        "the index holds {index:.1} bytes per record, budget {INDEX_CEILING}"
    );
}

/// Measured when set: 296.9 (333.1 while the store kept each record as an
/// `Arc<Document>` tree instead of its encoded bytes).
const RECORD_CEILING: f64 = 356.0;

/// Measured when set: 98.3 (451.4 while every distinct value kept a set of
/// its own, one B-tree leaf even for a single record).
const INDEX_CEILING: f64 = 118.0;
