//! Allocations per write, stage by stage.
//!
//! A write that notifies half a subscriber should pay for what it carries —
//! its key, its values, its buffers — and not for the names every layer keys
//! its state by. This test holds that: it drives steady-state updates through
//! the stages of the save→notify path one function call at a time, on one
//! thread, under an allocator that counts per thread, and asserts a ceiling
//! per stage. The ceilings sit about a fifth above what the code measured when
//! they were set (the numbers are in EXPERIMENTS.md, "Identity model"), so a
//! regression fails here and names its layer; the benchmark's
//! `allocs_per_write` says the same for the threaded pipeline as a whole.
//!
//! The stages are the pipeline's own functions, in pipeline order:
//! `Store::save` (writer thread), the write envelope encode (`WriteRef`),
//! the ingress decode (`decode_cluster_payload_with` + `Event::from`), one
//! synchronous grid cell (`MatchingNode::solo`: admission, probe, evaluate,
//! notify encode, publish, and its ticks), the dispatcher decode
//! (`decode_notify_payload`) and `LiveResult::apply_event`.

use invalidb::broker::{notify_topic, Broker};
use invalidb::client::{decode_notify_payload, ClientEvent, LiveResult, NotifyPayload};
use invalidb::common::{ClusterMessage, MockClock, SubscriptionRequest, TenantInterner, WriteRef};
use invalidb::core::ingest::decode_cluster_payload_with;
use invalidb::core::matching::MatchingNode;
use invalidb::core::{ClusterConfig, Event, Publisher};
use invalidb::json::WireCodec;
use invalidb::store::Store;
use invalidb::stream::Task;
use invalidb::{doc, Document, Key, NotificationKind, QuerySpec, SubscriptionId, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Allocation requests made by this thread (`alloc`, `alloc_zeroed`,
    /// `realloc` — what the benchmark's allocator counts).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: a thread that is being torn down may still free and
    // allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a `Cell` in
// a thread local without a destructor and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and adds the allocations it made on this thread to `stage`.
fn counted<R>(stage: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    *stage += ALLOCS.with(Cell::get) - before;
    out
}

const TENANT: &str = "app";
const COLLECTION: &str = "items";
const KEYS: u64 = 2_000;
const QUERIES: u64 = 400;
/// Queries are `[slot * SLOT, slot * SLOT + WIDTH)`: a quarter of the value
/// space is covered, so an update enters a range a quarter of the time and
/// leaves one a quarter of the time — half a notification per write, the
/// benchmark's `range_20k` shape.
const SLOT: i64 = 200;
const WIDTH: i64 = 50;
const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 1_000;

/// Knuth's MMIX generator: the test needs a fixed sequence, not randomness.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// The paper's document: five 10-character strings and five integers, one
/// of which decides matching, plus a sequence number — eleven fields.
fn document(rng: &mut Lcg, seq: u64) -> Document {
    let mut d =
        doc! { "random" => rng.below((QUERIES as i64 * SLOT) as u64) as i64, "seq" => seq as i64 };
    for name in ["s1", "s2", "s3", "s4", "s5"] {
        d.insert(name, format!("{:010}", rng.below(10_000_000_000)));
    }
    for name in ["i1", "i2", "i3", "i4"] {
        d.insert(name, rng.below(1_000) as i64);
    }
    d
}

fn range_query(slot: u64) -> QuerySpec {
    let lo = slot as i64 * SLOT;
    QuerySpec::filter(COLLECTION, doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + WIDTH } })
}

#[derive(Default, Debug)]
struct Stages {
    store_save: u64,
    write_encode: u64,
    ingest_decode: u64,
    cell: u64,
    dispatch_decode: u64,
    result_apply: u64,
}

#[test]
fn steady_state_updates_stay_within_their_allocation_budget() {
    let tenant = TenantId::new(TENANT);
    let clock = MockClock::new();
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let config = ClusterConfig::new(1, 1);
    let publisher = Publisher::new(broker.into(), &config, Arc::new(clock.clone()));
    let mut cell = MatchingNode::solo(config, Arc::new(clock.clone()), publisher);

    // The collection, indexed on the attribute the queries range over.
    let store = Store::new();
    store.collection(COLLECTION).create_index("random").unwrap();
    let mut rng = Lcg(7);
    for k in 0..KEYS {
        store.save(COLLECTION, Key::of(format!("k{k:06}")), document(&mut rng, 0)).unwrap();
    }

    // One subscription per range query, bootstrapped from the store as an
    // app server would; the initial results are read and dropped.
    let mut results: HashMap<SubscriptionId, LiveResult> = HashMap::new();
    for q in 0..QUERIES {
        let spec = range_query(q);
        let initial = store.execute(&spec).unwrap();
        let mut result = LiveResult::new();
        result.apply_event(&ClientEvent::Initial(initial.clone()));
        results.insert(SubscriptionId(q), result);
        cell.handle(Event::Subscribe(Arc::new(SubscriptionRequest {
            tenant: tenant.clone(),
            subscription: SubscriptionId(q),
            query_hash: spec.stable_hash(),
            spec,
            initial,
            slack: 0,
            ttl_micros: 3_600_000_000,
            renewal: false,
        })));
    }
    while notify.try_recv().is_some() {}

    let mut tenants = TenantInterner::default();
    let mut stages = Stages::default();
    let mut notified = 0u64;
    for seq in 1..=WARM_UP + MEASURED {
        // Whatever the warm-up allocated (maps growing to their working
        // size, first sightings) is not the steady state.
        if seq == WARM_UP + 1 {
            stages = Stages::default();
            notified = 0;
        }
        let key = Key::of(format!("k{:06}", rng.below(KEYS)));
        let doc = document(&mut rng, seq);

        // Writer thread: the store, then the write envelope.
        let written = counted(&mut stages.store_save, || store.save(COLLECTION, key, doc).unwrap());
        let payload = counted(&mut stages.write_encode, || {
            let mut w = WireCodec.writer();
            WriteRef {
                tenant: &tenant,
                collection: COLLECTION,
                key: &written.key,
                version: written.version,
                doc: written.doc.as_deref(),
                written_at: seq,
                trace: None,
            }
            .write_to(&mut w);
            w.finish()
        });
        drop(written);

        // Ingress: decode, and wrap for the cells.
        let event = counted(&mut stages.ingest_decode, || {
            let msg = decode_cluster_payload_with(&payload, |name| tenants.intern(name));
            let msg: ClusterMessage = msg.expect("a write envelope");
            Event::from(msg)
        });
        drop(payload);

        // The cell, with the ticks it would get at this write rate: 5 ms a
        // write is 200 writes/s, a tick every 50 ms, a 2 s retention horizon.
        counted(&mut stages.cell, || {
            cell.handle(event);
            clock.advance(Duration::from_millis(5));
            if seq % 10 == 0 {
                cell.tick();
            }
        });

        // App server: decode each envelope once, apply it per addressee.
        while let Some(payload) = notify.try_recv() {
            let envelope = counted(&mut stages.dispatch_decode, || {
                match decode_notify_payload(&payload, &tenant) {
                    Some(NotifyPayload::Envelope(envelope)) => envelope,
                    other => panic!("expected a change envelope, got {other:?}"),
                }
            });
            let NotificationKind::Change(change) = envelope.kind else { panic!("expected a change") };
            let event = counted(&mut stages.dispatch_decode, || ClientEvent::Change(Arc::new(change)));
            for id in &envelope.subscriptions {
                let result = results.get_mut(id).expect("a known subscription");
                counted(&mut stages.result_apply, || result.apply_event(&event));
                notified += 1;
            }
        }
    }

    // The path did its work: about half a notification per write, and every
    // maintained result equals the pull query.
    let fan_out = notified as f64 / MEASURED as f64;
    assert!((0.3..0.7).contains(&fan_out), "fan-out {fan_out}");
    for q in [0, 1, QUERIES / 2, QUERIES - 1] {
        let spec = range_query(q);
        let mut pulled: Vec<Key> = store.execute(&spec).unwrap().into_iter().map(|i| i.key).collect();
        let mut pushed = results[&SubscriptionId(q)].keys();
        pulled.sort();
        pushed.sort();
        assert_eq!(pushed, pulled, "query {q}");
    }

    let per_write = |n: u64| n as f64 / MEASURED as f64;
    println!("allocations per write over {MEASURED} updates, fan-out {fan_out:.2}:");
    // Measured when set: 6.04, 2.00, 9.00, 3.58, 7.18, 2.17 — 30.0 in all,
    // where the commit before (names copied at every layer) measured
    // 17.04, 3.00, 21.00, 30.20, 16.93, 6.56 — 94.7.
    let budget = [
        ("store.save", stages.store_save, 7.25),
        ("write.encode", stages.write_encode, 2.4),
        ("ingest.decode", stages.ingest_decode, 10.8),
        ("cell", stages.cell, 4.3),
        ("dispatch.decode", stages.dispatch_decode, 8.6),
        ("result.apply", stages.result_apply, 2.6),
    ];
    for (stage, allocs, ceiling) in budget {
        println!("  {stage:<16} {:>6.2}  (ceiling {ceiling})", per_write(allocs));
    }
    for (stage, allocs, ceiling) in budget {
        assert!(
            per_write(allocs) <= ceiling,
            "{stage}: {:.2} allocations per write, budget {ceiling}",
            per_write(allocs)
        );
    }
}
