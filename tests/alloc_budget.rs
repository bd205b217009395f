//! Allocations per write, stage by stage.
//!
//! A write that notifies half a subscriber should pay for what it carries —
//! its long values, its containers, its buffers — and not for the names and
//! short strings (its key among them) every layer keeps a copy of. This test
//! holds that: it drives steady-state updates through the stages of the
//! save→notify path one function call at a time, on one thread, under an
//! allocator that counts per thread, and asserts a ceiling per stage. The
//! ceilings sit about a fifth above what the code measured when they were
//! set (the numbers are in EXPERIMENTS.md, "Identity model" and "short
//! strings are scalars"), so a regression fails here and names its layer;
//! the benchmark's
//! `allocs_per_write` says the same for the threaded pipeline as a whole.
//!
//! The stages are the pipeline's own functions, in pipeline order:
//! `Store::save` (writer thread), the write envelope encode (`WriteRef`),
//! the ingress decode (`decode_event_with`), one
//! synchronous grid cell (`MatchingNode::solo`: admission, probe, evaluate,
//! notify encode, publish, and its ticks), the dispatcher decode
//! (`decode_notify_into`, into the dispatcher's reused address list) and
//! `LiveResult::apply_event`.
//!
//! A second run has eight subscriptions share every query, so one decoded
//! change reaches eight live results; it holds the cost of each delivery.
//! A third follows a sorted query's renewal across the wire: the keeper's
//! Subscribe envelope, its decode at the ingress, the initial result the
//! publisher writes for it and the dispatcher's decode of that. A fourth
//! runs `sorted_top10`'s shape through one cell into one sorting partition
//! (`SortingNode`: window maintenance and the edits it publishes). A fifth
//! has the ranges overlap, so a write moves four queries: the cell
//! addresses them in one envelope per match type, which it encodes and the
//! dispatcher decodes once. A heartbeat is recognised, and the paper's
//! eleven-field record checked, without allocating.

use invalidb::broker::{notify_topic, Broker};
use invalidb::client::{decode_notify_into, ClientEvent, LiveResult, NotifyPayload};
use invalidb::common::{
    ClusterMessage, MockClock, NotifyEnvelope, ResultItem, SortDirection, SubscriptionRequest,
    TenantInterner, WriteRef,
};
use invalidb::core::ingest::decode_event_with;
use invalidb::core::matching::MatchingNode;
use invalidb::core::sorting::SortingNode;
use invalidb::core::{ClusterConfig, Event, Publisher};
use invalidb::json::{LazyDoc, WireCodec};
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
/// Overlapping queries, `[slot * SLOT, slot * SLOT + OVERLAPPING)`: a value
/// lies in two of them, so an update leaves two and enters two — four
/// unsorted queries per write, `fanout_conj`'s shape in one cell.
const OVERLAPPING: i64 = 2 * SLOT;
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

fn range_query(slot: u64, width: i64) -> QuerySpec {
    let lo = slot as i64 * SLOT;
    QuerySpec::filter(COLLECTION, doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + width } })
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

/// What one run counted over its measured writes.
struct Run {
    stages: Stages,
    /// Envelopes times their addressees: one per `apply_event`.
    deliveries: u64,
    envelopes: u64,
}

/// Drives `WARM_UP + MEASURED` steady-state updates through the stages, with
/// `sharing` subscriptions per range query of `width` (so every envelope
/// addresses that many live results per query it carries), then checks
/// that every maintained result equals the pull query.
fn run(sharing: u64, width: i64) -> Run {
    let tenant = TenantId::new(TENANT);
    let clock = MockClock::new();
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let config = ClusterConfig::new(1, 1);
    let publisher = Publisher::new(broker.into(), &config, Arc::new(clock.clone()));
    let (mut cell, _) = MatchingNode::solo(config, Arc::new(clock.clone()), publisher);

    // The collection, indexed on the attribute the queries range over.
    let store = Store::new();
    store.collection(COLLECTION).create_index("random").unwrap();
    let mut rng = Lcg(7);
    for k in 0..KEYS {
        store.save(COLLECTION, Key::of(format!("k{k:06}")), document(&mut rng, 0)).unwrap();
    }

    // `sharing` subscriptions per range query, each bootstrapped from the
    // store as an app server would; the initial results are read and
    // dropped.
    let mut results: HashMap<SubscriptionId, LiveResult> = HashMap::new();
    for q in 0..QUERIES {
        let spec = range_query(q, width);
        for s in 0..sharing {
            let id = SubscriptionId(q * sharing + s);
            let initial = store.execute(&spec).unwrap();
            let mut result = LiveResult::new();
            result.apply_event(&ClientEvent::Initial(initial.clone()));
            results.insert(id, result);
            cell.handle(Event::Subscribe(Arc::new(SubscriptionRequest {
                tenant: tenant.clone(),
                subscription: id,
                query_hash: spec.stable_hash(),
                spec: spec.clone(),
                initial,
                slack: 0,
                ttl_micros: 3_600_000_000,
                renewal: false,
            })));
        }
    }
    while notify.try_recv().is_some() {}

    let mut tenants = TenantInterner::default();
    let mut addressees = Vec::new();
    let mut stages = Stages::default();
    let (mut deliveries, mut envelopes) = (0u64, 0u64);
    for seq in 1..=WARM_UP + MEASURED {
        // Whatever the warm-up allocated (maps growing to their working
        // size, first sightings) is not the steady state.
        if seq == WARM_UP + 1 {
            stages = Stages::default();
            (deliveries, envelopes) = (0, 0);
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

        // Ingress: decode into the event the cells get, payload included.
        let event = counted(&mut stages.ingest_decode, || {
            decode_event_with(payload, |name| tenants.intern(name)).expect("a write envelope")
        });

        // The cell, with the ticks it would get at this write rate: 5 ms a
        // write is 200 writes/s, a tick every 50 ms, a 2 s retention horizon.
        counted(&mut stages.cell, || {
            cell.handle(event);
            clock.advance(Duration::from_millis(5));
            if seq % 10 == 0 {
                cell.tick();
            }
        });

        // App server: decode each envelope once, apply it per addressee,
        // hand the address list back.
        while let Some(payload) = notify.try_recv() {
            let envelope = counted(&mut stages.dispatch_decode, || {
                match decode_notify_into(&payload, &tenant, &mut addressees) {
                    Some(NotifyPayload::Envelope(envelope)) => envelope,
                    other => panic!("expected a change envelope, got {other:?}"),
                }
            });
            let NotificationKind::Change(change) = envelope.kind else { panic!("expected a change") };
            let event = counted(&mut stages.dispatch_decode, || ClientEvent::Change(Arc::new(change)));
            let addressed = envelope.subscriptions.len() as u64;
            assert_eq!(addressed % sharing, 0, "every query's sharers together");
            if width <= SLOT {
                assert_eq!(addressed, sharing, "one envelope for the query's sharers");
            }
            envelopes += 1;
            for id in &envelope.subscriptions {
                let result = results.get_mut(id).expect("a known subscription");
                counted(&mut stages.result_apply, || result.apply_event(&event));
                deliveries += 1;
            }
            addressees = envelope.subscriptions;
        }
    }

    // The path did its work: every maintained result equals the pull query.
    for q in 0..QUERIES {
        let mut pulled: Vec<Key> =
            store.execute(&range_query(q, width)).unwrap().into_iter().map(|i| i.key).collect();
        pulled.sort();
        for s in 0..sharing {
            let mut pushed = results[&SubscriptionId(q * sharing + s)].keys();
            pushed.sort();
            assert_eq!(pushed, pulled, "query {q}, subscription {s}");
        }
    }
    Run { stages, deliveries, envelopes }
}

fn per_write(n: u64) -> f64 {
    n as f64 / MEASURED as f64
}

#[test]
fn steady_state_updates_stay_within_their_allocation_budget() {
    let Run { stages, deliveries, .. } = run(1, WIDTH);
    // About half a notification per write.
    let fan_out = per_write(deliveries);
    assert!((0.3..0.7).contains(&fan_out), "fan-out {fan_out}");

    println!("allocations per write over {MEASURED} updates, fan-out {fan_out:.2}:");
    // Measured when set: 3.04, 1.00, 3.00, 0.89, 1.54, 0.11 — 9.6 in all;
    // `ingest.decode` 0.00 since a write crosses the ingress as its checked
    // payload (3.00 while it built each write's `Document`, collection name
    // and `Arc<AfterImage>`);
    // `dispatch.decode` 1.03 since the dispatcher reads addressees into a
    // list it reuses (1.54 with a new one per envelope);
    // `store.save` 2.09 since an index bucket holding one record is that
    // record's key (a B-tree leaf per distinct value before)
    // (`cell` 1.77 while every query charged to the slow-query log copied
    // its label once per tick; 6.04, 9.00, 3.07, 4.62 and 0.62 while every
    // string value, key and
    // collection name was a heap `String`, copied at every layer that kept
    // it; `write.encode` was 2.00, `cell` 3.58 and `dispatch.decode` 7.18
    // while every payload grew a buffer of its own and the dispatcher
    // built the whole envelope as a document; `result.apply` was 2.17
    // while each live entry copied its document), where the commit before
    // the identity model (names copied at every layer) measured 17.04,
    // 3.00, 21.00, 30.20, 16.93, 6.56 — 94.7.
    let budget = [
        ("store.save", stages.store_save, 2.5),
        ("write.encode", stages.write_encode, 1.2),
        ("ingest.decode", stages.ingest_decode, 0.2),
        ("cell", stages.cell, 1.1),
        ("dispatch.decode", stages.dispatch_decode, 1.25),
        ("result.apply", stages.result_apply, 0.12),
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

/// Eight subscriptions share every range query, so every envelope reaches
/// eight live results: applying it costs each of them its entry's key, not
/// a copy of the document, and decoding it costs its address list nothing,
/// the dispatcher's list being reused.
#[test]
fn a_change_shared_by_many_results_is_applied_without_copying_its_document() {
    const SHARING: u64 = 8;
    let Run { stages, deliveries, envelopes } = run(SHARING, WIDTH);
    let fan_out = per_write(envelopes);
    assert!((0.3..0.7).contains(&fan_out), "envelopes per write {fan_out}");
    let per_delivery = stages.result_apply as f64 / deliveries as f64;
    // Measured when set: 0.20 (1.20 while each entry's key was a heap
    // `String`, 4.23 while each live entry copied its document).
    println!("result.apply: {per_delivery:.2} allocations per delivery over {deliveries} deliveries");
    assert!(
        per_delivery <= 0.25,
        "result.apply: {per_delivery:.2} allocations per delivery, budget 0.25"
    );
    let per_envelope = stages.dispatch_decode as f64 / envelopes as f64;
    // Measured when set: 2.00 (3.00 while every envelope's address list was
    // a new allocation, 9.00 while every string was a heap `String`, 15.0
    // while the dispatcher built the envelope as a document, with a value
    // per address).
    println!("dispatch.decode: {per_envelope:.2} allocations per envelope over {envelopes} envelopes");
    assert!(
        per_envelope <= 2.4,
        "dispatch.decode: {per_envelope:.2} allocations per envelope, budget 2.4"
    );
}

/// Overlapping ranges: an update leaves two queries and enters two, and the
/// cell addresses the queries a write moves alike in one envelope — one
/// Remove and one Add per write, not four envelopes. The cell encodes, and
/// the dispatcher decodes, each envelope once.
#[test]
fn a_write_that_moves_four_queries_is_encoded_and_decoded_once_per_match_type() {
    let Run { stages, deliveries, envelopes } = run(1, OVERLAPPING);
    let (fan_out, per_write_envelopes) = (per_write(deliveries), per_write(envelopes));
    assert!((3.5..4.5).contains(&fan_out), "queries moved per write {fan_out}");
    assert!(per_write_envelopes <= 2.1, "envelopes per write {per_write_envelopes}");
    println!(
        "allocations per write over {MEASURED} updates, {fan_out:.2} queries and \
         {per_write_envelopes:.2} envelopes per write:"
    );
    // Measured when set: `cell` 2.33, `dispatch.decode` 4.00 (4.32 and 7.98
    // while every query a write moved had an envelope of its own, 3.99 per
    // write).
    let budget = [("cell", stages.cell, 2.8), ("dispatch.decode", stages.dispatch_decode, 4.8)];
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

/// A short string is a scalar: copying a key of up to 22 bytes allocates
/// nothing, and copying a record of scalars and short strings allocates its
/// entry vector and nothing else.
#[test]
fn short_keys_and_records_of_scalars_copy_without_allocating_their_strings() {
    let key = Key::of("k".repeat(22));
    let mut allocs = 0;
    let copy = counted(&mut allocs, || key.clone());
    assert_eq!(copy, key);
    assert_eq!(allocs, 0, "cloning a 22-byte key");

    let doc = document(&mut Lcg(7), 1);
    let mut allocs = 0;
    let copy = counted(&mut allocs, || doc.clone());
    assert_eq!(copy, doc);
    assert_eq!(allocs, 1, "cloning an eleven-field record of scalars and 10-byte strings");
}

/// A renewal of `sorted_top10`'s shape: a top-10 window whose bootstrap
/// result carries 13 records (a slack of 3), each crossing the wire once
/// as the Subscribe the keeper publishes and once as the initial result
/// the publisher writes back. Each step is held to a ceiling per renewal.
#[test]
fn a_sorted_renewal_crosses_the_wire_within_its_allocation_budget() {
    const ROUNDS: u64 = 100;
    let tenant = TenantId::new(TENANT);
    let mut rng = Lcg(11);
    let initial: Vec<ResultItem> = (0..13)
        .map(|i| ResultItem::new(Key::of(format!("k{i:06}")), 1, document(&mut rng, i)))
        .collect();
    let spec = QuerySpec::filter(COLLECTION, doc! { "random" => doc! { "$gte" => 0i64 } })
        .sorted_by("random", SortDirection::Desc)
        .with_limit(10);
    let request = SubscriptionRequest {
        tenant: tenant.clone(),
        subscription: SubscriptionId(1),
        query_hash: spec.stable_hash(),
        spec,
        initial,
        slack: 3,
        ttl_micros: 60_000_000,
        renewal: false,
    };
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let publisher = Publisher::new(broker.into(), &ClusterConfig::new(1, 1), Arc::new(MockClock::new()));
    let mut tenants = TenantInterner::default();
    let mut addressees = Vec::new();
    let [mut encode, mut ingest, mut initial, mut dispatch] = [0u64; 4];
    // Round 0 warms up the buffers and the tenant entries.
    for round in 0..=ROUNDS {
        if round == 1 {
            [encode, ingest, initial, dispatch] = [0; 4];
        }
        let message = ClusterMessage::Subscribe(request.clone());
        // The keeper publishes the renewal ...
        let payload = counted(&mut encode, || {
            let mut w = WireCodec.writer();
            message.write_to(&mut w);
            w.finish()
        });
        // ... the ingress decodes it and the publisher answers it ...
        let decoded = counted(&mut ingest, || decode_event_with(payload, |name| tenants.intern(name)));
        let Some(Event::Subscribe(req)) = decoded else { panic!("expected a subscription") };
        counted(&mut initial, || publisher.initial_result(&req));
        // ... and the dispatcher decodes the initial result.
        let payload = notify.try_recv().expect("the initial result");
        let decoded = counted(&mut dispatch, || decode_notify_into(&payload, &tenant, &mut addressees));
        let Some(NotifyPayload::Envelope(envelope)) = decoded else { panic!("expected an envelope") };
        let NotificationKind::InitialResult { items } = &envelope.kind else {
            panic!("an initial result")
        };
        assert_eq!(items.len(), 10, "the visible window");
        addressees = envelope.subscriptions;
    }
    // Measured when set: 1.00, 20.00, 2.00 and 11.00; at the commit before
    // the typed codecs, which built a document of each message, 35, 60, 2
    // and 27.
    let budget = [
        ("keeper.encode", encode, 1.2),
        ("ingest.decode", ingest, 24.0),
        ("publisher.initial", initial, 2.4),
        ("dispatch.decode", dispatch, 13.2),
    ];
    println!("allocations per renewal over {ROUNDS} renewals of 13 records:");
    for (stage, allocs, ceiling) in budget {
        println!("  {stage:<18} {:>6.2}  (ceiling {ceiling})", allocs as f64 / ROUNDS as f64);
    }
    for (stage, allocs, ceiling) in budget {
        let per_renewal = allocs as f64 / ROUNDS as f64;
        assert!(
            per_renewal <= ceiling,
            "{stage}: {per_renewal:.2} allocations per renewal, budget {ceiling}"
        );
    }
}

/// `sorted_top10`'s shape at a twentieth of its queries: categories of
/// twenty records, one `cat = c ORDER BY score DESC LIMIT 10` query each
/// with a slack of three, and updates that give a record a new score. One
/// cell stages each transition into one sorting partition, both driven on
/// this thread; a maintenance error is answered with a renewal from the
/// store, as the app server answers it (not counted). The cell and the
/// partition are each held to a ceiling per write, and every folded result
/// ends equal to the pull query.
#[test]
fn a_sorted_write_crosses_its_cell_and_window_within_its_allocation_budget() {
    const CATS: u64 = 50;
    const PER_CAT: u64 = 20;
    const SLACK: u64 = 3;
    let tenant = TenantId::new(TENANT);
    let clock = MockClock::new();
    let broker = Broker::new();
    let notify = broker.subscribe(&notify_topic(TENANT));
    let config = ClusterConfig::new(1, 1);
    let publisher = Publisher::new(broker.into(), &config, Arc::new(clock.clone()));
    let (mut cell, staged) =
        MatchingNode::solo(config.clone(), Arc::new(clock.clone()), publisher.clone());
    let mut sorting = SortingNode::new(0, config, Arc::new(clock.clone()), publisher);

    let store = Store::new();
    store.collection(COLLECTION).create_index("cat").unwrap();
    let mut rng = Lcg(13);
    let key_of = |k: u64| Key::of(format!("k{k:06}"));
    let record = |rng: &mut Lcg, k: u64, seq: u64| {
        let mut d = document(rng, seq);
        d.remove("random");
        d.insert("cat", (k % CATS) as i64);
        d.insert("score", rng.below(1_000_000) as i64);
        d
    };
    for k in 0..CATS * PER_CAT {
        store.save(COLLECTION, key_of(k), record(&mut rng, k, 0)).unwrap();
    }
    let spec = |cat: u64| {
        QuerySpec::filter(COLLECTION, doc! { "cat" => cat as i64 })
            .sorted_by("score", SortDirection::Desc)
            .with_limit(10)
    };
    // What the app server publishes for a subscription or its renewal.
    let request = |cat: u64| {
        let spec = spec(cat);
        Arc::new(SubscriptionRequest {
            tenant: tenant.clone(),
            subscription: SubscriptionId(cat),
            query_hash: spec.stable_hash(),
            initial: store.execute(&spec.rewrite_for_bootstrap(SLACK)).unwrap(),
            spec,
            slack: SLACK,
            ttl_micros: 3_600_000_000,
            renewal: false,
        })
    };
    let mut results: HashMap<SubscriptionId, LiveResult> = HashMap::new();
    for cat in 0..CATS {
        let req = request(cat);
        sorting.handle(Event::Subscribe(Arc::clone(&req)));
        cell.handle(Event::Subscribe(req));
    }

    let [mut cell_allocs, mut window_allocs, mut renewals, mut edits] = [0u64; 4];
    for seq in 1..=WARM_UP + MEASURED {
        if seq == WARM_UP + 1 {
            [cell_allocs, window_allocs, renewals, edits] = [0; 4];
        }
        let k = rng.below(CATS * PER_CAT);
        let written = store.save(COLLECTION, key_of(k), record(&mut rng, k, seq)).unwrap();
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
        let event = decode_event_with(w.finish(), TenantId::new).expect("a write envelope");
        counted(&mut cell_allocs, || {
            cell.handle(event);
            clock.advance(Duration::from_millis(5));
            if seq % 10 == 0 {
                cell.tick();
            }
        });
        counted(&mut window_allocs, || {
            for event in staged.try_iter() {
                sorting.handle(event);
            }
            if seq % 10 == 0 {
                sorting.tick();
            }
        });
        // The app server: fold every notification, renew on an error.
        while let Some(payload) = notify.try_recv() {
            let Ok(d) = invalidb::json::payload_to_document(&payload) else { continue };
            let Ok(envelope) = NotifyEnvelope::from_document(d) else { continue };
            for note in envelope.into_notifications() {
                results.entry(note.subscription).or_default().apply(&note);
                match note.kind {
                    NotificationKind::Error(_) => {
                        renewals += 1;
                        let req = request(note.subscription.0);
                        sorting.handle(Event::Subscribe(Arc::clone(&req)));
                        cell.handle(Event::Subscribe(req));
                    }
                    NotificationKind::Change(_) => edits += 1,
                    _ => {}
                }
            }
        }
    }
    for cat in 0..CATS {
        let pulled: Vec<(Key, u64)> =
            store.execute(&spec(cat)).unwrap().into_iter().map(|i| (i.key, i.version)).collect();
        let live = &results[&SubscriptionId(cat)];
        let folded: Vec<(Key, u64)> =
            live.entries().iter().map(|e| (e.key.clone(), e.version)).collect();
        assert_eq!(folded, pulled, "category {cat}");
    }
    let per_write = |n: u64| n as f64 / MEASURED as f64;
    println!(
        "allocations per sorted write over {MEASURED} updates, {:.2} edits and {:.1} renewals per kwrite:",
        per_write(edits),
        per_write(renewals) * 1000.0
    );
    // Measured when set: 0.03 and 1.30; 3.03 and 6.16 while the cell built
    // an after-image for every sorted match and each window entry copied
    // its record (4.92 of the 6.16 in `SortedWindow::apply`).
    let budget = [("cell", cell_allocs, 0.04), ("sorting", window_allocs, 1.56)];
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

/// The notifier's heartbeat, `{type, tenant}`, is recognised by the
/// dispatcher without building anything.
#[test]
fn a_heartbeat_decodes_without_allocating() {
    let tenant = TenantId::new(TENANT);
    let payload = WireCodec.encode(&doc! { "type" => "heartbeat", "tenant" => TENANT });
    let mut addressees = Vec::new();
    let mut allocs = 0;
    let decoded = counted(&mut allocs, || decode_notify_into(&payload, &tenant, &mut addressees));
    assert_eq!(decoded, Some(NotifyPayload::Heartbeat));
    assert_eq!(allocs, 0, "allocations to decode a heartbeat");
}

/// The ingress checks a write's record as strictly as decoding it would
/// (tags, varints, depth, the UTF-8 of every string, no name given twice)
/// and builds nothing to do so: checking the paper's eleven-field record
/// allocates nothing.
#[test]
fn checking_the_papers_eleven_field_record_allocates_nothing() {
    let payload = WireCodec.encode(&document(&mut Lcg(7), 1));
    let mut allocs = 0;
    let checked =
        counted(&mut allocs, || LazyDoc::new(&payload).and_then(|lazy| lazy.root().check()).is_ok());
    assert!(checked, "the record is well formed");
    assert_eq!(allocs, 0, "allocations to check an eleven-field record");
}
