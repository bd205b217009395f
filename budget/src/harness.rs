//! Set-up, the measured blocks and the oracle.
//!
//! Load generator = one writer thread and one collector (the calling
//! thread); churn operations run on a third thread that sleeps through
//! sat blocks and wakes a few times a second during paced ones.

use crate::model::{Expect, Model, Workload, Write, COLLECTION};
use crate::stack::Stack;
use crate::sys;
use crate::trace::Tracer;
use invalidb_client::{AppServer, ClientEvent, LiveResult, Subscription};
use invalidb_common::{Key, QuerySpec};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long an expectation or an initial result may take before the
/// operation counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-up subscribes this many queries, then awaits their initial results:
/// a burst stays below the TCP links' 1024-frame drop-oldest send queues.
const SETUP_BATCH: usize = 512;

/// Writes per block whose spans are kept: enough to read a block's shape,
/// few enough that the trace file stays a few megabytes.
const TRACED_WRITES_PER_BLOCK: usize = 500;

/// Operations attempted and failed so far in this process.
#[derive(Default, Debug, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// A set-up deployment with its subscriptions and its model.
pub struct Live {
    pub stack: Stack,
    pub model: Model,
    pub subs: Vec<Subscription>,
    pub churn: Vec<Subscription>,
    pub churn_specs: Vec<QuerySpec>,
}

fn await_initial(sub: &mut Subscription) -> bool {
    matches!(sub.events().timeout(OP_TIMEOUT).next(), Some(ClientEvent::Initial(_)))
}

/// start + preload + all subscribes + all initial results.
pub fn set_up(w: &Workload, seed: u64, counts: &mut Counts) -> Result<(Live, f64), String> {
    let mut model = Model::new(*w, seed);
    let preload = model.preload();
    let churn_specs = model.churn_specs();
    let t = Instant::now();
    let stack = Stack::start(w)?;
    // The collection as it was before anyone subscribed: straight into the
    // store, the way data that predates the cluster got there.
    for (key, doc) in preload {
        stack.store.save(COLLECTION, key, doc).map_err(|e| e.to_string())?;
    }
    // Measured subscriptions first, the churn pool behind them.
    let all: Vec<&QuerySpec> = model.specs().iter().chain(&churn_specs).collect();
    let mut subs = Vec::with_capacity(all.len());
    for batch in all.chunks(SETUP_BATCH) {
        let first = subs.len();
        for spec in batch {
            subs.push(stack.app.subscribe(spec).map_err(|e| e.to_string())?);
        }
        counts.attempted += batch.len() as u64;
        counts.failed += subs[first..].iter_mut().map(|sub| u64::from(!await_initial(sub))).sum::<u64>();
    }
    let churn = subs.split_off(w.subs);
    let setup_s = t.elapsed().as_secs_f64();
    Ok((Live { stack, model, subs, churn, churn_specs }, setup_s))
}

/// How a block offers its load.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Closed loop: at most this many writes in flight.
    Sat(usize),
    /// Open loop: writes at `rate` per second, and beside them
    /// unsubscribe + subscribe of a churn-pool query at `churn` per second.
    Paced { rate: f64, churn: f64 },
}

/// What one block measured.
#[derive(Default, Debug)]
pub struct Block {
    pub writes: usize,
    /// First issue → last expectation met.
    pub wall_s: f64,
    pub cpu_us: f64,
    pub allocs: f64,
    pub alloc_bytes: f64,
    /// Per expectation: due time → met.
    pub notify_us: Vec<f64>,
    /// Per churn operation: `subscribe()` call → initial result.
    pub subscribe_us: Vec<f64>,
    /// Per churn operation: the `subscribe()` call alone.
    pub subscribe_call_us: Vec<f64>,
    /// Per write: the `AppServer::save` call.
    pub save_call_ns: Vec<f64>,
    /// Per write of a paced block: how late the generator issued it.
    pub late_us: Vec<f64>,
    pub expectations: u64,
}

struct Pending {
    seq: u64,
    key: Key,
    due: Instant,
    issued: Instant,
    saved: Instant,
    expects: Vec<Expect>,
}

/// Does `result` reflect write `seq` to `key` (or, for a removal, its
/// absence)? A later write to the same key also satisfies either form.
fn holds(result: &LiveResult, key: &Key, seq: u64, removal: bool) -> bool {
    let held = result
        .entries()
        .iter()
        .find(|e| &e.key == key)
        .and_then(|e| e.doc.get("seq"))
        .and_then(|v| v.as_i64())
        .map(|s| s as u64);
    match held {
        Some(s) if removal => s > seq,
        Some(s) => s >= seq,
        None => removal,
    }
}

/// Consumes events of one subscription until the expectation is met.
fn await_met(sub: &mut Subscription, key: &Key, seq: u64, removal: bool, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    loop {
        if holds(sub.result(), key, seq, removal) {
            return true;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        match sub.events().timeout(left).next() {
            Some(ClientEvent::ConnectionLost) | None => return holds(sub.result(), key, seq, removal),
            Some(_) => {}
        }
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn writer(
    app: &AppServer,
    writes: Vec<Write>,
    pace: Pace,
    start: Instant,
    credits: mpsc::Receiver<()>,
    to_collector: mpsc::Sender<Pending>,
) -> (Vec<f64>, u64) {
    let mut late_us = Vec::new();
    let mut failed = 0u64;
    for (i, w) in writes.into_iter().enumerate() {
        let due = match pace {
            Pace::Sat(_) => {
                // One credit per write in flight; the collector returns it.
                if credits.recv().is_err() {
                    break;
                }
                Instant::now()
            }
            Pace::Paced { rate, .. } => {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                sleep_until(due);
                late_us.push(due.elapsed().as_secs_f64() * 1e6);
                due
            }
        };
        let issued = Instant::now();
        if app.save(COLLECTION, w.key.clone(), w.doc).is_err() {
            failed += 1;
            continue;
        }
        let saved = Instant::now();
        let pending = Pending { seq: w.seq, key: w.key, due, issued, saved, expects: w.expects };
        if to_collector.send(pending).is_err() {
            break;
        }
    }
    (late_us, failed)
}

/// `ops` churn operations, open loop: one every `1 / rate` seconds.
fn churner(
    app: &AppServer,
    pool: &mut [Subscription],
    specs: &[QuerySpec],
    start: Instant,
    ops: usize,
    rate: f64,
) -> (Vec<f64>, Vec<f64>, u64) {
    let (mut total_us, mut call_us, mut failed) = (Vec::new(), Vec::new(), 0u64);
    for n in 0..ops {
        sleep_until(start + Duration::from_secs_f64((n as f64 + 0.5) / rate));
        let slot = n % pool.len();
        app.unsubscribe(&pool[slot]);
        let t = Instant::now();
        let Ok(mut sub) = app.subscribe(&specs[slot]) else {
            failed += 1;
            continue;
        };
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
        if await_initial(&mut sub) {
            total_us.push(t.elapsed().as_secs_f64() * 1e6);
        } else {
            failed += 1;
        }
        pool[slot] = sub;
    }
    (total_us, call_us, failed)
}

/// Runs one block over `writes` and returns what it measured.
pub fn run_block(
    live: &mut Live,
    pace: Pace,
    writes: Vec<Write>,
    counts: &mut Counts,
    mut tracer: Option<(&mut Tracer, u32)>,
) -> Block {
    let mut block = Block { writes: writes.len(), ..Block::default() };
    let (churn_ops, churn_rate) = match pace {
        Pace::Sat(_) => (0, 1.0),
        // At least one, so even a 1/50-scale block samples a subscribe.
        Pace::Paced { rate, churn } => {
            (((writes.len() as f64 / rate * churn).round() as usize).max(1), churn)
        }
    };
    counts.attempted += (writes.len() + churn_ops) as u64;

    let (credit_tx, credit_rx) = mpsc::channel();
    let (pending_tx, pending_rx) = mpsc::channel::<Pending>();
    if let Pace::Sat(window) = pace {
        for _ in 0..window {
            credit_tx.send(()).expect("receiver is alive");
        }
    }
    let Live { stack, subs, churn, churn_specs, .. } = live;
    let app = &stack.app;

    let start = Instant::now();
    let cpu0 = sys::process_cpu_us();
    let (allocs0, bytes0) = sys::alloc_counters();
    let mut last_met = start;
    // After a first timeout the pipeline is presumed dead: later
    // expectations are checked, not awaited, so a broken run still ends.
    let mut patience = OP_TIMEOUT;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || writer(app, writes, pace, start, credit_rx, pending_tx));
        let churner =
            scope.spawn(move || churner(app, churn, churn_specs, start, churn_ops, churn_rate));
        for p in pending_rx {
            block.save_call_ns.push((p.saved - p.issued).as_secs_f64() * 1e9);
            let mut met_at = Vec::with_capacity(p.expects.len());
            let mut ok = true;
            for e in &p.expects {
                if await_met(&mut subs[e.sub as usize], &p.key, p.seq, e.removal, patience) {
                    let now = Instant::now();
                    block.notify_us.push((now - p.due).as_secs_f64() * 1e6);
                    met_at.push((e.sub, now));
                    last_met = now;
                } else {
                    ok = false;
                    patience = Duration::ZERO;
                }
            }
            block.expectations += p.expects.len() as u64;
            counts.failed += u64::from(!ok);
            if let Some((tracer, parent)) =
                tracer.as_mut().filter(|_| block.save_call_ns.len() <= TRACED_WRITES_PER_BLOCK)
            {
                tracer.write_spans(*parent, p.seq, p.issued, p.saved, &met_at);
            }
            let _ = credit_tx.send(());
        }
        if last_met == start {
            // No expectation in the whole block: it ends when its last write is taken in.
            last_met = Instant::now();
        }
        let (late_us, failed_saves) = writer.join().expect("writer thread");
        let (subscribe_us, subscribe_call_us, failed_churns) = churner.join().expect("churn thread");
        block.late_us = late_us;
        block.subscribe_us = subscribe_us;
        block.subscribe_call_us = subscribe_call_us;
        counts.failed += failed_saves + failed_churns;
    });
    let (allocs1, bytes1) = sys::alloc_counters();
    block.cpu_us = sys::process_cpu_us() - cpu0;
    block.allocs = (allocs1 - allocs0) as f64;
    block.alloc_bytes = (bytes1 - bytes0) as f64;
    block.wall_s = (last_met - start).as_secs_f64();
    block
}

/// The oracle: every subscription's folded result must equal the pull
/// query. Returns the number of subscriptions that still differ after the
/// pipeline had `patience` to quiesce.
pub fn oracle(live: &mut Live, patience: Duration) -> u64 {
    let deadline = Instant::now() + patience;
    let mut open: Vec<usize> = (0..live.subs.len()).collect();
    loop {
        open.retain(|&i| {
            let sub = &mut live.subs[i];
            while sub.events().non_blocking().next().is_some() {}
            let spec = &live.model.specs()[i];
            let Ok(truth) = live.stack.app.find(spec) else { return true };
            let mut want: Vec<(Key, u64)> = truth.into_iter().map(|r| (r.key, r.version)).collect();
            let mut have: Vec<(Key, u64)> =
                sub.result().entries().iter().map(|e| (e.key.clone(), e.version)).collect();
            if spec.sort.is_empty() {
                want.sort();
                have.sort();
            }
            want != have
        });
        if open.is_empty() || Instant::now() > deadline {
            return open.len() as u64;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
