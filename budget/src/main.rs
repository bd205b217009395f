//! `budget`: one repeatable save→notify benchmark for the real pipeline,
//! with a per-layer budget measured from outside. See README.md.

mod harness;
mod layers;
mod model;
mod report;
mod stack;
mod sys;
mod trace;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

use harness::{Block, Counts, Live, Pace};
use model::{Shape, Workload, WORKLOADS};
use report::{best_fifth, median, quantile, spread, Outcome};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20200420;
/// Measured seconds when `--seconds` is absent (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;
/// Fewest rounds a run measures, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// Fresh deployments set up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long the pipeline may take to quiesce before the oracle gives up.
const ORACLE_PATIENCE: Duration = Duration::from_secs(5);

fn sat_block(live: &mut Live, counts: &mut Counts, tracer: Option<(&mut trace::Tracer, u32)>) -> Block {
    let w = live.model.workload;
    let writes = live.model.take(w.b_sat);
    harness::run_block(live, Pace::Sat(w.window), writes, counts, tracer)
}

fn paced_block(
    live: &mut Live,
    counts: &mut Counts,
    tracer: Option<(&mut trace::Tracer, u32)>,
) -> Block {
    let w = live.model.workload;
    let writes = live.model.take(w.b_paced);
    harness::run_block(live, Pace::Paced { rate: w.rate, churn: w.churn_rate }, writes, counts, tracer)
}

fn warm_up(live: &mut Live, counts: &mut Counts) {
    let writes = live.model.take_pass();
    let window = live.model.workload.window;
    harness::run_block(live, Pace::Sat(window), writes, counts, None);
}

/// What a log-tailer would do: without it the oplog grows for the whole
/// run and later rounds cost more than earlier ones. Growth inside a block
/// is still charged to the block.
fn trim_oplog(live: &Live) {
    let oplog = live.stack.store.oplog();
    oplog.trim_to(oplog.head());
}

fn run_oracle(live: &mut Live, counts: &mut Counts) -> u64 {
    let mismatched = harness::oracle(live, ORACLE_PATIENCE);
    counts.failed += mismatched;
    mismatched
}

fn per_write(b: &Block, total: f64) -> f64 {
    total / b.writes.max(1) as f64
}

/// The end-to-end run: tracing off, `SETUPS` set-ups, rounds of one sat and
/// one paced block until `seconds` have been measured.
fn measure(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    // Each deployment but the last is torn down before the next starts.
    let mut live = loop {
        let (live, setup_s) = harness::set_up(w, seed, &mut out.counts)?;
        setups.push(setup_s);
        if setups.len() == SETUPS {
            break live;
        }
    };
    warm_up(&mut live, &mut out.counts);

    let (mut sat, mut paced, mut calib) = (Vec::new(), Vec::new(), Vec::new());
    let mut heap_live_mb = 0.0;
    let started = Instant::now();
    while sat.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        calib.push(sys::calibrate_ms());
        sat.push(sat_block(&mut live, &mut out.counts, None));
        paced.push(paced_block(&mut live, &mut out.counts, None));
        trim_oplog(&live);
        // Memory is read after a fixed amount of work, not at the end: the
        // live heap still grows by ~0.5 % per round (per-subscription
        // version maps), and how many rounds fit depends on the host.
        if sat.len() == MIN_ROUNDS {
            heap_live_mb = sys::heap_live_mb();
        }
    }
    let mismatched = run_oracle(&mut live, &mut out.counts);
    let reconnects = live.stack.app.reconnect_replays();
    drop(live);

    let over_rounds = |f: &dyn Fn(&Block) -> f64| sat.iter().map(f).collect::<Vec<f64>>();
    let writes_per_s = over_rounds(&|b| b.writes as f64 / b.wall_s);
    let cpu = over_rounds(&|b| per_write(b, b.cpu_us));
    let notify_p50: Vec<f64> = paced.iter().map(|b| median(&b.notify_us)).collect();
    let subscribe: Vec<f64> = paced.iter().flat_map(|b| b.subscribe_us.iter().copied()).collect();
    out.put("setup_s", median(&setups));
    // Clock-bound metrics take the best fifth of the rounds, counts the median.
    out.put("sat_writes_per_s", best_fifth(&writes_per_s, true));
    out.put("cpu_us_per_write", best_fifth(&cpu, false));
    out.put("allocs_per_write", median(&over_rounds(&|b| per_write(b, b.allocs))));
    out.put("alloc_kb_per_write", median(&over_rounds(&|b| per_write(b, b.alloc_bytes) / 1024.0)));
    out.put("notify_p50_us", best_fifth(&notify_p50, false));
    out.put("heap_live_mb", heap_live_mb);

    out.host_noisy = spread(&calib) > 0.10;
    out.note(format!(
        "rounds {}  oracle mismatches {mismatched}  link reconnects {reconnects}",
        sat.len()
    ));
    out.note(format!("setup_s each: {setups:.3?}"));
    out.note(format!(
        "notify samples/block ~{}  subscribe p50 {:.0} us over {} samples (per-layer: client.subscribe_p50_us)",
        paced.iter().map(|b| b.notify_us.len()).sum::<usize>() / paced.len(),
        median(&subscribe),
        subscribe.len()
    ));
    out.note(format!("per round sat_writes_per_s: {writes_per_s:.0?}"));
    out.note(format!("per round cpu_us_per_write: {cpu:.1?}"));
    out.note(format!("per round notify_p50_us: {notify_p50:.0?}"));
    out.note(format!("per round host.calib_ms: {calib:.2?}"));
    Ok(out)
}

fn counter(snapshot: &invalidb_obs::MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// The traced run: one set-up, rounds of a plain sat block, a traced sat
/// block and a traced paced block, then the layer replay. Gives every
/// per-layer metric and writes the spans.
fn measure_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let run_started = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new();
    let (mut live, _) = harness::set_up(w, seed, &mut out.counts)?;
    warm_up(&mut live, &mut out.counts);

    let (mut plain, mut traced, mut paced, mut calib) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut published, mut sat_expected) = (0.0f64, 0u64);
    let before = live.stack.cluster_metrics();
    let renewals_before = live.stack.app.renewals_performed();
    let published_before = live.stack.broker.stats().0;
    let started = Instant::now();
    // Half the time goes to rounds, the rest is left for the replay.
    while plain.len() < 3 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        calib.push(sys::calibrate_ms());
        let t = Instant::now();
        let round = tracer.span("round", t, t, None, None, Some(plain.len() as u64));
        let published_from = counter(&live.stack.cluster_metrics(), "notifier.published");
        plain.push(sat_block(&mut live, &mut out.counts, None));
        let t = Instant::now();
        let span = tracer.span("sat", t, t, Some(round), None, None);
        traced.push(sat_block(&mut live, &mut out.counts, Some((&mut tracer, span))));
        tracer.close(span);
        // Churn subscribes publish initial results, so the notifier count
        // is compared with the model over the sat blocks only.
        published += counter(&live.stack.cluster_metrics(), "notifier.published") - published_from;
        sat_expected +=
            plain.last().map_or(0, |b| b.expectations) + traced.last().map_or(0, |b| b.expectations);
        let t = Instant::now();
        let span = tracer.span("paced", t, t, Some(round), None, None);
        paced.push(paced_block(&mut live, &mut out.counts, Some((&mut tracer, span))));
        tracer.close(span);
        tracer.close(round);
        trim_oplog(&live);
    }
    // Cells publish their hit counters on the cluster's 50 ms tick.
    std::thread::sleep(Duration::from_millis(120));
    let after = live.stack.cluster_metrics();
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let sat_writes: usize = plain.iter().chain(&traced).map(|b| b.writes).sum();
    let writes = (sat_writes + paced.iter().map(|b| b.writes).sum::<usize>()) as f64;
    let evals = delta("matching.matched") + delta("matching.filtered");
    let retained: u64 =
        after.gauges.iter().filter(|(k, _)| k.ends_with(".retained_writes")).map(|(_, v)| v).sum();
    out.put(
        "broker.publishes_per_write",
        (live.stack.broker.stats().0 - published_before) as f64 / writes,
    );
    out.put("query.evals_per_write", evals / writes);
    out.put("matching.pred_cache_hit_ratio", delta("matching.index.pred_cache_hits") / evals.max(1.0));
    out.put("matching.eq_lane_hits_per_write", delta("matching.index.eq_lane_hits") / writes);
    out.put("matching.stale_dropped", delta("matching.dropped_stale"));
    out.put("matching.retained_writes", retained as f64);
    out.put(
        "sorting.renewals_per_kwrite",
        (live.stack.app.renewals_performed() - renewals_before) as f64 / writes * 1e3,
    );
    out.put("sorting.maintenance_errors", delta("sorting.maintenance_errors"));
    out.put("sorting.pending_shed", delta("sorting.pending_shed"));
    out.put("notifier.published_per_write", published / sat_writes as f64);
    // Unsorted workloads: one notification per expectation, exactly. A
    // sorted window also announces the items that enter from the slack.
    if w.shape != Shape::Sorted && published != sat_expected as f64 {
        out.counts.failed += 1;
        out.note(format!(
            "notifier published {published} over the sat blocks, the model expects {sat_expected}"
        ));
    }
    let mismatched = run_oracle(&mut live, &mut out.counts);
    drop(live);

    let pool = |blocks: &[Block], f: &dyn Fn(&Block) -> &Vec<f64>| -> Vec<f64> {
        blocks.iter().flat_map(|b| f(b).iter().copied()).collect()
    };
    let rate = |blocks: &[Block]| {
        median(&blocks.iter().map(|b| b.writes as f64 / b.wall_s).collect::<Vec<_>>())
    };
    let notify = pool(&paced, &|b| &b.notify_us);
    let subscribe = pool(&paced, &|b| &b.subscribe_us);
    let sat_rates: Vec<f64> = plain.iter().map(|b| b.writes as f64 / b.wall_s).collect();
    out.put("client.save_call_ns", median(&pool(&paced, &|b| &b.save_call_ns)));
    out.put("client.subscribe_call_us", median(&pool(&paced, &|b| &b.subscribe_call_us)));
    out.put("client.notify_p99_us", quantile(&notify, 0.99));
    out.put("client.notify_max_us", quantile(&notify, 1.0));
    out.put("client.subscribe_p50_us", median(&subscribe));
    out.put("client.subscribe_p99_us", quantile(&subscribe, 0.99));
    out.put("trace.overhead_frac", 1.0 - rate(&traced) / rate(&plain));
    out.put("sat.block_spread", spread(&sat_rates));
    out.put("gen.late_p99_us", quantile(&pool(&paced, &|b| &b.late_us), 0.99));
    out.put("host.calib_ms", median(&calib));
    out.put("host.calib_spread", spread(&calib));
    out.put("host.rss_mb", sys::peak_rss_mb());
    out.host_noisy = spread(&calib) > 0.10;

    let layer = layers::replay(w, seed, &mut tracer)?;
    for (&name, &value) in &layer {
        out.put(name, value);
    }
    // Service time the replay accounts for, per write and per notification.
    let l = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let per_notification =
        l("json.encode_notify_ns") + l("json.decode_notify_ns") + l("client.apply_ns");
    let evals_per_write = evals / writes;
    let net_per_envelope = 2.0 * (l("net.frame_encode_ns") + l("net.frame_decode_ns"));
    let write_path = l("store.save_ns")
        + l("json.encode_write_ns")
        + l("ingest.decode_ns")
        + l("index.probe_ns")
        + l("window.apply_ns")
        + net_per_envelope
        + 4.0 * l("stream.hop_ns");
    let notifications_per_write = published / sat_writes as f64;
    let accounted_us = (write_path
        + evals_per_write * l("query.eval_ns")
        + notifications_per_write * (per_notification + net_per_envelope + 2.0 * l("stream.hop_ns")))
        / 1e3;
    let cpu_us = median(&plain.iter().map(|b| per_write(b, b.cpu_us)).collect::<Vec<_>>());
    out.put("trace.accounted_frac", accounted_us / cpu_us);
    // One notification's blocking path: the write path, one evaluation, one
    // notification, two broker hops (or two socket hops) with their wake-ups.
    let hops_ns = if w.tcp { 2.0 * l("net.hop_us") * 1e3 } else { 2.0 * l("broker.hop_ns") };
    let blocking_us =
        (write_path + l("query.eval_ns") + per_notification + 2.0 * l("stream.hop_ns") + hops_ns) / 1e3;
    out.put("queue.wait_us", median(&notify) - blocking_us);

    let stamp = report::stamp(seed, run_started.elapsed().as_secs_f64(), out.host_noisy);
    let path = report::write_file(&format!("trace-{}.json", w.name), &tracer.to_json(&stamp))?;
    out.note(format!(
        "rounds {}  oracle mismatches {mismatched}  spans {} -> {}",
        plain.len(),
        tracer.spans.len(),
        path.display()
    ));
    out.note(format!("cpu_us_per_write {cpu_us:.1}  accounted {accounted_us:.1} us  blocking path {blocking_us:.1} us  notify_p50 {:.1} us", median(&notify)));
    Ok(out)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = matches!(value()?.as_str(), "1" | "true"),
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn selected(name: &Option<String>) -> Result<Vec<Workload>, String> {
    match name {
        None => Ok(WORKLOADS.to_vec()),
        Some(n) => Workload::by_name(n)
            .map(|w| vec![w])
            .ok_or(format!("unknown workload {n}; one of {}", WORKLOADS.map(|w| w.name).join(", "))),
    }
}

/// `--smoke`: every constant ÷ 50, all four workloads, end-to-end and
/// traced, oracle included.
fn smoke(seed: u64) -> Result<(), String> {
    for w in WORKLOADS.map(|w| w.scaled(50)) {
        for traced in [false, true] {
            let out = if traced { measure_traced(&w, seed, 0.5)? } else { measure(&w, seed, 0.5)? };
            report::check_complete(&out, traced)?;
            if out.counts.failed > 0 {
                return Err(format!(
                    "{}: {} of {} operations failed",
                    w.name, out.counts.failed, out.counts.attempted
                ));
            }
        }
        println!("smoke {}: ok", w.name);
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.smoke {
        return smoke(args.seed).map(|()| true);
    }
    if args.repeat > 0 {
        return report::repeat(
            &selected(&args.workload)?,
            args.repeat,
            args.seed,
            args.seconds,
            measure,
        );
    }
    let name = args.workload.clone().ok_or("--workload is required (or --smoke, or --repeat N)")?;
    let w = selected(&Some(name))?[0];
    let started = Instant::now();
    let out = if args.trace {
        measure_traced(&w, args.seed, args.seconds)?
    } else {
        measure(&w, args.seed, args.seconds)?
    };
    report::check_complete(&out, args.trace)?;
    report::print(&w, args.seed, args.seconds, started.elapsed().as_secs_f64(), &out, args.trace)?;
    Ok(out.counts.failed == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("budget: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    /// The whole benchmark at 1/50 scale: all four workloads, end-to-end
    /// and traced, with the oracle.
    #[test]
    fn smoke_runs_all_four_workloads() {
        super::smoke(super::DEFAULT_SEED).unwrap();
    }
}
