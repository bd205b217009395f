//! Metric catalogue, statistics, and everything the benchmark prints or
//! writes: the human-readable summary, the result line, `noise.json`.

use crate::harness::Counts;
use crate::model::Workload;
use crate::sys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One metric of the catalogue. `bound` is set for end-to-end metrics only.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric { name, unit, higher_is_better, bound: None }
}

/// End-to-end metrics (`--trace 0`); mirrored in BENCHMARK.json.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("sat_writes_per_s", "writes/s", true, 0.25),
    e2e("cpu_us_per_write", "us", false, 0.25),
    e2e("allocs_per_write", "count", false, 0.05),
    e2e("alloc_kb_per_write", "KB", false, 0.05),
    e2e("notify_p50_us", "us", false, 0.25),
    e2e("heap_live_mb", "MB", false, 0.05),
];

/// Per-layer metrics (`--trace 1`); mirrored in BENCHMARK.json.
pub const PER_LAYER: &[Metric] = &[
    layer("store.save_ns", "ns", false),
    layer("store.execute_us", "us", false),
    layer("json.encode_write_ns", "ns", false),
    layer("json.write_envelope_bytes", "bytes", false),
    layer("json.encode_notify_ns", "ns", false),
    layer("json.decode_notify_ns", "ns", false),
    layer("json.notify_envelope_bytes", "bytes", false),
    layer("broker.hop_ns", "ns", false),
    layer("broker.publishes_per_write", "count", false),
    layer("net.frame_encode_ns", "ns", false),
    layer("net.frame_decode_ns", "ns", false),
    layer("net.hop_us", "us", false),
    layer("net.bytes_per_write", "bytes", false),
    layer("stream.hop_ns", "ns", false),
    layer("ingest.decode_ns", "ns", false),
    layer("index.probe_ns", "ns", false),
    layer("index.candidates_per_write", "count", false),
    layer("index.precision", "ratio", true),
    layer("index.insert_us", "us", false),
    layer("index.remove_us", "us", false),
    layer("query.prepare_us", "us", false),
    layer("query.eval_ns", "ns", false),
    layer("query.evals_per_write", "count", false),
    layer("matching.pred_cache_hit_ratio", "ratio", true),
    layer("matching.eq_lane_hits_per_write", "count", true),
    layer("matching.stale_dropped", "count", false),
    layer("matching.retained_writes", "count", false),
    layer("window.apply_ns", "ns", false),
    layer("window.events_per_apply", "count", false),
    layer("sorting.renewals_per_kwrite", "count", false),
    layer("sorting.maintenance_errors", "count", false),
    layer("sorting.pending_shed", "count", false),
    layer("notifier.published_per_write", "count", false),
    layer("client.save_call_ns", "ns", false),
    layer("client.subscribe_call_us", "us", false),
    layer("client.subscribe_p50_us", "us", false),
    layer("client.subscribe_p99_us", "us", false),
    layer("client.apply_ns", "ns", false),
    layer("client.notify_p99_us", "us", false),
    layer("client.notify_max_us", "us", false),
    layer("queue.wait_us", "us", false),
    layer("trace.accounted_frac", "ratio", true),
    layer("trace.overhead_frac", "ratio", false),
    layer("sat.block_spread", "ratio", false),
    layer("gen.late_p99_us", "us", false),
    layer("host.calib_ms", "ms", false),
    layer("host.calib_spread", "ratio", false),
    layer("host.rss_mb", "MB", false),
];

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile, `q` in `0..=1`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

/// The value a fifth of the way in from the best of `values`: the third
/// best of 15 rounds. This host slows down in bursts that last seconds to
/// minutes and never speeds up, so a run's slow rounds say more about the
/// neighbours than about the code; over ten seeds this order statistic
/// repeated about twice as tightly as the median of the rounds, and unlike
/// a minimum it takes three undisturbed rounds to move it.
pub fn best_fifth(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.8 } else { 0.2 })
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub counts: Counts,
    pub host_noisy: bool,
    notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every metric of the catalogue must be present and a number.
pub fn check_complete(out: &Outcome, traced: bool) -> Result<(), String> {
    for m in catalogue(traced) {
        match out.metrics.get(m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {} is {v}: too few samples", m.name)),
            None => return Err(format!("metric {} was not measured", m.name)),
        }
    }
    Ok(())
}

/// Where trace and noise files go: under the build's target directory,
/// relative to the directory the benchmark was started from.
fn output_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())).join("budget")
}

/// The stamp every file carries, as the leading members of a JSON object.
pub fn stamp(seed: u64, wall_s: f64, host_noisy: bool) -> String {
    format!(
        "\"nproc\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"seed\":{seed},\"wall_s\":{wall_s:.1},\"host_noisy\":{host_noisy}",
        sys::nproc(),
        sys::commit(),
        env!("BUDGET_RUSTC_VERSION")
    )
}

/// Writes one file under [`output_dir`] and returns its path.
pub fn write_file(name: &str, content: &str) -> Result<PathBuf, String> {
    let dir = output_dir();
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Prints the human-readable summary, writes the stamped result file, then
/// prints — as the last line — the result object the driver reads.
pub fn print(
    w: &Workload,
    seed: u64,
    seconds: f64,
    wall_s: f64,
    out: &Outcome,
    traced: bool,
) -> Result<(), String> {
    println!("budget {}: {}", w.name, w.why);
    println!(
        "  seed {seed}  seconds {seconds}  trace {}  nproc {}  commit {}  {}  wall {wall_s:.1}s  host_noisy {}",
        u8::from(traced),
        sys::nproc(),
        sys::commit(),
        env!("BUDGET_RUSTC_VERSION"),
        out.host_noisy
    );
    println!(
        "  subs {} keys {} grid {}x{} tcp {}  W {} R {}/s C {}/s B_sat {} B_paced {}",
        w.subs, w.keys, w.grid.0, w.grid.1, w.tcp, w.window, w.rate, w.churn_rate, w.b_sat, w.b_paced
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for m in catalogue(traced) {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("  {:<34} {:>16.4} {:<9} ({better} is better)", m.name, out.metrics[m.name], m.unit);
    }
    println!("  ops_attempted {}  ops_failed {}", out.counts.attempted, out.counts.failed);
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.counts.failed == 0,
        out.counts.attempted,
        out.counts.failed
    );
    for (i, m) in catalogue(traced).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, out.metrics[m.name], m.unit
        );
    }
    line.push_str("}}");
    let kind = if traced { "layers" } else { "e2e" };
    let file = format!(
        "{{{},\"workload\":\"{}\",\"result\":{line},\"claim\":null}}\n",
        stamp(seed, wall_s, out.host_noisy),
        w.name
    );
    write_file(&format!("result-{}-{kind}.json", w.name), &file)?;
    println!("{line}");
    Ok(())
}

/// `--repeat N`: the same code `N` times per workload; per end-to-end
/// metric the `N` values, their largest relative deviation from the middle
/// one, and pass/fail against the bound. Written to `noise.json`.
pub fn repeat(
    workloads: &[Workload],
    n: usize,
    seed: u64,
    seconds: f64,
    measure: fn(&Workload, u64, f64) -> Result<Outcome, String>,
) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut json = format!("\"seconds\":{seconds},\"repeat\":{n},\"workloads\":{{");
    let (mut all_pass, mut any_noisy) = (true, false);
    for (wi, w) in workloads.iter().enumerate() {
        let mut runs = Vec::with_capacity(n);
        let mut noisy = false;
        for i in 0..n {
            let out = measure(w, seed, seconds)?;
            check_complete(&out, false)?;
            if out.counts.failed > 0 {
                return Err(format!(
                    "{}: {} operations failed in repeat {i}",
                    w.name, out.counts.failed
                ));
            }
            noisy |= out.host_noisy;
            runs.push(out);
        }
        any_noisy |= noisy;
        let _ = write!(
            json,
            "{}\"{}\":{{\"host_noisy\":{noisy},\"metrics\":{{",
            if wi == 0 { "" } else { "," },
            w.name
        );
        println!("{} (host_noisy {noisy})", w.name);
        for (mi, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[m.name]).collect();
            let middle = median(&values);
            let deviation = values.iter().map(|v| (v - middle).abs() / middle).fold(0.0, f64::max);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let pass = deviation <= bound;
            all_pass &= pass;
            println!(
                "  {:<20} middle {middle:>12.3} {:<8} max deviation {:>5.1}%  bound {:>4.1}%  {}",
                m.name,
                m.unit,
                deviation * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
            let list = values.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
            let _ = write!(
                json,
                "{}\"{}\":{{\"unit\":\"{}\",\"values\":[{list}],\"middle\":{middle},\"max_deviation\":{deviation},\"bound\":{bound},\"pass\":{pass}}}",
                if mi == 0 { "" } else { "," },
                m.name,
                m.unit
            );
        }
        json.push_str("}}");
    }
    let _ = writeln!(json, "}},\"pass\":{all_pass},\"claim\":null}}");
    let head = stamp(seed, started.elapsed().as_secs_f64(), any_noisy);
    let path = write_file("noise.json", &format!("{{{head},{json}"))?;
    println!("wrote {}", path.display());
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        let rounds: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(best_fifth(&rounds, false), 3.0);
        assert_eq!(best_fifth(&rounds, true), 12.0);
        assert!(median(&[]).is_nan());
    }

    /// BENCHMARK.json is what the driver reads; the tables above are what
    /// the program prints. They must describe the same metrics and workloads.
    #[test]
    fn catalogue_matches_benchmark_json() {
        use invalidb_common::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = invalidb_json::parse_document(&text).expect("valid JSON");
        let rows = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Array(items)) = doc.get(section) else { panic!("{section} is a list") };
            items
                .iter()
                .map(|item| {
                    let Value::Object(o) = item else { panic!("{item:?}") };
                    let text =
                        |k: &str| o.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_owned();
                    let bound = o.get("bound").map(|b| match b {
                        Value::Float(f) => *f,
                        other => panic!("bound {other:?}"),
                    });
                    (text("name"), text("unit"), text("better"), bound)
                })
                .collect()
        };
        let table = |metrics: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            metrics
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better { "higher" } else { "lower" };
                    (m.name.to_owned(), m.unit.to_owned(), better.to_owned(), m.bound)
                })
                .collect()
        };
        assert_eq!(rows("end_to_end"), table(END_TO_END));
        assert_eq!(rows("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = rows("workloads").into_iter().map(|r| r.0).collect();
        assert_eq!(workloads, crate::model::WORKLOADS.map(|w| w.name));
        assert_eq!(doc.get("run_seconds"), Some(&Value::Int(crate::DEFAULT_SECONDS as i64)));
    }
}
