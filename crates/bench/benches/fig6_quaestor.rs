//! Figure 6 — Quaestor vs. standalone InvaliDB: change-notification latency
//! with and without an application server in the path.
//!
//! * (a) p99 latency under increasing query load at 1 000 writes/s
//!   (paper: Quaestor ≈ standalone + ~5 ms constant overhead; the app
//!   server is not a bottleneck for reads);
//! * (b) p99 latency under increasing write load at 1 000 queries
//!   (paper: one app server caps at ≈6 000 ops/s — still 6–12× beyond
//!   Firestore's/Firebase's documented per-collection write limits);
//! * (c) latency distribution snapshot, read-heavy (24 000 queries);
//! * (d) latency distribution snapshot, write-heavy (5 000 ops/s).
//!
//! All four run on the calibrated simulator (`invalidb-sim`): the shapes are
//! 16-node deployments no single host can stand up. Besides the text
//! tables, every number is also written to `BENCH_fig6.json`, stamped with
//! commit, toolchain, core count and `"simulated": true`, so plots and
//! regression tooling can consume the run without scraping stdout.

use invalidb_bench::table;
use invalidb_common::{Document, Value};
use invalidb_sim::{simulate, SimParams};

fn main() {
    let scale = invalidb_bench::scale();
    let duration = 20.0 * scale;
    let mut out = Document::with_capacity(11);
    out.insert("benchmark", "fig6_quaestor");
    invalidb_bench::stamp_simulated(&mut out);
    out.insert("scale", scale);
    out.insert("sim_duration_s", duration);

    // (a) read side: 16 QP x 1 WP, like the paper's read-heavy deployment.
    table::banner("Figure 6a", "p99 latency vs. query load @ 1k ops/s (16 QP, 1 WP)");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for queries in [500u64, 1_000, 2_000, 4_000, 8_000, 12_000, 16_000, 24_000, 28_000] {
        let mut standalone = SimParams::new(16, 1);
        standalone.queries = queries;
        standalone.duration_s = duration;
        let s = simulate(&standalone);
        let mut quaestor = standalone.clone();
        quaestor.with_app_server = true;
        let q = simulate(&quaestor);
        rows.push(vec![
            format!("{queries}"),
            format!("{:.1}", s.p99_ms()),
            format!("{:.1}", q.p99_ms()),
            format!("{:+.1}", q.p99_ms() - s.p99_ms()),
        ]);
        let mut row = Document::with_capacity(4);
        row.insert("queries", queries as i64);
        row.insert("standalone_p99_ms", s.p99_ms());
        row.insert("quaestor_p99_ms", q.p99_ms());
        row.insert("overhead_ms", q.p99_ms() - s.p99_ms());
        json_rows.push(Value::from(row));
    }
    out.insert("fig6a", Value::Array(json_rows));
    table::table(&["queries", "standalone p99 (ms)", "quaestor p99 (ms)", "overhead"], &rows);
    println!("paper: constant ~5 ms offset; app server not a bottleneck on the read side");

    // (b) write side: 1 QP x 16 WP.
    table::banner("Figure 6b", "p99 latency vs. write load @ 1k queries (1 QP, 16 WP)");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for writes in [500.0f64, 1_000.0, 2_000.0, 4_000.0, 5_000.0, 6_000.0, 8_000.0, 12_000.0] {
        let mut standalone = SimParams::new(1, 16);
        standalone.writes_per_sec = writes;
        standalone.duration_s = duration;
        let s = simulate(&standalone);
        let mut quaestor = standalone.clone();
        quaestor.with_app_server = true;
        let q = simulate(&quaestor);
        rows.push(vec![
            format!("{writes:.0}"),
            format!("{:.1}", s.p99_ms()),
            format!("{:.1}", q.p99_ms()),
        ]);
        let mut row = Document::with_capacity(3);
        row.insert("ops_per_sec", writes);
        row.insert("standalone_p99_ms", s.p99_ms());
        row.insert("quaestor_p99_ms", q.p99_ms());
        json_rows.push(Value::from(row));
    }
    out.insert("fig6b", Value::Array(json_rows));
    table::table(&["ops/s", "standalone p99 (ms)", "quaestor p99 (ms)"], &rows);
    println!("paper: quaestor knee at ~6k ops/s (single app server); standalone keeps going");

    // (c) + (d): latency distributions at the paper's snapshot points.
    for (id, key, title, qp, wp, queries, writes) in [
        (
            "Figure 6c",
            "fig6c",
            "latency distribution, read-heavy (24k queries @ 1k ops/s)",
            16usize,
            1usize,
            24_000u64,
            1_000.0f64,
        ),
        (
            "Figure 6d",
            "fig6d",
            "latency distribution, write-heavy (1k queries @ 5k ops/s)",
            1,
            16,
            1_000,
            5_000.0,
        ),
    ] {
        table::banner(id, title);
        let mut json_rows = Vec::new();
        for with_app in [false, true] {
            let mut p = SimParams::new(qp, wp);
            p.queries = queries;
            p.writes_per_sec = writes;
            p.duration_s = duration;
            p.with_app_server = with_app;
            let r = simulate(&p);
            let label = if with_app { "quaestor" } else { "standalone" };
            println!(
                "\n{label}: mean {:.1} ms, p50 {:.1} ms, p99 {:.1} ms  (n = {})",
                r.mean_ms(),
                r.latency_us.quantile(0.5) as f64 / 1_000.0,
                r.p99_ms(),
                r.notifications
            );
            print_distribution(&r.latency_us);
            let mut row = Document::with_capacity(5);
            row.insert("mode", label);
            row.insert("mean_ms", r.mean_ms());
            row.insert("p50_ms", r.latency_us.quantile(0.5) as f64 / 1_000.0);
            row.insert("p99_ms", r.p99_ms());
            row.insert("notifications", r.notifications as i64);
            json_rows.push(Value::from(row));
        }
        out.insert(key, Value::Array(json_rows));
    }
    println!("\npaper: quaestor's distribution is the standalone one shifted right ~5 ms, longer tail under write pressure, <100 ms near capacity");

    let json = invalidb_json::to_string(&out);
    match std::fs::write(invalidb_bench::artifact_path("BENCH_fig6.json"), &json) {
        Ok(()) => println!("\nmachine-readable results written to BENCH_fig6.json"),
        Err(e) => eprintln!("\nfailed to write BENCH_fig6.json: {e}"),
    }
}

/// Prints a coarse latency histogram (2 ms buckets to 40 ms, like Fig 6c/d).
fn print_distribution(hist: &invalidb_common::Histogram) {
    let total = hist.count().max(1) as f64;
    let mut buckets = [0u64; 21];
    for (upper_us, count) in hist.nonzero_buckets() {
        let ms = upper_us / 1_000;
        let idx = ((ms / 2) as usize).min(20);
        buckets[idx] += count;
    }
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let frequency = count as f64 / total;
        let bar = "#".repeat((frequency * 200.0).round() as usize);
        let label = if i == 20 { ">40ms".to_owned() } else { format!("{}-{}ms", i * 2, i * 2 + 2) };
        println!("  {label:>8} | {bar} {frequency:.3}");
    }
}
