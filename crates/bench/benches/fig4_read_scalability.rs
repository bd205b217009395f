//! Figure 4 — Read scalability: the number of serviceable real-time queries
//! by the number of query partitions (1, 2, 4, 8, 16) at a fixed write
//! throughput of 1 000 ops/s, under different latency SLAs.
//!
//! Paper reference points (p99 ≤ 30 ms): 1 QP ≈ 1 500 queries, 16 QP ≈
//! 29 000 queries — doubling the partitions doubles capacity.
//!
//! Runs on the calibrated discrete-event simulator (see DESIGN.md).

use invalidb_bench::table;
use invalidb_sim::{max_sustainable_queries, SimParams, SlaSearch};

fn main() {
    let scale = invalidb_bench::scale();
    table::banner("Figure 4", "Read scalability: sustainable queries vs. query partitions @ 1k ops/s");

    let slas = [20.0, 30.0, 50.0, 100.0];
    let partitions = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut sla30_points = Vec::new();
    for qp in partitions {
        let mut row = vec![format!("{qp}")];
        for sla in slas {
            let search = SlaSearch { sla_p99_ms: sla, duration_s: 6.0 * scale };
            let base = SimParams::new(qp, 1);
            let cap = max_sustainable_queries(&base, &search, 500, 2_500 * qp as u64 + 2_000);
            row.push(format!("{cap}"));
            if sla == 30.0 {
                sla30_points.push((format!("{qp} QP"), cap as f64));
            }
        }
        rows.push(row);
    }
    table::table(&["QP", "p99<=20ms", "p99<=30ms", "p99<=50ms", "p99<=100ms"], &rows);
    table::series("sustainable queries (p99 <= 30ms)", &sla30_points, "queries");

    // Linearity check against the paper's claim.
    let base = sla30_points[0].1.max(1.0);
    println!("\nscaling factors vs. 1 QP (paper: ~2x per doubling; 16 QP ~= 19x):");
    for (label, cap) in &sla30_points {
        println!("  {label:>6}: {:.1}x", cap / base);
    }
    println!("\npaper reference (30ms SLA): 1 QP -> 1500 queries ... 16 QP -> 29000 queries");
}
