//! Benchmark support library: the paper's workload generator and table
//! printers.
//!
//! Every table and figure of the paper's evaluation (§6/§7) has a
//! `cargo bench` target in this crate (see `benches/`); `EXPERIMENTS.md` at
//! the workspace root records paper-vs-measured values. Scalability sweeps
//! beyond a laptop's core count run on the calibrated discrete-event
//! simulator (`invalidb-sim`); the real pipeline is measured by `budget/`.

pub mod table;
pub mod workload;

/// Reads a scale factor from `INVALIDB_BENCH_SCALE` (default 1.0): values
/// below 1 shrink durations/workloads for smoke runs, above 1 extend them
/// for higher-fidelity numbers.
pub fn scale() -> f64 {
    std::env::var("INVALIDB_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Resolves where a machine-readable `BENCH_*.json` artifact should be
/// written: the workspace root, so the checked-in perf trajectory is
/// diffable per PR regardless of the bench binary's working directory.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name)
}

/// Stamps a simulator-driven artifact with what produced it: the checked-out
/// commit (read from `.git`, `unknown` in a plain source tree), the
/// toolchain, the cores of the host, and `"simulated": true` — its numbers
/// come from `invalidb-sim`, not from the pipeline.
pub fn stamp_simulated(artifact: &mut invalidb_common::Document) {
    let git = |file: &str| std::fs::read_to_string(artifact_path(".git").join(file));
    let commit = match git("HEAD") {
        Ok(head) => match head.trim().strip_prefix("ref: ") {
            Some(branch) => git(branch).unwrap_or(head.clone()).trim().to_owned(),
            None => head.trim().to_owned(),
        },
        Err(_) => "unknown".to_owned(),
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "rustc unknown".to_owned(), |version| version.trim().to_owned());
    artifact.insert("commit", commit);
    artifact.insert("rustc", rustc);
    artifact.insert("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as i64);
    artifact.insert("simulated", true);
}
