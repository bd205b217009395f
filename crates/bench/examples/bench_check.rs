//! Validates the checked-in machine-readable bench artifact.
//!
//! CI's bench-smoke step runs `fig6_quaestor` at `INVALIDB_BENCH_SCALE=0`
//! and then this check: `BENCH_fig6.json` at the workspace root must exist,
//! parse as a JSON document, say what produced it (`commit`, `rustc`,
//! `nproc`, and `"simulated": true` — its numbers are the simulator's) and
//! carry the rows downstream tooling (per-PR perf-trajectory diffs) relies
//! on. Exits non-zero with a description on any violation.

use invalidb_common::{Document, Value};

const NAME: &str = "BENCH_fig6.json";

fn fail(why: &str) -> ! {
    eprintln!("bench-check FAILED: {NAME}: {why}");
    std::process::exit(1)
}

fn main() {
    let raw = match std::fs::read_to_string(invalidb_bench::artifact_path(NAME)) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("missing or unreadable ({e})")),
    };
    let fig6: Document = match invalidb_json::parse_document(&raw) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("malformed JSON: {e:?}")),
    };

    for field in ["commit", "rustc"] {
        if fig6.get(field).and_then(|v| v.as_str()).is_none_or(str::is_empty) {
            fail(&format!("stamp lacks `{field}`"));
        }
    }
    if fig6.get("nproc").and_then(|v| v.as_i64()).is_none_or(|n| n < 1) {
        fail("stamp lacks a positive `nproc`");
    }
    if fig6.get("simulated") != Some(&Value::Bool(true)) {
        fail("not marked `\"simulated\": true`");
    }

    let figures: [(&str, &[&str]); 4] = [
        ("fig6a", &["queries", "standalone_p99_ms", "quaestor_p99_ms", "overhead_ms"]),
        ("fig6b", &["ops_per_sec", "standalone_p99_ms", "quaestor_p99_ms"]),
        ("fig6c", &["mean_ms", "p50_ms", "p99_ms", "notifications"]),
        ("fig6d", &["mean_ms", "p50_ms", "p99_ms", "notifications"]),
    ];
    for (figure, numbers) in figures {
        let rows = match fig6.get(figure) {
            Some(Value::Array(rows)) if !rows.is_empty() => rows,
            Some(Value::Array(_)) => fail(&format!("`{figure}` is empty")),
            _ => fail(&format!("`{figure}` missing or not an array")),
        };
        for (i, row) in rows.iter().enumerate() {
            let Value::Object(row) = row else { fail(&format!("{figure} row {i} is not an object")) };
            for field in numbers {
                if !matches!(row.get(field), Some(Value::Float(_) | Value::Int(_))) {
                    fail(&format!("{figure} row {i} lacks numeric `{field}`"));
                }
            }
        }
    }

    println!("bench-check OK: {NAME}");
}
