//! Q-scaling bench: per-write matching cost as the number of active queries
//! grows from 1k to 100k, across filter-shape mixes that stress different
//! parts of the multi-query index:
//!
//! - `unique_ranges` — every subscription has its own two-sided range (the
//!   paper's workload; indexable before and after this PR, so both modes
//!   stay flat).
//! - `shared_conjunctions` — conjunctive filters drawn from a bounded pool
//!   of status × price-bound combinations. The pre-PR planner cannot index
//!   a conjunction at all and falls back to scanning every distinct filter
//!   per write; the new planner anchors each query under its equality lane
//!   and memoizes shared atoms.
//! - `duplicated_filters` — many subscriptions over a small pool of
//!   textually identical filters. Both modes dedup by query hash, so this
//!   measures cost per *distinct* filter.
//! - `mixed` — one third of each.
//!
//! Two modes per (shape, Q) cell:
//! - `new` — `IndexOptions::default()` (eq lanes + conjunctive anchoring)
//!   with per-write shared predicate evaluation via `conjuncts()`.
//! - `pre` — `IndexOptions::legacy()` (the pre-PR single-range planner) with
//!   whole-query `matches()` per candidate, i.e. the old path.
//!
//! Writes `BENCH_qscale.json` (validated by `examples/bench_check.rs`).
//! `INVALIDB_BENCH_SCALE` scales the query counts; 0 runs a smoke pass.

use invalidb_bench::table;
use invalidb_common::{doc, Document, QuerySpec, Value};
use invalidb_core::query_index::{IndexOptions, QueryIndex};
use invalidb_query::{decompose, filter_hash, FilterHash, MongoQueryEngine, PredicateHash, QueryEngine};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

const STATUSES: [&str; 8] =
    ["open", "closed", "pending", "active", "archived", "draft", "review", "done"];

/// Deterministic splitmix64 so runs are reproducible without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The i-th filter of a shape.
fn filter_for(shape: &str, i: usize) -> Document {
    match shape {
        // Distinct two-sided ranges over a domain that grows with Q, so each
        // write stabs a roughly constant number of windows at any scale.
        "unique_ranges" => {
            let lo = (i as i64) * 10;
            doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + 10 } }
        }
        // 8 statuses x 64 price bounds = 512 distinct conjunctions; beyond
        // that, subscriptions repeat filters from the pool.
        "shared_conjunctions" => {
            let status = STATUSES[i % 8];
            let bound = (((i / 8) % 64) as i64 + 1) * 10;
            doc! { "status" => status, "price" => doc! { "$lt" => bound } }
        }
        // 16 tags x 4 quantity bounds = 64 distinct filters, heavily
        // duplicated across subscriptions.
        "duplicated_filters" => {
            let tag = format!("t{}", i % 16);
            let bound = (((i / 16) % 4) as i64) * 25;
            doc! { "tag" => tag, "qty" => doc! { "$gte" => bound } }
        }
        "mixed" => {
            filter_for(["unique_ranges", "shared_conjunctions", "duplicated_filters"][i % 3], i / 3)
        }
        _ => unreachable!("unknown shape {shape}"),
    }
}

fn write_doc(rng: &mut Rng, q: usize) -> Document {
    let r = rng.below((q as u64) * 10) as i64;
    doc! {
        "random" => r,
        "status" => STATUSES[rng.below(8) as usize],
        "price" => (rng.below(640)) as i64,
        "tag" => format!("t{}", rng.below(16)),
        "qty" => (rng.below(100)) as i64,
    }
}

struct Cell {
    shape: &'static str,
    q: usize,
    q_distinct: usize,
    writes: usize,
    new_us: f64,
    pre_us: f64,
}

/// Measures one (shape, Q) cell in both modes and returns µs/write for each.
fn run_cell(shape: &'static str, q: usize) -> Cell {
    // Dedup by FilterHash — mirrors the matching node, which keeps one query
    // group per QueryHash in both the pre-PR and the new code.
    let mut seen: HashSet<FilterHash> = HashSet::new();
    let mut filters: Vec<Document> = Vec::new();
    for i in 0..q {
        let f = filter_for(shape, i);
        if seen.insert(filter_hash(&decompose(&f))) {
            filters.push(f);
        }
    }
    let q_distinct = filters.len();
    let prepared: Vec<_> = filters
        .iter()
        .map(|f| MongoQueryEngine.prepare(&QuerySpec::filter("t", f.clone())).unwrap())
        .collect();

    let mut new_index: QueryIndex<usize> = QueryIndex::with_options(IndexOptions::default());
    let mut pre_index: QueryIndex<usize> = QueryIndex::with_options(IndexOptions::legacy());
    for (j, f) in filters.iter().enumerate() {
        new_index.insert(j, f);
        pre_index.insert(j, f);
    }

    let writes = (2_000_000 / q.max(1)).clamp(50, 2_000);
    let mut rng = Rng(0xC0FF_EE00 + q as u64);
    let docs: Vec<Document> = (0..writes).map(|_| write_doc(&mut rng, q)).collect();

    // New path: eq-lane/conjunctive candidates, residual atoms memoized per
    // write (the bench-level twin of the matching node's PredCache).
    let mut cands: Vec<usize> = Vec::new();
    let mut memo: HashMap<PredicateHash, bool> = HashMap::new();
    let mut run_new = |docs: &[Document]| {
        let mut hits = 0usize;
        for d in docs {
            memo.clear();
            new_index.candidates(d, &mut cands);
            for &id in &cands {
                let p = &prepared[id];
                let matched = match p.conjuncts() {
                    Some(atoms) => {
                        atoms.iter().all(|a| *memo.entry(a.hash()).or_insert_with(|| a.matches(d)))
                    }
                    None => p.matches(d),
                };
                hits += matched as usize;
            }
        }
        hits
    };
    run_new(&docs[..docs.len().min(10)]); // warmup
    let start = Instant::now();
    let new_hits = run_new(&docs);
    let new_us = start.elapsed().as_secs_f64() * 1e6 / writes as f64;

    // Pre-PR path: legacy planner candidates, whole-query evaluation.
    let mut run_pre = |docs: &[Document]| {
        let mut hits = 0usize;
        for d in docs {
            pre_index.candidates(d, &mut cands);
            for &id in &cands {
                hits += prepared[id].matches(d) as usize;
            }
        }
        hits
    };
    run_pre(&docs[..docs.len().min(10)]); // warmup
    let start = Instant::now();
    let pre_hits = run_pre(&docs);
    let pre_us = start.elapsed().as_secs_f64() * 1e6 / writes as f64;

    assert_eq!(new_hits, black_box(pre_hits), "{shape}/q={q}: modes disagree on match count");
    Cell { shape, q, q_distinct, writes, new_us, pre_us }
}

/// log(t2/t1) / log(q2/q1): 1.0 = linear in Q, 0.0 = flat.
fn growth_exponent(q1: usize, t1: f64, q2: usize, t2: f64) -> f64 {
    if q2 > q1 && t1 > 0.0 && t2 > 0.0 {
        (t2 / t1).ln() / (q2 as f64 / q1 as f64).ln()
    } else {
        0.0
    }
}

fn main() {
    let scale = invalidb_bench::scale();
    let qs: Vec<usize> =
        [1_000usize, 10_000, 100_000].iter().map(|&q| ((q as f64 * scale) as usize).max(64)).collect();
    let shapes = ["unique_ranges", "shared_conjunctions", "duplicated_filters", "mixed"];

    table::banner("QSCALE", "per-write matching cost vs. active query count");
    let mut cells: Vec<Cell> = Vec::new();
    for shape in shapes {
        for &q in &qs {
            let cell = run_cell(shape, q);
            println!(
                "  {shape:>20} q={q:>7} distinct={:>6}  new={:>9.2} us/write  pre={:>9.2} us/write",
                cell.q_distinct, cell.new_us, cell.pre_us
            );
            cells.push(cell);
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shape.to_owned(),
                c.q.to_string(),
                c.q_distinct.to_string(),
                c.writes.to_string(),
                format!("{:.2}", c.new_us),
                format!("{:.2}", c.pre_us),
                format!("{:.2}x", c.pre_us / c.new_us.max(1e-9)),
            ]
        })
        .collect();
    table::table(
        &["shape", "queries", "distinct", "writes", "new us/write", "pre us/write", "speedup"],
        &rows,
    );

    // Growth exponents between the two largest Q points per shape.
    let mut scaling_rows: Vec<Value> = Vec::new();
    println!();
    for shape in shapes {
        let pts: Vec<&Cell> = cells.iter().filter(|c| c.shape == shape).collect();
        let (a, b) = (pts[pts.len() - 2], pts[pts.len() - 1]);
        let exp_new = growth_exponent(a.q, a.new_us, b.q, b.new_us);
        let exp_pre = growth_exponent(a.q, a.pre_us, b.q, b.pre_us);
        println!(
            "  {shape:>20} growth {}k -> {}k: new x^{exp_new:.2}, pre x^{exp_pre:.2}",
            a.q / 1_000,
            b.q / 1_000
        );
        scaling_rows.push(Value::Object(doc! {
            "shape" => shape,
            "q_lo" => a.q as i64,
            "q_hi" => b.q as i64,
            "exponent_new" => exp_new,
            "exponent_prepr" => exp_pre,
        }));
    }

    let top = cells.iter().rfind(|c| c.shape == "mixed").unwrap();
    let improvement = top.pre_us / top.new_us.max(1e-9);
    println!();
    println!(
        "  headline: mixed shapes @ {} queries: {:.2} -> {:.2} us/write ({improvement:.2}x)",
        top.q, top.pre_us, top.new_us
    );

    let json_rows: Vec<Value> = cells
        .iter()
        .map(|c| {
            Value::Object(doc! {
                "shape" => c.shape,
                "q" => c.q as i64,
                "q_distinct" => c.q_distinct as i64,
                "writes" => c.writes as i64,
                "new_us_per_write" => c.new_us,
                "prepr_us_per_write" => c.pre_us,
            })
        })
        .collect();
    let mut out = Document::with_capacity(4);
    out.insert("scale", Value::Float(scale));
    out.insert("rows", Value::Array(json_rows));
    out.insert("scaling", Value::Array(scaling_rows));
    out.insert("improvement_at_100k_mixed", Value::Float(improvement));
    let json = invalidb_json::to_string(&out);
    match std::fs::write(invalidb_bench::artifact_path("BENCH_qscale.json"), &json) {
        Ok(()) => println!("\nwrote {}", invalidb_bench::artifact_path("BENCH_qscale.json").display()),
        Err(e) => eprintln!("\nfailed to write BENCH_qscale.json: {e}"),
    }
}
