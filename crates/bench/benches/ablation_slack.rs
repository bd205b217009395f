//! Ablation — slack size vs. query-renewal frequency (§5.2).
//!
//! The slack (items maintained beyond the limit) determines how many
//! successive removals a sorted query can absorb before a maintenance
//! error forces a renewal against the database. The paper controls renewal
//! load with a poll-frequency rate limit and suggests adapting the slack on
//! re-execution (§5.2 fn. 5). This ablation churns a top-10 query with
//! delete-heavy workloads under different slack values and reports the
//! renewal rate and window footprint.

use invalidb_bench::table;
use invalidb_common::{doc, Key, QuerySpec, ResultItem, SortDirection};
use invalidb_core::window::SortedWindow;
use invalidb_query::{MongoQueryEngine, QueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 20_000;
const LIMIT: u64 = 10;
const LIVE_KEYS: i64 = 400;

fn main() {
    table::banner("Ablation", "Slack vs. renewal frequency (top-10 query, delete-heavy churn)");
    let mut rows = Vec::new();
    for slack in [0u64, 1, 2, 3, 5, 10, 20, 50] {
        let (renewals, db_reads) = churn(slack);
        rows.push(vec![
            format!("{slack}"),
            format!("{}", LIMIT + slack),
            format!("{renewals}"),
            format!("{:.2}", renewals as f64 * 1_000.0 / OPS as f64),
            format!("{db_reads}"),
        ]);
    }
    table::table(
        &["slack", "window size", "renewals", "renewals per 1k ops", "bootstrap rows fetched"],
        &rows,
    );
    println!("expectation: renewals drop sharply with slack; memory grows linearly —");
    println!("the paper picks small slacks plus a poll-frequency rate limit (§5.2)");
}

/// Simulated database: the authoritative set of live documents.
struct Db {
    docs: std::collections::BTreeMap<i64, (u64, i64)>, // key -> (version, score)
    reads: u64,
}

impl Db {
    fn top(&mut self, n: usize) -> Vec<ResultItem> {
        let mut items: Vec<(i64, u64, i64)> = self.docs.iter().map(|(k, (v, s))| (*k, *v, *s)).collect();
        items.sort_by_key(|(k, _, s)| (std::cmp::Reverse(*s), *k));
        items.truncate(n);
        self.reads += items.len() as u64;
        items
            .into_iter()
            .map(|(k, v, s)| ResultItem::new(Key::of(k), v, doc! { "score" => s }))
            .collect()
    }
}

fn churn(slack: u64) -> (u64, u64) {
    let spec =
        QuerySpec::filter("players", doc! {}).sorted_by("score", SortDirection::Desc).with_limit(LIMIT);
    let prepared = MongoQueryEngine.prepare(&spec).unwrap();
    let mut rng = StdRng::seed_from_u64(slack.wrapping_mul(0x9E37_79B9).wrapping_add(7));

    let mut db = Db { docs: std::collections::BTreeMap::new(), reads: 0 };
    for k in 0..LIVE_KEYS {
        db.docs.insert(k, (1, rng.gen_range(0..100_000i64)));
    }
    let initial = db.top((LIMIT + slack) as usize);
    let mut window = SortedWindow::new(prepared, slack, &initial);
    let mut client = window.visible().to_vec();

    let mut renewals = 0u64;
    for _ in 0..OPS {
        let key = rng.gen_range(0..LIVE_KEYS);
        // Delete-heavy churn: deletes erode the window, inserts refill it.
        let outcome = if rng.gen_bool(0.55) {
            let version = match db.docs.remove(&key) {
                Some((v, _)) => v + 1,
                None => continue,
            };
            db.docs.insert(-key - 1_000_000, (1, rng.gen_range(0..100_000i64))); // keep population stable
            window.apply(&Key::of(key), version, None)
        } else {
            let score = rng.gen_range(0..100_000i64);
            let entry = db.docs.entry(key).or_insert((0, score));
            entry.0 += 1;
            entry.1 = score;
            window.apply(&Key::of(key), entry.0, Some(&doc! { "score" => score }))
        };
        if outcome.error.is_some() {
            renewals += 1;
            let fresh = db.top((LIMIT + slack) as usize);
            let events = window.reseed(slack, &fresh, &client);
            invalidb_core::window::apply_events(&mut client, &events);
        } else {
            invalidb_core::window::apply_events(&mut client, &outcome.events);
        }
    }
    (renewals, db.reads)
}
