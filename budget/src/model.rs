//! Workload definitions, the seeded generator and the model of the
//! collection.
//!
//! The generator is the only source of inputs: the same `(workload, seed)`
//! gives the same subscriptions, preload and write stream. Beside each
//! write the model yields the exact set of subscriptions that must observe
//! it, computed from the model's own copy of the collection — never from
//! the system under test.

use invalidb_common::{doc, Document, Key, QuerySpec, SortDirection};

/// Tenant every workload runs under.
pub const TENANT: &str = "budget";
/// Collection every workload writes to.
pub const COLLECTION: &str = "items";

/// Subscriptions in the churn pool (unsubscribe + subscribe during paced
/// blocks). Their queries match nothing that is ever written.
pub const CHURN_POOL: usize = 16;

/// Which query shape and traffic a workload generates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Distinct disjoint two-sided ranges on `random`; fan-out ≈ 0.
    Range,
    /// `status = s AND price < b` from a 512-filter pool; fan-out ≈ 90.
    Conj,
    /// `cat = c ORDER BY score DESC LIMIT 10`.
    Sorted,
}

/// One workload: its shape and frozen constants.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Measured subscriptions (the churn pool comes on top).
    pub subs: usize,
    /// Distinct primary keys.
    pub keys: usize,
    /// Query partitions × write partitions of the cluster.
    pub grid: (usize, usize),
    /// Event layer over loopback TCP instead of in-process.
    pub tcp: bool,
    /// `W`: most writes in flight during a sat block.
    pub window: usize,
    /// `R`: writes per second during a paced block.
    pub rate: f64,
    /// `C`: churn operations per second during a paced block.
    pub churn_rate: f64,
    /// `B_sat`: writes per sat block.
    pub b_sat: usize,
    /// `B_paced`: writes per paced block.
    pub b_paced: usize,
}

/// The four workloads, constants frozen after one calibration on the
/// 2-core reference host (see README.md).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "range_20k",
        why: "paper 6.1 shape: 20k disjoint ranges, fan-out ~0.5, so store, encode, hops, ingest decode and the interval-tree probe are what is timed",
        shape: Shape::Range,
        subs: 20_000,
        keys: 20_000,
        grid: (1, 1),
        tcp: false,
        window: 1024,
        rate: 500.0,
        churn_rate: 5.0,
        b_sat: 12_000,
        b_paced: 400,
    },
    Workload {
        name: "fanout_conj",
        why: "5k subscriptions share 512 conjunctive filters, ~46 notifications per write, so eq lanes, notifier, dispatch, decode and result apply dominate",
        shape: Shape::Conj,
        subs: 5_000,
        keys: 1_000,
        grid: (1, 1),
        tcp: false,
        window: 64,
        rate: 50.0,
        churn_rate: 20.0,
        b_sat: 400,
        b_paced: 40,
    },
    Workload {
        name: "sorted_top10",
        why: "1k sorted top-10 windows with renewals: the only workload in the sorting stage, and it mixes pull queries with writes on the store",
        shape: Shape::Sorted,
        subs: 1_000,
        keys: 20_000,
        grid: (1, 1),
        tcp: false,
        window: 256,
        rate: 400.0,
        churn_rate: 20.0,
        b_sat: 4_000,
        b_paced: 320,
    },
    Workload {
        name: "grid_tcp",
        why: "range traffic through a 2x2 grid behind a loopback TCP event layer: frame encode, sockets and 2-D routing are live only here",
        shape: Shape::Range,
        subs: 5_000,
        keys: 20_000,
        grid: (2, 2),
        tcp: true,
        window: 256,
        rate: 400.0,
        churn_rate: 10.0,
        b_sat: 5_000,
        b_paced: 320,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload with every count divided by `div` (`--smoke`).
    pub fn scaled(mut self, div: usize) -> Workload {
        let shrink = |n: usize, min: usize| (n / div).max(min);
        let per_cat = self.keys / self.subs.max(1);
        self.subs = shrink(self.subs, 16);
        self.keys = match self.shape {
            // Keep 20 documents per category: the model depends on it.
            Shape::Sorted => self.subs * per_cat,
            _ => shrink(self.keys, 64),
        };
        self.window = shrink(self.window, 4);
        self.b_sat = shrink(self.b_sat, 40);
        self.b_paced = shrink(self.b_paced, 20);
        self
    }

    /// The attribute the store indexes for this workload's pull queries.
    pub fn index_field(&self) -> &'static str {
        match self.shape {
            Shape::Range => "random",
            Shape::Conj => "status",
            Shape::Sorted => "cat",
        }
    }

    /// Length of the cycle the write stream walks: the key space, or the
    /// category space for the sorted workload.
    pub fn cycle(&self) -> usize {
        match self.shape {
            Shape::Sorted => self.subs,
            _ => self.keys,
        }
    }
}

/// SplitMix64: small, seedable, and owned by the benchmark so no later
/// change to the repository's `rand` shim can alter the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    fn literal(&mut self) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..10).map(|_| ALPHABET[self.below(36) as usize] as char).collect()
    }
}

/// What one subscription must observe for one write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Index into [`Model::specs`].
    pub sub: u32,
    /// `false`: the result must hold the key at this write's `seq`;
    /// `true`: the result must no longer hold the key.
    pub removal: bool,
}

/// One generated write and the expectations it raises.
#[derive(Clone, Debug, PartialEq)]
pub struct Write {
    /// Global write number, also stored in the document's `seq` field.
    pub seq: u64,
    pub key: Key,
    pub doc: Document,
    pub expects: Vec<Expect>,
}

const RANGE_SLOT: i64 = 40;
const RANGE_WIDTH: i64 = 10;
const CONJ_STATUSES: usize = 8;
const CONJ_BOUNDS: usize = 64;
const CONJ_PRICE_LO: i64 = 600;
const CONJ_PRICE_SPAN: u64 = 40;
const SORTED_PER_CAT: usize = 20;
const SORTED_LIMIT: usize = 10;

/// Per-shape model state.
#[derive(Clone, Debug)]
enum State {
    Range {
        /// Lower bound of the range in each value slot.
        lows: Vec<i64>,
        /// Subscription owning each value slot.
        slot_sub: Vec<u32>,
        /// Subscription currently holding each key, if any.
        held_by: Vec<Option<u32>>,
    },
    Conj {
        /// Subscriptions attached to each pool filter `status * 64 + bound`.
        subs_by_filter: Vec<Vec<u32>>,
        /// Current `(status, price)` of each key.
        current: Vec<(usize, i64)>,
    },
    Sorted {
        /// Per category, `(score, key index)` in descending score order.
        ranks: Vec<Vec<(i64, u32)>>,
    },
}

/// The generator and the model of the collection.
#[derive(Clone, Debug)]
pub struct Model {
    pub workload: Workload,
    rng: Rng,
    /// Seeded visiting order of keys (categories for the sorted shape).
    perm: Vec<u32>,
    cursor: usize,
    seq: u64,
    /// Unique low bits for sorted scores.
    score_tick: i64,
    state: State,
    specs: Vec<QuerySpec>,
}

fn key_of(index: u32) -> Key {
    Key::of(format!("k{index:06}"))
}

fn range_spec(lo: i64) -> QuerySpec {
    QuerySpec::filter(COLLECTION, doc! { "random" => doc! { "$gte" => lo, "$lt" => lo + RANGE_WIDTH } })
}

fn conj_spec(status: &str, bound: i64) -> QuerySpec {
    QuerySpec::filter(COLLECTION, doc! { "status" => status, "price" => doc! { "$lt" => bound } })
}

fn sorted_spec(cat: i64) -> QuerySpec {
    QuerySpec::filter(COLLECTION, doc! { "cat" => cat })
        .sorted_by("score", SortDirection::Desc)
        .with_limit(SORTED_LIMIT as u64)
}

/// Pool filters `status * 64 + j` that `(status, price)` satisfies:
/// bound `10 (j + 1) > price`.
fn conj_filters(status: usize, price: i64) -> std::ops::Range<usize> {
    let first = (price / 10).clamp(0, CONJ_BOUNDS as i64) as usize;
    status * CONJ_BOUNDS + first..(status + 1) * CONJ_BOUNDS
}

impl Model {
    /// Builds the subscriptions and the (empty) model for a workload.
    pub fn new(workload: Workload, seed: u64) -> Model {
        let mut rng = Rng::new(seed ^ 0x1DB0_B0D6_E700_0000);
        let mut perm: Vec<u32> = (0..workload.cycle() as u32).collect();
        rng.shuffle(&mut perm);
        let (state, specs) = match workload.shape {
            Shape::Range => {
                let n = workload.subs;
                let lows: Vec<i64> = (0..n as i64)
                    .map(|slot| {
                        slot * RANGE_SLOT + rng.below((RANGE_SLOT - RANGE_WIDTH + 1) as u64) as i64
                    })
                    .collect();
                // Subscription order is a seeded shuffle of value order, so
                // the index is not built from sorted input.
                let mut sub_slot: Vec<u32> = (0..n as u32).collect();
                rng.shuffle(&mut sub_slot);
                let mut slot_sub = vec![0u32; n];
                for (sub, &slot) in sub_slot.iter().enumerate() {
                    slot_sub[slot as usize] = sub as u32;
                }
                let specs = sub_slot.iter().map(|&slot| range_spec(lows[slot as usize])).collect();
                (State::Range { lows, slot_sub, held_by: vec![None; workload.keys] }, specs)
            }
            Shape::Conj => {
                let pool = CONJ_STATUSES * CONJ_BOUNDS;
                let mut filter_of: Vec<usize> = (0..workload.subs).map(|i| i % pool).collect();
                rng.shuffle(&mut filter_of);
                let mut subs_by_filter = vec![Vec::new(); pool];
                for (sub, &f) in filter_of.iter().enumerate() {
                    subs_by_filter[f].push(sub as u32);
                }
                let specs = filter_of
                    .iter()
                    .map(|&f| {
                        conj_spec(&format!("s{}", f / CONJ_BOUNDS), 10 * (f % CONJ_BOUNDS) as i64 + 10)
                    })
                    .collect();
                // Before the preload no key satisfies any bound.
                let nowhere = (0, 10 * CONJ_BOUNDS as i64);
                (State::Conj { subs_by_filter, current: vec![nowhere; workload.keys] }, specs)
            }
            Shape::Sorted => {
                assert_eq!(workload.keys, workload.subs * SORTED_PER_CAT, "20 documents per category");
                let specs = (0..workload.subs as i64).map(sorted_spec).collect();
                (State::Sorted { ranks: vec![Vec::new(); workload.subs] }, specs)
            }
        };
        Model { workload, rng, perm, cursor: 0, seq: 0, score_tick: 0, state, specs }
    }

    /// Query of each measured subscription, in subscription order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Queries of the churn pool: same shape, but nothing written matches.
    pub fn churn_specs(&self) -> Vec<QuerySpec> {
        (0..CHURN_POOL as i64)
            .map(|c| match self.workload.shape {
                Shape::Range => range_spec(-1_000 - c * RANGE_SLOT),
                Shape::Conj => conj_spec(&format!("churn{c}"), 10),
                Shape::Sorted => sorted_spec(-1 - c),
            })
            .collect()
    }

    fn document(&mut self, seq: u64, attrs: Document) -> Document {
        // The paper's document: five 10-character strings and five
        // integers, one of which decides matching (here: `attrs`).
        let mut d = attrs;
        d.insert("seq", seq as i64);
        for name in ["s1", "s2", "s3", "s4", "s5"] {
            d.insert(name, self.rng.literal());
        }
        for name in ["i1", "i2", "i3", "i4"] {
            d.insert(name, self.rng.below(1_000) as i64);
        }
        d
    }

    fn fresh_score(&mut self) -> i64 {
        self.score_tick += 1;
        ((self.rng.below(1 << 30) as i64) << 24) | (self.score_tick & 0xFF_FFFF)
    }

    /// One write to key index `k` (sorted: to member `member` of category
    /// `k`, a random one if `None`), updating the model and deriving the
    /// expectations.
    fn write_to(&mut self, k: u32, member: Option<u32>) -> Write {
        let seq = self.seq;
        self.seq += 1;
        let mut expects = Vec::new();
        let (key_index, attrs) = match self.workload.shape {
            Shape::Range => {
                let value = self.rng.below(self.workload.subs as u64 * RANGE_SLOT as u64) as i64;
                let State::Range { lows, slot_sub, held_by } = &mut self.state else { unreachable!() };
                let slot = (value / RANGE_SLOT) as usize;
                let now =
                    (lows[slot] <= value && value < lows[slot] + RANGE_WIDTH).then(|| slot_sub[slot]);
                let before = std::mem::replace(&mut held_by[k as usize], now);
                if let Some(sub) = before.filter(|&b| Some(b) != now) {
                    expects.push(Expect { sub, removal: true });
                }
                if let Some(sub) = now {
                    expects.push(Expect { sub, removal: false });
                }
                (k, doc! { "random" => value })
            }
            Shape::Conj => {
                let status = self.rng.below(CONJ_STATUSES as u64) as usize;
                let price = CONJ_PRICE_LO + self.rng.below(CONJ_PRICE_SPAN) as i64;
                let State::Conj { subs_by_filter, current } = &mut self.state else { unreachable!() };
                let (old_status, old_price) =
                    std::mem::replace(&mut current[k as usize], (status, price));
                let new = conj_filters(status, price);
                for f in conj_filters(old_status, old_price).filter(|f| !new.contains(f)) {
                    expects.extend(subs_by_filter[f].iter().map(|&sub| Expect { sub, removal: true }));
                }
                for f in new {
                    expects.extend(subs_by_filter[f].iter().map(|&sub| Expect { sub, removal: false }));
                }
                (k, doc! { "status" => format!("s{status}"), "price" => price })
            }
            Shape::Sorted => {
                let cat = k as usize;
                let member = member.unwrap_or_else(|| self.rng.below(SORTED_PER_CAT as u64) as u32);
                let key_index = (cat * SORTED_PER_CAT) as u32 + member;
                let score = self.fresh_score();
                let State::Sorted { ranks } = &mut self.state else { unreachable!() };
                let rank = &mut ranks[cat];
                let was_top = match rank.iter().position(|&(_, key)| key == key_index) {
                    Some(at) => {
                        rank.remove(at);
                        at < SORTED_LIMIT
                    }
                    None => false,
                };
                let at = rank.partition_point(|&(s, _)| s > score);
                rank.insert(at, (score, key_index));
                if at < SORTED_LIMIT {
                    expects.push(Expect { sub: cat as u32, removal: false });
                } else if was_top {
                    expects.push(Expect { sub: cat as u32, removal: true });
                }
                (key_index, doc! { "cat" => cat as i64, "score" => score })
            }
        };
        let doc = self.document(seq, attrs);
        Write { seq, key: key_of(key_index), doc, expects }
    }

    /// The initial collection: one document per key. Must be taken once,
    /// before any subscription exists (its expectations are discarded).
    pub fn preload(&mut self) -> Vec<(Key, Document)> {
        assert_eq!(self.seq, 0, "preload comes first");
        let mut out = Vec::with_capacity(self.workload.keys);
        match self.workload.shape {
            Shape::Sorted => {
                // Fill every category: each key written exactly once.
                for cat in 0..self.workload.subs {
                    for r in 0..SORTED_PER_CAT {
                        let key_index = (cat * SORTED_PER_CAT + r) as u32;
                        let score = self.fresh_score();
                        let State::Sorted { ranks } = &mut self.state else { unreachable!() };
                        let at = ranks[cat].partition_point(|&(s, _)| s > score);
                        ranks[cat].insert(at, (score, key_index));
                        let seq = self.seq;
                        self.seq += 1;
                        let doc = self.document(seq, doc! { "cat" => cat as i64, "score" => score });
                        out.push((key_of(key_index), doc));
                    }
                }
            }
            _ => {
                for k in 0..self.workload.keys as u32 {
                    let w = self.write_to(k, None);
                    out.push((w.key, w.doc));
                }
            }
        }
        out
    }

    /// The next `n` writes of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Write> {
        (0..n)
            .map(|_| {
                let k = self.perm[self.cursor];
                self.cursor = (self.cursor + 1) % self.perm.len();
                self.write_to(k, None)
            })
            .collect()
    }

    /// The warm-up: every key written exactly once, in the stream's
    /// visiting order, so per-key state (version maps, caches) is as full
    /// in the first measured round as in the last.
    pub fn take_pass(&mut self) -> Vec<Write> {
        let members = if self.workload.shape == Shape::Sorted { SORTED_PER_CAT as u32 } else { 1 };
        let perm = self.perm.clone();
        let mut out = Vec::with_capacity(self.workload.keys);
        for member in 0..members {
            out.extend(perm.iter().map(|&k| self.write_to(k, Some(member))));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    fn small(w: &Workload) -> Workload {
        w.scaled(10)
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_expectations() {
        for w in WORKLOADS.iter().map(small) {
            let run = |seed| {
                let mut m = Model::new(w, seed);
                (m.specs().to_vec(), m.preload(), m.take(500))
            };
            assert_eq!(run(7), run(7), "{}", w.name);
            assert_ne!(run(7).2, run(8).2, "{}: another seed, another stream", w.name);
        }
    }

    /// What the engine says the top of a sorted query holds.
    fn engine_top(p: &Arc<dyn PreparedQuery>, coll: &HashMap<Key, Document>) -> BTreeSet<Key> {
        let mut rows: Vec<(&Key, &Document)> = coll.iter().filter(|(_, d)| p.matches(d)).collect();
        rows.sort_by(|a, b| p.cmp_items(*a, *b));
        rows.into_iter().take(SORTED_LIMIT).map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn model_match_sets_agree_with_the_query_engine() {
        for w in WORKLOADS.iter().map(small) {
            let mut m = Model::new(w, 11);
            let prepared: Vec<_> =
                m.specs().iter().map(|s| MongoQueryEngine.prepare(s).unwrap()).collect();
            let churn: Vec<_> =
                m.churn_specs().iter().map(|s| MongoQueryEngine.prepare(s).unwrap()).collect();
            let mut coll: HashMap<Key, Document> = m.preload().into_iter().collect();
            assert_eq!(coll.len(), w.keys, "{}: preload covers the key space", w.name);
            let holds = |p: &Arc<dyn PreparedQuery>, coll: &HashMap<Key, Document>, key: &Key| {
                if w.shape == Shape::Sorted {
                    engine_top(p, coll).contains(key)
                } else {
                    coll.get(key).is_some_and(|d| p.matches(d))
                }
            };
            let mut raised = 0usize;
            for write in m.take(1_000) {
                assert!(
                    churn.iter().all(|p| !p.matches(&write.doc)),
                    "{}: churn pool stays silent",
                    w.name
                );
                let candidates: Vec<usize> = if w.shape == Shape::Sorted {
                    vec![write.doc.get("cat").unwrap().as_i64().unwrap() as usize]
                } else {
                    (0..prepared.len()).collect()
                };
                let before: BTreeSet<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&s| holds(&prepared[s], &coll, &write.key))
                    .collect();
                coll.insert(write.key.clone(), write.doc.clone());
                let after: BTreeSet<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&s| holds(&prepared[s], &coll, &write.key))
                    .collect();
                let mut want: Vec<Expect> = before
                    .difference(&after)
                    .map(|&s| Expect { sub: s as u32, removal: true })
                    .chain(after.iter().map(|&s| Expect { sub: s as u32, removal: false }))
                    .collect();
                let mut got = write.expects.clone();
                want.sort_by_key(|e| (e.sub, e.removal));
                got.sort_by_key(|e| (e.sub, e.removal));
                assert_eq!(got, want, "{} write {}", w.name, write.seq);
                raised += got.len();
            }
            assert!(raised > 0, "{}: the stream raises expectations", w.name);
        }
    }

    #[test]
    fn writes_to_one_key_or_category_are_at_least_a_window_apart() {
        for w in WORKLOADS {
            assert!(w.cycle() >= w.window, "{}", w.name);
            let w = small(&w);
            let mut m = Model::new(w, 3);
            m.preload();
            let mut last_seen: HashMap<String, usize> = HashMap::new();
            for (i, write) in m.take(3 * w.cycle()).into_iter().enumerate() {
                let unit = match w.shape {
                    Shape::Sorted => format!("{:?}", write.doc.get("cat")),
                    _ => format!("{:?}", write.key),
                };
                if let Some(prev) = last_seen.insert(unit, i) {
                    assert!(i - prev >= w.window, "{}: distance {} < W {}", w.name, i - prev, w.window);
                }
            }
        }
    }

    #[test]
    fn warm_up_pass_writes_every_key_once() {
        for w in WORKLOADS.iter().map(small) {
            let mut m = Model::new(w, 9);
            m.preload();
            let keys: BTreeSet<Key> = m.take_pass().into_iter().map(|x| x.key).collect();
            assert_eq!(keys.len(), w.keys, "{}", w.name);
        }
    }

    #[test]
    fn fanout_matches_the_design() {
        let range = Workload::by_name("range_20k").unwrap().scaled(10);
        let conj = Workload::by_name("fanout_conj").unwrap();
        for (w, lo, hi) in [(range, 0.40, 0.60), (conj, 38.0, 55.0)] {
            let mut m = Model::new(w, 5);
            m.preload();
            let writes = m.take(2_000);
            let per_write = writes.iter().map(|x| x.expects.len()).sum::<usize>() as f64 / 2_000.0;
            assert!((lo..hi).contains(&per_write), "{}: {per_write} notifications per write", w.name);
        }
    }
}
