//! Every short sequence of one cell's inputs, checked against a model store.
//!
//! A [`MatchingNode`] on a [`MockClock`] is a pure function of the events it
//! is handed, so its races — a subscription against the writes its initial
//! result predates (§5.1) — can be enumerated rather than sampled. The
//! alphabet:
//!
//! * subscribe A to q1 (`n ≥ 10`) or B to q2 (`n ≥ 20`), each handed the
//!   model's pull result as it arrives;
//! * the store read of a joiner C of q1, and later C's subscribe, handed
//!   what that read returned;
//! * a save of either of two keys, with a value in neither filter, in q1
//!   only or in both, and a delete of either;
//! * a tick, a tenth of a second on (the retention horizon is two seconds,
//!   so no sequence outlives it).
//!
//! Every sequence up to [`DEPTH`] steps runs on a fresh cell, breadth first,
//! and after every step:
//!
//! * each subscriber's list, folded from its initial result and what it was
//!   sent, equals the model's pull result — and an Add of a key it holds, or
//!   a Change or Remove of one it does not, fails on the spot;
//! * each (key, version) reaches a subscription at most once.
//!
//! A prefix is not extended when a shorter or earlier one reached the same
//! state: the model, what each subscriber holds and was sent, the cell's
//! groups and versions, and its retained writes while a subscription is
//! still to come. The first failure is thus a shortest one, and it is
//! printed step by step.

use super::tests::{at_least, change_of, harness, subscribe_event, write_event, Harness};
use super::*;
use invalidb_common::{doc, ResultItem};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Steps per sequence: one fewer in a debug build, which runs ten times
/// slower and enumerates a ninth as many sequences.
const DEPTH: usize = if cfg!(debug_assertions) { 5 } else { 6 };
const KEYS: [&str; 2] = ["k0", "k1"];
/// A, B and C: subscription ids 1, 2 and 3, and the filter each holds.
const THRESHOLDS: [i64; 3] = [10, 20, 10];
const C: usize = 2;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Subscribe A or B with the model's pull result.
    Subscribe(usize),
    /// C's store read.
    ReadC,
    /// C's subscribe, with what its read returned.
    SubscribeC,
    Save(usize, i64),
    Delete(usize),
    Tick,
}

fn alphabet() -> Vec<Step> {
    let mut steps =
        vec![Step::Subscribe(0), Step::Subscribe(1), Step::ReadC, Step::SubscribeC, Step::Tick];
    for key in 0..KEYS.len() {
        steps.extend([5, 15, 25].map(|n| Step::Save(key, n)));
        steps.push(Step::Delete(key));
    }
    steps
}

type Held = BTreeMap<Key, Version>;

/// One cell and the model it is checked against.
struct Run {
    h: Harness,
    /// Per key: its last version (a delete keeps it) and its live value.
    store: [(Version, Option<i64>); 2],
    /// C's store read, once taken.
    read: Option<Vec<ResultItem>>,
    /// Per subscriber: its folded result, once subscribed, and every
    /// (key, version) it was sent.
    folded: [Option<Held>; 3],
    sent: [BTreeSet<(Key, Version)>; 3],
}

impl Run {
    fn new() -> Self {
        Run {
            h: harness(ClusterConfig::new(1, 1)),
            store: [(0, None); 2],
            read: None,
            folded: [None, None, None],
            sent: Default::default(),
        }
    }

    /// The pull query `n ≥ threshold` on the model.
    fn pull(&self, threshold: i64) -> Vec<ResultItem> {
        (self.store.iter().zip(KEYS))
            .filter_map(|(&(version, n), key)| {
                let n = n.filter(|n| *n >= threshold)?;
                Some(ResultItem::new(Key::of(key), version, doc! { "n" => n }))
            })
            .collect()
    }

    fn enabled(&self, step: Step) -> bool {
        match step {
            Step::Subscribe(sub) => self.folded[sub].is_none(),
            Step::ReadC => self.read.is_none(),
            Step::SubscribeC => self.read.is_some() && self.folded[C].is_none(),
            Step::Delete(key) => self.store[key].1.is_some(),
            Step::Save(..) | Step::Tick => true,
        }
    }

    fn subscribe(&mut self, sub: usize, initial: Vec<ResultItem>) {
        self.folded[sub] = Some(initial.iter().map(|item| (item.key.clone(), item.version)).collect());
        self.h.send(subscribe_event(at_least(THRESHOLDS[sub]), sub as u64 + 1, initial));
    }

    fn write(&mut self, key: usize, n: Option<i64>) {
        let version = self.store[key].0 + 1;
        self.store[key] = (version, n);
        self.h.send(write_event(Key::of(KEYS[key]), version, n.map(|n| doc! { "n" => n })));
    }

    /// Takes one step and checks what the subscribers hold after it.
    fn apply(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Subscribe(sub) => self.subscribe(sub, self.pull(THRESHOLDS[sub])),
            Step::ReadC => self.read = Some(self.pull(THRESHOLDS[C])),
            Step::SubscribeC => {
                let read = self.read.clone().expect("enabled after the read");
                self.subscribe(C, read);
            }
            Step::Save(key, n) => self.write(key, Some(n)),
            Step::Delete(key) => self.write(key, None),
            Step::Tick => {
                self.h.clock.advance(Duration::from_millis(100));
                self.h.node.tick();
            }
        }
        for note in self.h.notifications() {
            let sub = note.subscription.0 as usize - 1;
            let (match_type, key, version) = change_of(&note);
            let change = format!("{match_type:?} {key:?} v{version} to subscriber {}", sub + 1);
            let held = self.folded[sub].as_mut().ok_or_else(|| format!("{change}: not subscribed"))?;
            if !self.sent[sub].insert((key.clone(), version)) {
                return Err(format!("{change}: sent twice"));
            }
            match (match_type, held.get(&key)) {
                (MatchType::Add, None) => {
                    held.insert(key, version);
                }
                (MatchType::Change, Some(old)) if *old < version => {
                    held.insert(key, version);
                }
                (MatchType::Remove, Some(old)) if *old < version => {
                    held.remove(&key);
                }
                (_, old) => return Err(format!("{change}: the subscriber held {old:?}")),
            }
        }
        for (sub, held) in self.folded.iter().enumerate() {
            let Some(held) = held else { continue };
            let pulled: Held =
                self.pull(THRESHOLDS[sub]).into_iter().map(|item| (item.key, item.version)).collect();
            if *held != pulled {
                return Err(format!("subscriber {} folded {held:?}, the pull is {pulled:?}", sub + 1));
            }
        }
        Ok(())
    }

    /// What decides every later step, hashed. Neither the clock nor what
    /// was sent is in it: no sequence reaches the retention horizon or a
    /// TTL, and a later step sends a subscriber either versions newer than
    /// any it was sent or, wrongly, an older one, which the fold or the
    /// pull comparison rejects whatever the prefix.
    fn state(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        let read: Option<Held> =
            self.read.as_ref().map(|items| items.iter().map(|i| (i.key.clone(), i.version)).collect());
        (self.store, read, &self.folded).hash(&mut hasher);
        let pending = self.folded.iter().any(Option::is_none);
        // One scope: the tenant's collection `t`.
        for scope in self.h.node.scopes.values().flat_map(HashMap::values) {
            let mut groups: Vec<_> = scope
                .queries
                .iter()
                .map(|(hash, group)| {
                    (*hash, group.result.iter().collect::<BTreeMap<_, _>>(), group.subscriptions.ids())
                })
                .collect();
            groups.sort_by_key(|(hash, ..)| *hash);
            let versions: BTreeMap<_, _> = scope.latest_versions.iter().collect();
            (groups, versions).hash(&mut hasher);
            if pending {
                for write in &scope.retention {
                    (&write.key, write.version, &write.payload[..]).hash(&mut hasher);
                }
            }
        }
        hasher.finish()
    }
}

/// Runs `steps` on a fresh cell: the failing step's index and error, if any.
fn run(steps: &[Step]) -> (Run, Result<(), (usize, String)>) {
    let mut run = Run::new();
    for (i, &step) in steps.iter().enumerate() {
        if let Err(e) = run.apply(step) {
            return (run, Err((i, e)));
        }
    }
    (run, Ok(()))
}

#[test]
fn every_sequence_of_subscribes_writes_and_ticks_folds_to_the_pull_result() {
    let alphabet = alphabet();
    let mut seen = HashSet::new();
    let mut frontier: Vec<Vec<Step>> = vec![Vec::new()];
    let mut sequences = 0;
    for _ in 0..DEPTH {
        let mut next = Vec::new();
        for prefix in &frontier {
            let (before, _) = run(prefix);
            for &step in alphabet.iter().filter(|&&step| before.enabled(step)) {
                sequences += 1;
                let steps = [&prefix[..], &[step]].concat();
                let (after, outcome) = run(&steps);
                if let Err((at, e)) = outcome {
                    let listed: Vec<String> = steps[..=at]
                        .iter()
                        .enumerate()
                        .map(|(i, s)| format!("  {}. {s:?}", i + 1))
                        .collect();
                    panic!("a shortest failing sequence:\n{}\n{e}", listed.join("\n"));
                }
                if seen.insert(after.state()) {
                    next.push(steps);
                }
            }
        }
        frontier = next;
    }
    println!("{sequences} sequences of up to {DEPTH} steps, {} distinct states", seen.len());
    assert!(sequences > 40_000, "the alphabet was cut short: {sequences} sequences");
}
