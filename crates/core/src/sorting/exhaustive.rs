//! Every short sequence of one sorting partition's inputs, checked against a
//! model store.
//!
//! A [`SortingNode`] behind the cluster's real ingress, on a [`MockClock`],
//! is a pure function of the events it is handed, so its races — a
//! subscription against the filter changes its initial result predates or
//! already reflects, a renewal against its group's edits (§5.2) — can be
//! enumerated rather than sampled. The alphabet, for one query (`n`
//! descending, limit 2):
//!
//! * subscribe A (slack 1), handed the model's pull result as it arrives;
//! * the store read of a joiner B (slack 0) of the same query, and later B's
//!   subscribe, handed what that read returned;
//! * a renewal of A or of B, handed a fresh pull result: after a maintenance
//!   error, or while its group is active;
//! * a save of one of three keys, with `n` 10 or 20 (values that move a key
//!   across the window's boundary; ties go by key), and a delete of one. A
//!   write reaches the store and, through the ingress, the grid's one
//!   matching cell at once, but the filter changes the cell stages stay in
//!   flight until an arrival step hands them to the partition: a subscribe
//!   may overtake a change its initial result reflects, and the changes a
//!   cell replays to a new query's first subscription follow it;
//! * a tick, a tenth of a second on, and a TTL lapse, a second on: past
//!   every live subscription's TTL.
//!
//! Every sequence up to [`DEPTH`] steps runs on a fresh partition, breadth
//! first, and after every step:
//!
//! * each notification folds onto its subscriber's list by index: an Add of
//!   a key the list holds, or an edit of a key it does not hold at that
//!   index, fails on the spot, so no list holds a key twice; a Change or
//!   ChangeIndex carries a version newer than any its subscriber was told of
//!   that key, and no edit an older one, so each write reaches a
//!   subscription once; a subscription is sent nothing after its lapse, and
//!   no edit between its maintenance error and its renewal;
//! * at a quiescent prefix (no change in flight), each subscriber that is
//!   neither lapsed nor awaiting renewal holds the model's pull result,
//!   order included.
//!
//! A prefix is not extended when a shorter or earlier one reached the same
//! state: the model, the read and the changes in flight, what each
//! subscriber holds and was told, the cell's groups, versions and retained
//! writes, and the partition's groups, windows and retained changes. The first failure is thus a shortest one, and it is
//! printed step by step.

use super::tests::{harness, request, top, Harness};
use super::*;
use invalidb_common::{doc, ChangeItem, Notification, NotificationKind, QuerySpec, ResultItem, Version};
use invalidb_query::{MongoQueryEngine, QueryEngine};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Steps per sequence: one fewer in a debug build, which runs ten times
/// slower.
const DEPTH: usize = if cfg!(debug_assertions) { 5 } else { 6 };
const KEYS: [&str; 3] = ["k0", "k1", "k2"];
const LIMIT: u64 = 2;
/// A's slack and B's.
const SLACK: [u64; 2] = [1, 0];
const B: usize = 1;
const TTL: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Subscribe A with the model's pull result.
    SubscribeA,
    /// B's store read.
    ReadB,
    /// B's subscribe, with what its read returned.
    SubscribeB,
    /// A (0) or B (1) subscribes again with a fresh pull result.
    Renew(usize),
    Save(usize, i64),
    Delete(usize),
    /// Every change in flight reaches the partition, in write order.
    Arrive,
    Tick,
    Lapse,
}

fn alphabet() -> Vec<Step> {
    let mut steps =
        vec![Step::SubscribeA, Step::ReadB, Step::SubscribeB, Step::Renew(0), Step::Renew(1)];
    for key in 0..KEYS.len() {
        steps.extend([10, 20].map(|n| Step::Save(key, n)));
        steps.push(Step::Delete(key));
    }
    steps.extend([Step::Arrive, Step::Tick, Step::Lapse]);
    steps
}

/// A record in the model: its key's index, its version and its `n`.
type Entry = (usize, Version, i64);

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
enum Status {
    /// Never subscribed, or lapsed.
    #[default]
    Off,
    Live,
    /// Sent a maintenance error; holds its last valid list until it renews.
    Awaiting,
}

/// What one subscriber's client holds.
#[derive(Default, Hash)]
struct Subscriber {
    status: Status,
    list: Vec<(Key, Version)>,
    /// The newest version of each key it was told of.
    told: BTreeMap<Key, Version>,
}

impl Subscriber {
    /// Folds one edit onto the list.
    fn fold(&mut self, c: &ChangeItem) -> Result<(), String> {
        let (key, version) = (&c.item.key, c.item.version);
        let told = self.told.get(key).copied();
        if told.is_some_and(|told| version < told) {
            return Err(format!("older than v{told:?}, which it was told of"));
        }
        let newer = told.is_none_or(|told| version > told);
        let at = |i: Option<u64>| {
            i.map(|i| i as usize).filter(|&i| self.list.get(i).is_some_and(|(k, _)| k == key))
        };
        match (c.match_type, c.item.index.map(|i| i as usize), at(c.old_index)) {
            (MatchType::Add, Some(i), _)
                if i <= self.list.len() && !self.list.iter().any(|(k, _)| k == key) =>
            {
                self.list.insert(i, (key.clone(), version));
            }
            (MatchType::Change, Some(i), _) if newer && at(Some(i as u64)).is_some() => {
                self.list[i].1 = version;
            }
            (MatchType::ChangeIndex, Some(i), Some(old)) if newer && i < self.list.len() => {
                self.list.remove(old);
                self.list.insert(i, (key.clone(), version));
            }
            (MatchType::Remove, _, Some(old)) => {
                self.list.remove(old);
            }
            _ => return Err(format!("off the list {:?}", self.list)),
        }
        self.told.insert(key.clone(), told.unwrap_or_default().max(version));
        Ok(())
    }
}

/// One partition and the model it is checked against.
struct Run {
    h: Harness,
    spec: QuerySpec,
    prepared: Arc<dyn PreparedQuery>,
    /// Per key: its last version (a delete keeps it) and its live value.
    store: [(Version, Option<i64>); 3],
    /// B's store read, once taken and until B subscribes with it.
    read: Option<Vec<Entry>>,
    subs: [Subscriber; 2],
}

impl Run {
    fn new() -> Self {
        thread_local! {
            // One registry for every run: what a run reports is not read.
            // No sequence reaches the retention horizon, so every retained
            // change stays a joiner's to replay.
            static SETUP: (ClusterConfig, Arc<dyn PreparedQuery>) = (
                ClusterConfig { retention: Duration::from_secs(60), ..ClusterConfig::new(1, 1) },
                MongoQueryEngine.prepare(&top(LIMIT)).expect("a sorted query"),
            );
        }
        let (config, prepared) = SETUP.with(|(config, prepared)| (config.clone(), Arc::clone(prepared)));
        Run {
            h: harness(config),
            spec: prepared.spec().clone(),
            prepared,
            store: [(0, None); 3],
            read: None,
            subs: Default::default(),
        }
    }

    /// The pull query on the model: its result and `extra` records beyond,
    /// in the query's order.
    fn pull(&self, extra: u64) -> Vec<Entry> {
        let mut entries: Vec<Entry> = (0..KEYS.len())
            .filter_map(|key| Some((key, self.store[key].0, self.store[key].1?)))
            .collect();
        entries.sort_by(|a, b| {
            let item = |&(key, _, n): &Entry| (Key::of(KEYS[key]), doc! { "n" => n });
            let ((a_key, a_doc), (b_key, b_doc)) = (item(a), item(b));
            self.prepared.cmp_items((&a_key, &a_doc), (&b_key, &b_doc))
        });
        entries.truncate((LIMIT + extra) as usize);
        entries
    }

    fn enabled(&self, step: Step) -> bool {
        match step {
            Step::SubscribeA => self.subs[0].status == Status::Off,
            Step::ReadB => self.subs[B].status == Status::Off && self.read.is_none(),
            Step::SubscribeB => self.read.is_some(),
            Step::Renew(sub) => self.subs[sub].status != Status::Off,
            Step::Delete(key) => self.store[key].1.is_some(),
            Step::Arrive => !self.h.in_flight.is_empty(),
            Step::Lapse => self.subs.iter().any(|sub| sub.status != Status::Off),
            Step::Save(..) | Step::Tick => true,
        }
    }

    /// A write to the store, a millisecond after the last step, and its
    /// event through the ingress to the cell.
    fn write(&mut self, key: usize, n: Option<i64>) {
        self.h.clock.advance(Duration::from_millis(1));
        let version = self.store[key].0 + 1;
        self.store[key] = (version, n);
        self.h.write(KEYS[key], version, n);
    }

    /// A subscription through the ingress, handed `initial`: what it was
    /// published, which starts with its initial result.
    fn subscribe(&mut self, sub: usize, initial: Vec<Entry>) -> Result<Vec<Notification>, String> {
        let initial = (initial.into_iter())
            .map(|(key, version, n)| ResultItem::new(Key::of(KEYS[key]), version, doc! { "n" => n }))
            .collect();
        let mut req = request(&self.spec, sub as u64 + 1, SLACK[sub], initial);
        req.ttl_micros = TTL.as_micros() as u64;
        self.h.subscribe(req);
        self.h.deliver();
        self.h.run_cell();
        let notes = self.h.wire.notifications();
        match notes.first().map(|note| &note.kind) {
            Some(NotificationKind::InitialResult { .. }) => Ok(notes),
            _ => Err(format!("subscriber {} was sent no initial result first", sub + 1)),
        }
    }

    /// Takes one step and checks what the subscribers were sent and hold.
    fn apply(&mut self, step: Step) -> Result<(), String> {
        let notes = match step {
            Step::SubscribeA => self.subscribe(0, self.pull(SLACK[0]))?,
            Step::SubscribeB => {
                let read = self.read.take().expect("enabled after the read");
                self.subscribe(B, read)?
            }
            Step::Renew(sub) => self.subscribe(sub, self.pull(SLACK[sub]))?,
            Step::ReadB => {
                self.read = Some(self.pull(SLACK[B]));
                Vec::new()
            }
            Step::Save(key, n) => {
                self.write(key, Some(n));
                Vec::new()
            }
            Step::Delete(key) => {
                self.write(key, None);
                Vec::new()
            }
            Step::Arrive => {
                self.h.arrive();
                self.h.wire.notifications()
            }
            Step::Tick | Step::Lapse => {
                let lapse = matches!(step, Step::Lapse);
                self.h.clock.advance(if lapse { TTL } else { Duration::from_millis(100) });
                self.h.node.tick(self.h.clock.now());
                self.h.cell.tick(self.h.clock.now());
                let notes = self.h.wire.notifications();
                if lapse {
                    for sub in &mut self.subs {
                        sub.status = Status::Off;
                    }
                }
                notes
            }
        };
        for note in notes {
            let who = note.subscription.0 as usize;
            let sub = &mut self.subs[who - 1];
            let status = sub.status;
            match &note.kind {
                NotificationKind::InitialResult { items } => {
                    sub.list = items.iter().map(|item| (item.key.clone(), item.version)).collect();
                    for (key, version) in &sub.list {
                        let told = sub.told.entry(key.clone()).or_default();
                        *told = (*told).max(*version);
                    }
                    sub.status = Status::Live;
                }
                NotificationKind::Error(_) if status == Status::Live => sub.status = Status::Awaiting,
                NotificationKind::Change(c) if status == Status::Live => sub.fold(c).map_err(|e| {
                    format!(
                        "{:?} {:?} v{} to subscriber {who}: {e}",
                        c.match_type, c.item.key, c.item.version
                    )
                })?,
                kind => return Err(format!("subscriber {who}, {status:?}, was sent {kind:?}")),
            }
        }
        if !self.h.in_flight.is_empty() {
            return Ok(());
        }
        let pulled: Vec<(Key, Version)> =
            self.pull(0).into_iter().map(|(key, version, _)| (Key::of(KEYS[key]), version)).collect();
        for (who, sub) in self.subs.iter().enumerate() {
            if sub.status == Status::Live && sub.list != pulled {
                return Err(format!(
                    "subscriber {} folded {:?}, the pull is {pulled:?}",
                    who + 1,
                    sub.list
                ));
            }
        }
        Ok(())
    }

    /// What decides every later step, hashed. The clock is not in it: no
    /// sequence reaches the retention horizon, ticks and writes never add
    /// up to a TTL, a lapse outlasts every subscription whenever it was
    /// made, and which retained writes came before a group is in the cell's
    /// hash.
    fn state(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        (self.store, &self.read, &self.subs).hash(&mut hasher);
        for event in &self.h.in_flight {
            if let Event::FilterChange(change) = event {
                let header = &change.header;
                (&header.key, header.version, change.kind as u8, &change.payload[..]).hash(&mut hasher);
            }
        }
        self.h.cell.hash_state(true, &mut hasher);
        for query in self.h.node.queries.values() {
            for group in &query.groups {
                (group.active, group.subscriptions.ids()).hash(&mut hasher);
                group.window.hash_state(&mut hasher);
            }
            for change in query.newest_per_key() {
                let header = &change.header;
                (&header.key, header.version, change.kind as u8, &change.payload[..]).hash(&mut hasher);
            }
        }
        hasher.finish()
    }
}

/// Runs `steps` on a fresh partition: the failing step's index and error, if
/// any.
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
fn every_sequence_of_subscribes_writes_renewals_and_lapses_folds_to_the_pull_result() {
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
    assert!(sequences > 50_000, "the alphabet was cut short: {sequences} sequences");
}
