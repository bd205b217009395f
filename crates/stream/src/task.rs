//! The run loop of one pipeline task: a bounded input queue, a bounded
//! drain per scheduling turn, and deadline-driven ticks.
//!
//! This is all the InvaliDB cluster needs from a stream processor: a grid
//! cell or a sorting partition is one [`Task`] on one thread, fed through
//! one bounded channel (backpressure), and everything it does for a
//! message — probe, evaluate, encode, publish — is a function call on that
//! thread. A task ends when every sender of its queue is gone and the queue
//! has drained, so a pipeline shuts down front to back by dropping senders.
//! A task that reads the event layer runs on its subscription's receiver and
//! ends when its owner drops the subscription.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use invalidb_common::{Clock, Timestamp};
use invalidb_obs::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One unit of work that owns a thread.
pub trait Task<M> {
    /// Whether every turn that handled input ends with a tick, due or not:
    /// for a task whose input only says "look at your agenda now" (the app
    /// server's keeper and its wake-up channel). A property of the task's
    /// type, not a setting.
    const TICK_AFTER_INPUT: bool = false;

    /// Processes one message. Messages arrive in queue order.
    fn handle(&mut self, msg: M);

    /// Time-driven work (retention expiry, TTL enforcement, gauges): does
    /// what is due at `now` and returns when the task is next due. The
    /// default has no work and is due again after [`IDLE_TICK`].
    fn tick(&mut self, now: Timestamp) -> Timestamp {
        now.after(IDLE_TICK)
    }
}

/// How many already-buffered messages one scheduling turn handles: after a
/// blocking receive, up to `TURN - 1` more are taken without re-reading the
/// clock, refreshing the depth gauge (a lock on the channel) or checking
/// for a due tick. A constant, not a setting: a turn of one pays those three
/// per message and costs throughput behind a socket (EXPERIMENTS.md
/// "`budget`: serial cell"), and nothing measured distinguishes the values
/// above a handful. Ticks are never starved for longer than one turn.
pub const TURN: usize = 32;

/// The tick interval of a task with no time-driven work: its ticks only let
/// the depth gauge decay to the live backlog while it idles.
pub const IDLE_TICK: Duration = Duration::from_secs(1);

/// What a task reports under its prefix: counters `<prefix>.processed`
/// (messages handled) and `<prefix>.ticks`, and the gauge
/// `<prefix>.queue_depth`, the live input backlog (including the message in
/// hand), refreshed per turn so a drained spike decays even under steady
/// traffic. Tasks sharing a prefix add into the same series. Resolved by
/// whoever starts the task, so the series exist before its thread runs.
pub struct Series {
    processed: Arc<AtomicU64>,
    ticks: Arc<AtomicU64>,
    queue_depth: Arc<AtomicU64>,
}

impl Series {
    /// Gets (or creates) the task's series in `metrics`.
    pub fn new(metrics: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            processed: metrics.counter(&format!("{prefix}.processed")),
            ticks: metrics.counter(&format!("{prefix}.ticks")),
            queue_depth: metrics.gauge(&format!("{prefix}.queue_depth")),
        }
    }
}

/// Runs `task` on the calling thread until every sender of `rx` is gone
/// and the queue is drained.
///
/// The task is ticked when it starts, and then whenever `clock` reaches the
/// deadline its last tick returned, whether or not the queue ever drains:
/// a firehose arriving faster than the deadlines would otherwise reset the
/// receive timeout forever and starve time-driven work exactly when it
/// matters. The clock is read once per turn, and once more after a tick.
///
/// The task reports into `series` (see [`Series`]).
pub fn run<M, T: Task<M>>(rx: &Receiver<M>, task: &mut T, clock: &dyn Clock, series: &Series) {
    let Series { processed, ticks, queue_depth } = series;
    let mut now = clock.now();
    let mut due = now;
    loop {
        match rx.recv_timeout(due.since(now)) {
            Ok(msg) => {
                queue_depth.store(rx.len() as u64 + 1, Ordering::Relaxed);
                task.handle(msg);
                let mut handled = 1;
                // Until drained; a disconnect surfaces on the next receive.
                for msg in rx.try_iter().take(TURN - 1) {
                    task.handle(msg);
                    handled += 1;
                }
                processed.fetch_add(handled as u64, Ordering::Relaxed);
                now = clock.now();
                if now < due && !T::TICK_AFTER_INPUT {
                    continue;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle: the gauge decays to the live queue length.
                queue_depth.store(rx.len() as u64, Ordering::Relaxed);
                now = clock.now();
                if now < due {
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        ticks.fetch_add(1, Ordering::Relaxed);
        due = task.tick(now);
        now = clock.now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};
    use invalidb_common::{MockClock, SystemClock};
    use parking_lot::Mutex;

    /// Records what it handled, and when and after how many messages it was
    /// ticked; each tick is next due `every` later.
    struct Counting {
        every: Duration,
        seen: Vec<u64>,
        /// Messages seen by the time of each tick.
        seen_at_tick: Vec<usize>,
        /// The time of each tick, shared with the test's thread.
        ticked_at: Arc<Mutex<Vec<Timestamp>>>,
    }

    impl Counting {
        fn new(every: Duration) -> Self {
            Self { every, seen: Vec::new(), seen_at_tick: Vec::new(), ticked_at: Arc::default() }
        }
    }

    impl Task<u64> for Counting {
        fn handle(&mut self, msg: u64) {
            self.seen.push(msg);
        }
        fn tick(&mut self, now: Timestamp) -> Timestamp {
            self.seen_at_tick.push(self.seen.len());
            self.ticked_at.lock().push(now);
            now.after(self.every)
        }
    }

    /// A [`Counting`] that wants a tick after every turn of input.
    struct Woken(Counting);

    impl Task<u64> for Woken {
        const TICK_AFTER_INPUT: bool = true;
        fn handle(&mut self, msg: u64) {
            self.0.handle(msg)
        }
        fn tick(&mut self, now: Timestamp) -> Timestamp {
            self.0.tick(now)
        }
    }

    const MS: Duration = Duration::from_millis(1);
    const HOUR: Duration = Duration::from_secs(3600);

    /// A queue of `0..n` whose senders are gone.
    fn queued(n: u64) -> Receiver<u64> {
        let (tx, rx) = unbounded();
        for i in 0..n {
            tx.send(i).unwrap();
        }
        rx
    }

    /// Polls `done` every few milliseconds, for at most five seconds.
    fn eventually(done: impl Fn() -> bool) -> bool {
        (0..1000).any(|_| {
            std::thread::sleep(5 * MS);
            done()
        })
    }

    #[test]
    fn drains_in_order_and_ends_when_senders_are_gone() {
        // Due again at once: a tick after every turn records where the
        // turns ended.
        let mut task = Counting::new(Duration::ZERO);
        let metrics = MetricsRegistry::new();
        run(&queued(100), &mut task, &MockClock::new(), &Series::new(&metrics, "t"));
        assert_eq!(task.seen, (0..100).collect::<Vec<_>>());
        assert_eq!(task.seen_at_tick, [32, 64, 96, 100], "a turn handles at most TURN messages");
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["t.processed"], 100);
        assert_eq!(snap.counters["t.ticks"], 4);
        assert_eq!(snap.gauges["t.queue_depth"], 4, "the last turn started with four queued");
    }

    #[test]
    fn a_task_is_ticked_at_the_deadline_its_tick_returned() {
        let clock = MockClock::new();
        let (tx, rx) = unbounded::<u64>();
        let mut task = Counting::new(10 * MS);
        let ticked_at = Arc::clone(&task.ticked_at);
        std::thread::scope(|scope| {
            let clock = &clock;
            scope.spawn(move || run(&rx, &mut task, clock, &Series::new(&MetricsRegistry::new(), "t")));
            assert!(eventually(|| ticked_at.lock().len() == 1), "ticked when it starts");
            clock.advance(4 * MS);
            std::thread::sleep(30 * MS);
            assert_eq!(ticked_at.lock().len(), 1, "not due before its deadline");
            clock.advance(6 * MS);
            assert!(eventually(|| ticked_at.lock().len() == 2), "due at its deadline");
            drop(tx);
        });
        assert_eq!(*ticked_at.lock(), [Timestamp(0), Timestamp(10_000)]);
    }

    #[test]
    fn a_message_turn_ticks_a_task_only_when_it_is_due() {
        let clock = MockClock::new();
        let mut task = Counting::new(HOUR);
        run(&queued(100), &mut task, &clock, &Series::new(&MetricsRegistry::new(), "t"));
        assert_eq!(task.seen.len(), 100);
        assert_eq!(task.seen_at_tick, [32], "ticked by the first turn only: the others were early");

        // Due by the clock, a message ticks it without waiting out a
        // receive timeout.
        let (tx, rx) = bounded::<u64>(1);
        let mut task = Counting::new(HOUR);
        std::thread::scope(|scope| {
            let clock = &clock;
            let ticked_at = Arc::clone(&task.ticked_at);
            scope.spawn(move || run(&rx, &mut task, clock, &Series::new(&MetricsRegistry::new(), "t")));
            assert!(eventually(|| ticked_at.lock().len() == 1));
            clock.advance(HOUR);
            tx.send(1).unwrap();
            assert!(eventually(|| ticked_at.lock().len() == 2), "the turn found the task due");
            drop(tx);
        });
    }

    #[test]
    fn a_task_that_ticks_after_input_is_ticked_after_every_turn() {
        let mut task = Woken(Counting::new(HOUR));
        run(&queued(100), &mut task, &MockClock::new(), &Series::new(&MetricsRegistry::new(), "t"));
        assert_eq!(task.0.seen_at_tick, [32, 64, 96, 100], "none of them was due");
        assert!(task.0.ticked_at.lock().iter().all(|&t| t == Timestamp(0)));
    }

    #[test]
    fn ticks_survive_a_message_firehose() {
        // A sender firing faster than the tick deadlines must not starve
        // ticks: time-driven work falls due even while the queue never
        // drains.
        let (tx, rx) = bounded::<u64>(16);
        let mut task = Counting::new(5 * MS);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..100u64 {
                    tx.send(i).unwrap();
                    std::thread::sleep(MS);
                }
            });
            run(&rx, &mut task, &SystemClock::new(), &Series::new(&MetricsRegistry::new(), "t"));
        });
        assert_eq!(task.seen.len(), 100);
        let ticks = task.seen_at_tick.len();
        assert!(ticks >= 5, "ticks fired while messages kept arriving, got {ticks}");
    }
}
