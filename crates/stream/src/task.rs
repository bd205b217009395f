//! The run loop of one pipeline task: a bounded input queue, a bounded
//! drain per scheduling turn, and deadline-driven ticks.
//!
//! This is all the InvaliDB cluster needs from a stream processor: a grid
//! cell or a sorting partition is one [`Task`] on one thread, fed through
//! one bounded channel (backpressure), and everything it does for a
//! message — probe, evaluate, encode, publish — is a function call on that
//! thread. A task ends when every sender of its queue is gone and the queue
//! has drained, so a pipeline shuts down front to back by dropping senders.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use invalidb_obs::MetricsRegistry;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One unit of work that owns a thread.
pub trait Task<M> {
    /// Processes one message. Messages arrive in queue order.
    fn handle(&mut self, msg: M);

    /// Time-driven work (retention expiry, TTL enforcement, gauges); due
    /// every tick interval whether or not input arrives.
    fn tick(&mut self);
}

/// How many already-buffered messages one scheduling turn handles: after a
/// blocking receive, up to `TURN - 1` more are taken without re-reading the
/// clock, refreshing the depth gauge (a lock on the channel) or checking
/// for a due tick. A constant, not a setting: a turn of one pays those three
/// per message and costs throughput behind a socket (EXPERIMENTS.md
/// "`budget`: serial cell"), and nothing measured distinguishes the values
/// above a handful. Ticks are never starved for longer than one turn.
pub const TURN: usize = 32;

/// Runs `task` on the calling thread until every sender of `rx` is gone
/// and the queue is drained.
///
/// Ticks are due every `tick_interval` whether or not the queue ever
/// drains: a firehose arriving faster than the interval would otherwise
/// reset the receive timeout forever and starve time-driven work exactly
/// when it matters.
///
/// The task reports into `metrics` under `prefix`, resolved once on entry:
/// counters `<prefix>.processed` (messages handled) and `<prefix>.ticks`,
/// and the gauge `<prefix>.queue_depth`, the live input backlog (including
/// the message in hand), refreshed per turn so a drained spike decays even
/// under steady traffic. Tasks sharing a prefix add into the same series.
pub fn run<M>(
    rx: &Receiver<M>,
    task: &mut impl Task<M>,
    tick_interval: Duration,
    metrics: &MetricsRegistry,
    prefix: &str,
) {
    let processed = metrics.counter(&format!("{prefix}.processed"));
    let ticks = metrics.counter(&format!("{prefix}.ticks"));
    let queue_depth = metrics.gauge(&format!("{prefix}.queue_depth"));
    let mut last_tick = Instant::now();
    loop {
        let wait = tick_interval.saturating_sub(last_tick.elapsed());
        match rx.recv_timeout(wait) {
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
                if last_tick.elapsed() < tick_interval {
                    continue;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle: the gauge decays to the live queue length.
                queue_depth.store(rx.len() as u64, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        ticks.fetch_add(1, Ordering::Relaxed);
        task.tick();
        last_tick = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};

    #[derive(Default)]
    struct Counting {
        seen: Vec<u64>,
        /// Messages seen by the time of each tick.
        seen_at_tick: Vec<usize>,
    }

    impl Task<u64> for Counting {
        fn handle(&mut self, msg: u64) {
            self.seen.push(msg);
        }
        fn tick(&mut self) {
            self.seen_at_tick.push(self.seen.len());
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn drains_in_order_and_ends_when_senders_are_gone() {
        let (tx, rx) = unbounded();
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut task = Counting::default();
        let metrics = MetricsRegistry::new();
        // A zero interval makes a tick due after every turn, so the ticks
        // record where the turns ended.
        run(&rx, &mut task, Duration::ZERO, &metrics, "t");
        assert_eq!(task.seen, (0..100).collect::<Vec<_>>());
        assert_eq!(task.seen_at_tick, [32, 64, 96, 100], "a turn handles at most TURN messages");
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["t.processed"], 100);
        assert_eq!(snap.counters["t.ticks"], 4);
        assert_eq!(snap.gauges["t.queue_depth"], 4, "the last turn started with four queued");
    }

    #[test]
    fn idle_tasks_tick() {
        let (tx, rx) = unbounded::<u64>();
        let mut task = Counting::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                drop(tx);
            });
            run(&rx, &mut task, 5 * MS, &MetricsRegistry::new(), "t");
        });
        let ticks = task.seen_at_tick.len();
        assert!(ticks >= 5, "an idle task ticks on its interval, got {ticks}");
    }

    #[test]
    fn ticks_survive_a_message_firehose() {
        // A sender firing faster than the tick interval must not starve
        // ticks: time-driven work is due every interval even while the
        // queue never drains.
        let (tx, rx) = bounded::<u64>(16);
        let mut task = Counting::default();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..100u64 {
                    tx.send(i).unwrap();
                    std::thread::sleep(MS);
                }
            });
            run(&rx, &mut task, 5 * MS, &MetricsRegistry::new(), "t");
        });
        assert_eq!(task.seen.len(), 100);
        let ticks = task.seen_at_tick.len();
        assert!(ticks >= 5, "ticks fired while messages kept arriving, got {ticks}");
    }
}
