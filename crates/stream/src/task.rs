//! The run loop of one pipeline task: a bounded input queue, batch
//! draining, and deadline-driven ticks.
//!
//! This is all the InvaliDB cluster needs from a stream processor: a grid
//! cell or a sorting partition is one [`Task`] on one thread, fed through
//! one bounded channel (backpressure), and everything it does for a
//! message — probe, evaluate, encode, publish — is a function call on that
//! thread. A task ends when every sender of its queue is gone and the queue
//! has drained, so a pipeline shuts down front to back by dropping senders.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use invalidb_obs::ComponentMetrics;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One unit of work that owns a thread.
pub trait Task<M> {
    /// Processes one scheduling turn's worth of buffered input, in arrival
    /// order. Implementations must leave `batch` empty — the loop reuses
    /// the buffer across turns.
    fn handle(&mut self, batch: &mut Vec<M>);

    /// Time-driven work (retention expiry, TTL enforcement, gauges); due
    /// every [`TaskConfig::tick_interval`] whether or not input arrives.
    fn tick(&mut self);
}

/// Run-loop knobs.
#[derive(Debug, Clone, Copy)]
pub struct TaskConfig {
    /// Interval between ticks.
    pub tick_interval: Duration,
    /// How many already-buffered messages are drained per scheduling turn:
    /// after one blocking receive, up to `max_batch - 1` more are taken
    /// without re-checking the clock. Ticks are never starved for longer
    /// than one batch.
    pub max_batch: usize,
}

/// Runs `task` on the calling thread until every sender of `rx` is gone
/// and the queue is drained.
///
/// Ticks are due every `tick_interval` whether or not the queue ever
/// drains: a firehose arriving faster than the interval would otherwise
/// reset the receive timeout forever and starve time-driven work exactly
/// when it matters. `metrics.queue_depth` is the live input backlog
/// (including the message in hand), refreshed per batch so a drained spike
/// decays even under steady traffic.
pub fn run<M>(
    rx: &Receiver<M>,
    task: &mut impl Task<M>,
    config: TaskConfig,
    metrics: &ComponentMetrics,
) {
    let max_batch = config.max_batch.max(1);
    let mut batch: Vec<M> = Vec::with_capacity(max_batch);
    let mut last_tick = Instant::now();
    loop {
        let wait = config.tick_interval.saturating_sub(last_tick.elapsed());
        match rx.recv_timeout(wait) {
            Ok(msg) => {
                metrics.queue_depth.store(rx.len() as u64 + 1, Ordering::Relaxed);
                batch.push(msg);
                while batch.len() < max_batch {
                    match rx.try_recv() {
                        Ok(msg) => batch.push(msg),
                        Err(_) => break, // drained (a disconnect surfaces on the next receive)
                    }
                }
                metrics.processed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                task.handle(&mut batch);
                batch.clear();
                if last_tick.elapsed() < config.tick_interval {
                    continue;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle: the gauge decays to the live queue length.
                metrics.queue_depth.store(rx.len() as u64, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        metrics.ticks.fetch_add(1, Ordering::Relaxed);
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
        largest_batch: usize,
        ticks: u32,
    }

    impl Task<u64> for Counting {
        fn handle(&mut self, batch: &mut Vec<u64>) {
            self.largest_batch = self.largest_batch.max(batch.len());
            self.seen.append(batch);
        }
        fn tick(&mut self) {
            self.ticks += 1;
        }
    }

    fn config(tick_ms: u64, max_batch: usize) -> TaskConfig {
        TaskConfig { tick_interval: Duration::from_millis(tick_ms), max_batch }
    }

    #[test]
    fn drains_in_order_and_ends_when_senders_are_gone() {
        let (tx, rx) = unbounded();
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut task = Counting::default();
        let metrics = ComponentMetrics::default();
        run(&rx, &mut task, config(1_000, 8), &metrics);
        assert_eq!(task.seen, (0..100).collect::<Vec<_>>());
        assert_eq!(task.largest_batch, 8, "a turn drains at most max_batch");
        assert_eq!(metrics.snapshot().0, 100);
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
            run(&rx, &mut task, config(5, 32), &ComponentMetrics::default());
        });
        assert!(task.ticks >= 5, "an idle task ticks on its interval, got {}", task.ticks);
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
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            run(&rx, &mut task, config(5, 32), &ComponentMetrics::default());
        });
        assert_eq!(task.seen.len(), 100);
        assert!(task.ticks >= 5, "ticks fired while messages kept arriving, got {}", task.ticks);
    }
}
