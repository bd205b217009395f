//! Bounded per-connection send queues — the backpressure boundary.
//!
//! The in-process broker applies backpressure by blocking the publisher
//! on a bounded channel. Over TCP that is not acceptable: one slow
//! subscriber connection must not stall the server's delivery to everyone
//! else. Instead each connection gets a bounded [`SendQueue`] drained by
//! its writer thread, with an explicit [`OverflowPolicy`] deciding what
//! happens when the subscriber can't keep up:
//!
//! * [`OverflowPolicy::DropOldest`] — shed load by discarding the oldest
//!   queued frame (counted in `LinkMetrics::dropped`). Fine for the
//!   event layer, whose semantics are Redis pub/sub: best-effort,
//!   at-most-once (DESIGN.md §2). The app-server's maintenance-error
//!   machinery recovers from the gap.
//! * [`OverflowPolicy::Disconnect`] — close the queue, which tears down
//!   the connection. The client's supervisor then reconnects and replays
//!   its subscriptions, converting a silent gap into an explicit
//!   connection-level event.

use invalidb_obs::{FlightEventKind, FlightRecorder, LinkMetrics};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to do when a [`SendQueue`] is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Discard the oldest queued frame to make room.
    DropOldest,
    /// Close the queue (and thus the connection).
    Disconnect,
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// When the last drop was logged to the flight recorder; drop storms
    /// are coalesced to one event per second so they cannot wipe the ring.
    last_drop_logged: Option<Instant>,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    metrics: Arc<LinkMetrics>,
    /// Flight recorder plus the link label used in event details.
    recorder: Option<(FlightRecorder, String)>,
}

/// A bounded MPSC queue of outbound frames, one per connection. Generic
/// over the queued item so the writer path can carry decoded
/// [`Frame`](crate::frame::Frame)s (encoded in bulk into a reused scratch
/// buffer) while tests and other users can queue raw bytes.
///
/// Producers call [`push`](SendQueue::push); the connection's writer
/// thread calls [`pop`](SendQueue::pop) or — to coalesce several frames
/// into one syscall — [`pop_batch`](SendQueue::pop_batch). Cloning shares
/// the queue.
pub struct SendQueue<T> {
    inner: Arc<Inner<T>>,
}

// Derived `Clone` would demand `T: Clone`; sharing the Arc does not.
impl<T> Clone for SendQueue<T> {
    fn clone(&self) -> Self {
        SendQueue { inner: Arc::clone(&self.inner) }
    }
}

impl<T> SendQueue<T> {
    /// A queue holding at most `capacity` frames.
    pub fn new(capacity: usize, policy: OverflowPolicy, metrics: Arc<LinkMetrics>) -> Self {
        SendQueue::with_recorder(capacity, policy, metrics, None)
    }

    /// Like [`SendQueue::new`], additionally logging overflow drops to a
    /// flight recorder (at most one coalesced event per second), labelled
    /// with `link` in the event detail.
    pub fn with_recorder(
        capacity: usize,
        policy: OverflowPolicy,
        metrics: Arc<LinkMetrics>,
        recorder: Option<(FlightRecorder, String)>,
    ) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SendQueue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    closed: false,
                    last_drop_logged: None,
                }),
                ready: Condvar::new(),
                capacity,
                policy,
                metrics,
                recorder,
            }),
        }
    }

    /// Logs an overflow to the flight recorder, coalescing storms.
    fn log_drop(&self, state: &mut State<T>, what: &str) {
        if let Some((flight, link)) = &self.inner.recorder {
            let now = Instant::now();
            let due = state
                .last_drop_logged
                .map(|at| now.duration_since(at) >= Duration::from_secs(1))
                .unwrap_or(true);
            if due {
                state.last_drop_logged = Some(now);
                let total = self.inner.metrics.dropped.load(Ordering::Relaxed);
                flight.record(
                    FlightEventKind::QueueDrop,
                    format!("{link}: {what} ({total} dropped total)"),
                );
            }
        }
    }

    /// Enqueues a frame. Returns `false` if the queue is (or
    /// just became, per [`OverflowPolicy::Disconnect`]) closed.
    pub fn push(&self, frame: T) -> bool {
        let mut state = self.inner.state.lock();
        if state.closed {
            return false;
        }
        if state.queue.len() >= self.inner.capacity {
            match self.inner.policy {
                OverflowPolicy::DropOldest => {
                    state.queue.pop_front();
                    self.inner.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                    self.log_drop(&mut state, "overflow, shed oldest frame");
                }
                OverflowPolicy::Disconnect => {
                    state.closed = true;
                    state.queue.clear();
                    self.inner.metrics.queue_depth.store(0, Ordering::Relaxed);
                    self.log_drop(&mut state, "overflow, disconnecting");
                    drop(state);
                    self.inner.ready.notify_all();
                    return false;
                }
            }
        }
        state.queue.push_back(frame);
        self.inner.metrics.queue_depth.store(state.queue.len() as u64, Ordering::Relaxed);
        drop(state);
        self.inner.ready.notify_one();
        true
    }

    /// Dequeues the next frame, blocking up to `timeout`. `Ok(None)` is a
    /// timeout (caller may do periodic work and retry); `Err(Closed)`
    /// means the queue was closed and fully drained.
    pub fn pop(&self, timeout: Duration) -> Result<Option<T>, Closed> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(frame) = state.queue.pop_front() {
                self.inner.metrics.queue_depth.store(state.queue.len() as u64, Ordering::Relaxed);
                return Ok(Some(frame));
            }
            if state.closed {
                return Err(Closed);
            }
            if self.inner.ready.wait_for(&mut state, timeout).timed_out() {
                return Ok(None);
            }
        }
    }

    /// Dequeues up to `max` frames into `out` in one lock acquisition,
    /// blocking up to `timeout` for the first. Returns how many frames
    /// were appended: `Ok(0)` is a timeout (caller may do periodic work
    /// and retry); `Err(Closed)` means closed and fully drained. This is
    /// the writer thread's batching primitive — everything queued behind
    /// the first frame rides along without further waits, so a burst of
    /// frames becomes one buffered `write_all` instead of one syscall (and
    /// one condvar wakeup) each.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize, timeout: Duration) -> Result<usize, Closed> {
        assert!(max > 0, "batch size must be positive");
        let mut state = self.inner.state.lock();
        loop {
            if !state.queue.is_empty() {
                let n = state.queue.len().min(max);
                out.extend(state.queue.drain(..n));
                self.inner.metrics.queue_depth.store(state.queue.len() as u64, Ordering::Relaxed);
                return Ok(n);
            }
            if state.closed {
                return Err(Closed);
            }
            if self.inner.ready.wait_for(&mut state, timeout).timed_out() {
                return Ok(0);
            }
        }
    }

    /// Closes the queue. Queued frames are still drained by `pop`.
    pub fn close(&self) {
        let mut state = self.inner.state.lock();
        state.closed = true;
        drop(state);
        self.inner.ready.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The queue was closed and drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(cap: usize, policy: OverflowPolicy) -> (SendQueue<Vec<u8>>, Arc<LinkMetrics>) {
        let metrics = Arc::new(LinkMetrics::default());
        (SendQueue::new(cap, policy, Arc::clone(&metrics)), metrics)
    }

    #[test]
    fn fifo_order() {
        let (q, _) = queue(4, OverflowPolicy::DropOldest);
        for i in 0..3u8 {
            assert!(q.push(vec![i]));
        }
        for i in 0..3u8 {
            assert_eq!(q.pop(Duration::from_secs(1)).unwrap(), Some(vec![i]));
        }
        assert_eq!(q.pop(Duration::from_millis(10)).unwrap(), None, "timeout, not closed");
    }

    #[test]
    fn drop_oldest_sheds_head() {
        let (q, metrics) = queue(2, OverflowPolicy::DropOldest);
        assert!(q.push(vec![0]));
        assert!(q.push(vec![1]));
        assert!(q.push(vec![2]), "overflow still accepts the new frame");
        assert_eq!(metrics.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(q.pop(Duration::from_secs(1)).unwrap(), Some(vec![1]), "oldest was dropped");
        assert_eq!(q.pop(Duration::from_secs(1)).unwrap(), Some(vec![2]));
    }

    #[test]
    fn disconnect_policy_closes_on_overflow() {
        let (q, _) = queue(1, OverflowPolicy::Disconnect);
        assert!(q.push(vec![0]));
        assert!(!q.push(vec![1]), "overflow closes the queue");
        assert!(q.is_closed());
        assert!(!q.push(vec![2]), "closed queue rejects pushes");
        assert_eq!(q.pop(Duration::from_secs(1)), Err(Closed));
    }

    #[test]
    fn close_drains_then_errors() {
        let (q, _) = queue(4, OverflowPolicy::DropOldest);
        q.push(vec![7]);
        q.close();
        assert_eq!(q.pop(Duration::from_secs(1)).unwrap(), Some(vec![7]));
        assert_eq!(q.pop(Duration::from_secs(1)), Err(Closed));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let (q, _) = queue(4, OverflowPolicy::DropOldest);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(vec![9]);
        assert_eq!(t.join().unwrap().unwrap(), Some(vec![9]));
    }

    #[test]
    fn overflow_drops_land_in_flight_recorder() {
        let metrics = Arc::new(LinkMetrics::default());
        let flight = FlightRecorder::with_capacity(8);
        let q = SendQueue::with_recorder(
            1,
            OverflowPolicy::DropOldest,
            Arc::clone(&metrics),
            Some((flight.clone(), "peer-x".into())),
        );
        assert!(q.push(vec![0]));
        assert!(q.push(vec![1]));
        assert!(q.push(vec![2]));
        // Storm coalescing: two drops inside one second, one event.
        let dump = flight.dump();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].kind, FlightEventKind::QueueDrop);
        assert!(dump[0].detail.contains("peer-x"));
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let (q, metrics) = queue(8, OverflowPolicy::DropOldest);
        for i in 0..5u8 {
            q.push(vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3, Duration::from_secs(1)).unwrap(), 3);
        assert_eq!(out, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 2);
        assert_eq!(q.pop_batch(&mut out, 8, Duration::from_secs(1)).unwrap(), 2);
        assert_eq!(out.len(), 5, "batch appends, it does not clear");
        assert_eq!(q.pop_batch(&mut out, 8, Duration::from_millis(5)).unwrap(), 0, "timeout");
        q.close();
        assert_eq!(q.pop_batch(&mut out, 8, Duration::from_secs(1)), Err(Closed));
    }

    #[test]
    fn pop_batch_wakes_on_cross_thread_push() {
        let (q, _) = queue(4, OverflowPolicy::DropOldest);
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.pop_batch(&mut out, 4, Duration::from_secs(5));
            (n, out)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.push(vec![9]);
        let (n, out) = t.join().unwrap();
        assert_eq!(n.unwrap(), 1);
        assert_eq!(out, vec![vec![9]]);
    }

    #[test]
    fn queue_depth_gauge_tracks() {
        let (q, metrics) = queue(4, OverflowPolicy::DropOldest);
        q.push(vec![0]);
        q.push(vec![1]);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 2);
        let _ = q.pop(Duration::from_secs(1));
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 1);
    }
}
