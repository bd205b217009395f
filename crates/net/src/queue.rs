//! Bounded per-connection send queues — the backpressure boundary — and
//! the writer thread that drains one into its socket.
//!
//! The in-process broker applies backpressure by blocking the publisher
//! on a bounded channel. Over TCP that is not acceptable: one slow
//! subscriber connection must not stall the server's delivery to everyone
//! else. Instead each connection gets a bounded [`SendQueue`] drained by
//! its writer thread, and a queue that is full sheds its oldest frame
//! (counted in `<link>.dropped`). That is the event layer's contract —
//! Redis pub/sub: best-effort, at-most-once (DESIGN.md §2) — and the
//! app server's maintenance-error machinery recovers from the gap.

use crate::frame::{encode_publish, Frame, TraceInfo};
use bytes::Bytes;
use invalidb_obs::{FlightEventKind, FlightRecorder, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most frames a writer thread coalesces into one buffered `write_all`.
pub(crate) const MAX_WRITE_BATCH: usize = 64;

/// What a link queues: a publish, with a topic shared, or any other frame.
pub(crate) enum Outbound {
    Publish { topic: Arc<str>, payload: Bytes, trace: Option<TraceInfo> },
    Control(Frame),
}

impl Outbound {
    /// Appends the frame's wire bytes, a publish's those of its `Frame`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Outbound::Publish { topic, payload, trace } => encode_publish(out, topic, payload, *trace),
            Outbound::Control(frame) => frame.encode_into(out),
        }
    }
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
    /// Frames shed on overflow.
    dropped: Arc<AtomicU64>,
    /// Gauge of the current queue length.
    depth: Arc<AtomicU64>,
    flight: FlightRecorder,
    /// Names the link in flight-recorder event details.
    label: String,
}

/// A bounded MPSC queue of outbound frames, one per connection. Generic
/// over the queued item so the writer path can carry frames (encoded in
/// bulk into a reused scratch buffer) while tests can queue raw bytes.
///
/// Producers call [`push`](SendQueue::push); the connection's writer
/// thread calls [`pop_batch`](SendQueue::pop_batch) to coalesce several
/// frames into one syscall. Cloning shares the queue.
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
    /// A queue holding at most `capacity` frames. Shed frames are counted
    /// in `dropped`, the current length is kept in the gauge `depth`, and
    /// overflows are logged to `flight` (at most one coalesced event per
    /// second) with `label` in the event detail.
    pub fn new(
        capacity: usize,
        dropped: Arc<AtomicU64>,
        depth: Arc<AtomicU64>,
        flight: FlightRecorder,
        label: impl Into<String>,
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
                dropped,
                depth,
                flight,
                label: label.into(),
            }),
        }
    }

    /// Logs an overflow to the flight recorder, coalescing storms.
    fn log_drop(&self, state: &mut State<T>) {
        let now = Instant::now();
        let due = state
            .last_drop_logged
            .map(|at| now.duration_since(at) >= Duration::from_secs(1))
            .unwrap_or(true);
        if due {
            state.last_drop_logged = Some(now);
            let total = self.inner.dropped.load(Ordering::Relaxed);
            self.inner.flight.record(
                FlightEventKind::QueueDrop,
                format!("{}: overflow, shed oldest frame ({total} dropped total)", self.inner.label),
            );
        }
    }

    /// Enqueues a frame, shedding the oldest one when the queue is full.
    /// Returns `false` if the queue is closed.
    pub fn push(&self, frame: T) -> bool {
        let mut state = self.inner.state.lock();
        if state.closed {
            return false;
        }
        if state.queue.len() >= self.inner.capacity {
            state.queue.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            self.log_drop(&mut state);
        }
        state.queue.push_back(frame);
        self.inner.depth.store(state.queue.len() as u64, Ordering::Relaxed);
        drop(state);
        self.inner.ready.notify_one();
        true
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
                self.inner.depth.store(state.queue.len() as u64, Ordering::Relaxed);
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

    /// Closes the queue. Queued frames are still drained by `pop_batch`.
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

/// The series of one link, resolved once under `<link>.` of a registry.
pub(crate) struct LinkSeries {
    /// Frames received.
    pub frames_in: Arc<AtomicU64>,
    /// Frames sent: see [`spawn_writer`] for which ones count.
    pub frames_out: Arc<AtomicU64>,
    /// Payload bytes received (frame bodies, excluding headers).
    pub bytes_in: Arc<AtomicU64>,
    /// Payload bytes handed to the send queue.
    pub bytes_out: Arc<AtomicU64>,
    /// Established sessions: 1 after the first connect, +1 per reconnect.
    pub reconnects: Arc<AtomicU64>,
    /// Frames rejected by the codec (bad magic/version/CRC/truncation).
    pub decode_errors: Arc<AtomicU64>,
    /// Frames the link's [`SendQueue`] shed on overflow.
    pub dropped: Arc<AtomicU64>,
    /// Gauge: frames waiting in the link's [`SendQueue`].
    pub queue_depth: Arc<AtomicU64>,
}

impl LinkSeries {
    pub(crate) fn resolve(metrics: &MetricsRegistry, link: &str) -> LinkSeries {
        let counter = |name: &str| metrics.counter(&format!("{link}.{name}"));
        LinkSeries {
            frames_in: counter("frames_in"),
            frames_out: counter("frames_out"),
            bytes_in: counter("bytes_in"),
            bytes_out: counter("bytes_out"),
            reconnects: counter("reconnects"),
            decode_errors: counter("decode_errors"),
            dropped: counter("dropped"),
            queue_depth: metrics.gauge(&format!("{link}.queue_depth")),
        }
    }

    /// A send queue of `capacity` frames reporting into this link's
    /// `dropped` and `queue_depth`.
    pub(crate) fn send_queue(
        &self,
        capacity: usize,
        flight: FlightRecorder,
        label: String,
    ) -> SendQueue<Outbound> {
        SendQueue::new(capacity, Arc::clone(&self.dropped), Arc::clone(&self.queue_depth), flight, label)
    }
}

/// Spawns the thread that drains `queue` into `stream` until the queue is
/// closed and empty, `running` goes false, or a write fails (which closes
/// the queue): whatever is queued goes out in one buffered write of up to
/// [`MAX_WRITE_BATCH`] frames, and an idle `heartbeat_interval` sends a
/// heartbeat. `frames_out` counts every heartbeat written and, when
/// `count_queued`, every queued frame written. The server passes `false`:
/// its pumps count publishes as they queue them, shed ones included.
pub(crate) fn spawn_writer(
    name: &str,
    mut stream: TcpStream,
    queue: SendQueue<Outbound>,
    frames_out: Arc<AtomicU64>,
    count_queued: bool,
    heartbeat_interval: Duration,
    running: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            // Heartbeats are identical every beat: encode once per
            // connection instead of once per beat.
            let heartbeat = Frame::Heartbeat { nonce: 0 }.encode();
            let mut batch: Vec<Outbound> = Vec::with_capacity(MAX_WRITE_BATCH);
            let mut scratch: Vec<u8> = Vec::with_capacity(16 * 1024);
            while running.load(Ordering::SeqCst) {
                let written = match queue.pop_batch(&mut batch, MAX_WRITE_BATCH, heartbeat_interval) {
                    // Idle: prove liveness to the peer.
                    Ok(0) => stream.write_all(&heartbeat).map(|()| 1),
                    Ok(n) => {
                        scratch.clear();
                        for frame in batch.drain(..) {
                            frame.encode_into(&mut scratch);
                        }
                        stream.write_all(&scratch).map(|()| if count_queued { n } else { 0 })
                    }
                    Err(Closed) => break,
                };
                match written {
                    Ok(n) => frames_out.fetch_add(n as u64, Ordering::Relaxed),
                    Err(_) => {
                        queue.close();
                        break;
                    }
                };
            }
            let _ = stream.shutdown(Shutdown::Both);
        })
        .expect("spawn writer thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: Duration = Duration::from_secs(1);

    fn queue(cap: usize) -> (SendQueue<Vec<u8>>, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let link = LinkSeries::resolve(&metrics, "link");
        (SendQueue::new(cap, link.dropped, link.queue_depth, metrics.flight(), "peer-x"), metrics)
    }

    /// Pops everything queued right now.
    fn drain(q: &SendQueue<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        q.pop_batch(&mut out, MAX_WRITE_BATCH, Duration::from_millis(10)).unwrap();
        out
    }

    /// A publish queued with a shared topic goes out as the bytes of the
    /// `Frame::Publish` with its fields.
    #[test]
    fn a_queued_publish_encodes_as_its_frame() {
        let trace = Some(TraceInfo { trace_id: 9, sent_at_micros: 1_700_000_000_000_000 });
        for (topic, payload, trace) in [
            ("invalidb.cluster", &b"{\"n\":1}"[..], None),
            ("invalidb.notify.t", &b"{\"trace\":{\"id\":9}}"[..], trace),
            ("", &b""[..], None),
        ] {
            let payload = Bytes::copy_from_slice(payload);
            let frame = Frame::Publish { topic: topic.into(), payload: payload.clone(), trace };
            let queued = Outbound::Publish { topic: topic.into(), payload, trace };
            let mut wire = vec![0xAA]; // appends, after what the batch holds
            queued.encode_into(&mut wire);
            assert_eq!(wire[1..], frame.encode()[..], "{frame:?}");
        }
    }

    #[test]
    fn fifo_order() {
        let (q, _) = queue(4);
        for i in 0..3u8 {
            assert!(q.push(vec![i]));
        }
        assert_eq!(drain(&q), [[0], [1], [2]]);
        assert!(drain(&q).is_empty(), "timeout, not closed");
    }

    #[test]
    fn drop_oldest_sheds_head() {
        let (q, metrics) = queue(2);
        assert!(q.push(vec![0]));
        assert!(q.push(vec![1]));
        assert!(q.push(vec![2]), "overflow still accepts the new frame");
        assert_eq!(metrics.snapshot().counters["link.dropped"], 1);
        assert_eq!(drain(&q), [[1], [2]], "oldest was dropped");
    }

    #[test]
    fn close_drains_then_errors() {
        let (q, _) = queue(4);
        q.push(vec![7]);
        q.close();
        assert!(!q.push(vec![8]), "closed queue rejects pushes");
        assert_eq!(drain(&q), [[7]]);
        assert_eq!(q.pop_batch(&mut Vec::new(), 1, SECOND), Err(Closed));
    }

    #[test]
    fn overflow_drops_land_in_flight_recorder() {
        let (q, metrics) = queue(1);
        assert!(q.push(vec![0]));
        assert!(q.push(vec![1]));
        assert!(q.push(vec![2]));
        // Storm coalescing: two drops inside one second, one event.
        let dump = metrics.flight().dump();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].kind, FlightEventKind::QueueDrop);
        assert!(dump[0].detail.contains("peer-x"));
    }

    #[test]
    fn queue_depth_gauge_tracks() {
        let (q, metrics) = queue(4);
        q.push(vec![0]);
        q.push(vec![1]);
        assert_eq!(metrics.snapshot().gauges["link.queue_depth"], 2);
        q.pop_batch(&mut Vec::new(), 1, SECOND).unwrap();
        assert_eq!(metrics.snapshot().gauges["link.queue_depth"], 1);
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let (q, metrics) = queue(8);
        for i in 0..5u8 {
            q.push(vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3, SECOND).unwrap(), 3);
        assert_eq!(out, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(metrics.snapshot().gauges["link.queue_depth"], 2);
        assert_eq!(q.pop_batch(&mut out, 8, SECOND).unwrap(), 2);
        assert_eq!(out.len(), 5, "batch appends, it does not clear");
        assert_eq!(metrics.snapshot().gauges["link.queue_depth"], 0);
        assert_eq!(q.pop_batch(&mut out, 8, Duration::from_millis(5)).unwrap(), 0, "timeout");
        q.close();
        assert_eq!(q.pop_batch(&mut out, 8, SECOND), Err(Closed));
    }

    #[test]
    fn pop_batch_wakes_on_cross_thread_push() {
        let (q, _) = queue(4);
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
}
