//! `RemoteBroker`: the broker client — same publish/subscribe surface as
//! the in-process [`Broker`], delivered over TCP.
//!
//! Local delivery goes through a private *mirror broker*: `subscribe`
//! registers on the mirror and tells the server to start forwarding the
//! topic; the reader thread pumps incoming `Publish` frames into the
//! mirror, which fans them out to however many local subscriptions exist.
//! A janitor notices topics whose local subscriber count has dropped to
//! zero (subscriptions unsubscribe on drop, exactly like the in-process
//! broker) and sends `UNSUBSCRIBE` upstream.
//!
//! A supervisor thread owns the connection lifecycle: connect with
//! exponential backoff plus jitter, replay every tracked subscription, then
//! serve the session until EOF, error, or heartbeat timeout — and start
//! over. Replay is what makes a
//! mid-stream disconnect survivable: the server re-attaches the topics
//! and the app-server's maintenance-error machinery (paper §5.2) repairs
//! whatever was missed during the gap, leaning on the cluster's
//! write-stream retention (§5.1).

use crate::frame::{Decoder, Frame, TraceInfo};
use crate::queue::{spawn_writer, LinkSeries, SendQueue};
use invalidb_broker::{Broker, BrokerHandle, Bytes, EventLayer, Subscription};
use invalidb_common::trace::now_micros;
use invalidb_obs::{FlightEventKind, MetricsRegistry};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning for [`RemoteBroker`].
#[derive(Debug, Clone)]
pub struct RemoteBrokerConfig {
    /// Name of this client in metric names and flight-recorder events.
    /// Must be unique among the clients sharing one `metrics` registry:
    /// two clients of one name share their series, so a reconnect of
    /// either bumps both [`generation`](EventLayer::generation)s and sends
    /// both app servers through a needless repair.
    pub client_name: String,
    /// Outbound send-queue capacity in frames; a full queue sheds its
    /// oldest frame.
    pub queue_capacity: usize,
    /// How often to send heartbeats on an idle connection.
    pub heartbeat_interval: Duration,
    /// How long without *any* inbound frame before the connection is
    /// declared dead and torn down for reconnect.
    pub heartbeat_timeout: Duration,
    /// First reconnect delay; doubles per failed attempt.
    pub reconnect_base: Duration,
    /// Reconnect delay ceiling.
    pub reconnect_max: Duration,
    /// Seed for backoff jitter (deterministic tests).
    pub jitter_seed: u64,
    /// Registry the client reports into under `net.client.<client_name>.`:
    /// the link counters (`frames_in`, `frames_out`, `bytes_in`,
    /// `bytes_out`, `reconnects`, `decode_errors`, `dropped`) and the
    /// gauges `queue_depth`, `connected` and `heartbeat_stale_ms`;
    /// reconnects, disconnects and decode errors also land in the
    /// registry's flight recorder. Share one registry across components to
    /// get a single unified snapshot and health evaluation.
    pub metrics: MetricsRegistry,
}

impl Default for RemoteBrokerConfig {
    fn default() -> Self {
        RemoteBrokerConfig {
            client_name: "invalidb-client".into(),
            queue_capacity: 1024,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(2),
            reconnect_base: Duration::from_millis(50),
            reconnect_max: Duration::from_secs(2),
            jitter_seed: 0x1DB1,
            metrics: MetricsRegistry::new(),
        }
    }
}

/// How often blocked reads wake up to poll flags.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

struct Inner {
    addr: String,
    config: RemoteBrokerConfig,
    /// Local fan-out: incoming `Publish` frames are republished here.
    mirror: Broker,
    /// Topics the server should be forwarding; replayed on reconnect.
    topics: Mutex<HashSet<String>>,
    /// Outbound queue of the *current* session, if connected.
    session: Mutex<Option<SendQueue<Frame>>>,
    /// Socket clone of the current session, for shutdown.
    socket: Mutex<Option<TcpStream>>,
    connected: AtomicBool,
    /// Shared with each session's writer thread.
    running: Arc<AtomicBool>,
    seq: AtomicU64,
    /// Highest `Ack` sequence seen (observability for tests).
    acked: AtomicU64,
    /// Series under `net.client.<client_name>.`.
    link: LinkSeries,
    /// Wall-clock micros of the last inbound frame; survives sessions so
    /// heartbeat staleness keeps climbing while disconnected.
    last_rx_micros: AtomicU64,
    /// Gauge `net.client.<name>.heartbeat_stale_ms` in the shared registry.
    stale_gauge: Arc<AtomicU64>,
    /// Gauge `net.client.<name>.connected` (0/1) in the shared registry.
    connected_gauge: Arc<AtomicU64>,
}

impl Inner {
    /// Publishes the current heartbeat staleness to its gauge.
    fn refresh_staleness(&self) {
        let stale_us = now_micros().saturating_sub(self.last_rx_micros.load(Ordering::Relaxed));
        self.stale_gauge.store(stale_us / 1_000, Ordering::Relaxed);
    }
}

/// A connection-supervised broker client. Cloning shares the connection.
#[derive(Clone)]
pub struct RemoteBroker {
    inner: Arc<Inner>,
    /// Present only on the original handle; joined on explicit shutdown.
    supervisor: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl RemoteBroker {
    /// Starts a client for the broker server at `addr` (e.g.
    /// `"127.0.0.1:7473"`). Returns immediately; the supervisor connects
    /// (and keeps reconnecting) in the background.
    pub fn connect(addr: impl Into<String>, config: RemoteBrokerConfig) -> RemoteBroker {
        let link_name = format!("net.client.{}", config.client_name);
        let link = LinkSeries::resolve(&config.metrics, &link_name);
        let stale_gauge = config.metrics.gauge(&format!("{link_name}.heartbeat_stale_ms"));
        let connected_gauge = config.metrics.gauge(&format!("{link_name}.connected"));
        let inner = Arc::new(Inner {
            addr: addr.into(),
            config,
            mirror: Broker::new(),
            topics: Mutex::new(HashSet::new()),
            session: Mutex::new(None),
            socket: Mutex::new(None),
            connected: AtomicBool::new(false),
            running: Arc::new(AtomicBool::new(true)),
            seq: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            link,
            last_rx_micros: AtomicU64::new(now_micros()),
            stale_gauge,
            connected_gauge,
        });
        let sup_inner = Arc::clone(&inner);
        let supervisor = thread::Builder::new()
            .name("net-supervisor".into())
            .spawn(move || supervise(sup_inner))
            .expect("spawn supervisor thread");
        let broker = RemoteBroker { inner, supervisor: Arc::new(Mutex::new(Some(supervisor))) };
        broker.spawn_janitor();
        broker
    }

    /// Publishes an envelope to `topic` on the server. Returns 1 if the
    /// frame was enqueued for transmission, 0 if the client is currently
    /// disconnected (event-layer delivery is best-effort, like Redis
    /// pub/sub — see DESIGN.md §2).
    pub fn publish(&self, topic: &str, payload: Bytes) -> usize {
        let trace = sniff_trace(&payload);
        let frame = Frame::Publish { topic: topic.to_owned(), payload, trace };
        if self.enqueue(frame) {
            1
        } else {
            0
        }
    }

    /// Subscribes to `topic`. The returned [`Subscription`] behaves
    /// exactly like an in-process one; dropping it unsubscribes (the
    /// janitor propagates the `UNSUBSCRIBE` upstream once the local
    /// subscriber count reaches zero).
    pub fn subscribe(&self, topic: &str) -> Subscription {
        let subscription = self.inner.mirror.subscribe(topic);
        let newly_tracked = self.inner.topics.lock().insert(topic.to_owned());
        if newly_tracked {
            let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
            self.enqueue(Frame::Subscribe { seq, topic: topic.to_owned() });
        }
        subscription
    }

    /// Number of *local* subscriptions on `topic` (the server's global
    /// count is not visible from here).
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner.mirror.subscriber_count(topic)
    }

    /// Whether a session is currently established.
    pub fn is_connected(&self) -> bool {
        self.inner.connected.load(Ordering::SeqCst)
    }

    /// Highest `Ack` sequence number received from the server.
    pub fn last_acked(&self) -> u64 {
        self.inner.acked.load(Ordering::SeqCst)
    }

    /// Time since the last inbound frame from the server (any frame
    /// proves liveness — the server heartbeats idle connections). Keeps
    /// climbing across disconnects, so it is the health model's primary
    /// partition signal; also published continuously as the gauge
    /// `net.client.<client_name>.heartbeat_stale_ms`.
    pub fn heartbeat_staleness(&self) -> Duration {
        let last = self.inner.last_rx_micros.load(Ordering::Relaxed);
        Duration::from_micros(now_micros().saturating_sub(last))
    }

    /// Blocks until a session is established or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.is_connected() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        self.is_connected()
    }

    /// Drops the current connection without stopping the supervisor —
    /// it will reconnect and replay subscriptions. Test hook for
    /// mid-stream disconnects.
    pub fn kick(&self) {
        if let Some(sock) = self.inner.socket.lock().as_ref() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    /// Stops the supervisor, closes the connection, and joins all
    /// background threads. Idempotent.
    pub fn shutdown(&self) {
        self.inner.running.store(false, Ordering::SeqCst);
        if let Some(q) = self.inner.session.lock().as_ref() {
            q.close();
        }
        self.kick();
        if let Some(t) = self.supervisor.lock().take() {
            let _ = t.join();
        }
    }

    fn enqueue(&self, frame: Frame) -> bool {
        let session = self.inner.session.lock();
        match session.as_ref() {
            Some(q) => q.push(frame),
            None => false,
        }
    }

    /// Watches for topics whose local subscriber count dropped to zero
    /// and unsubscribes them upstream.
    fn spawn_janitor(&self) {
        let inner = Arc::clone(&self.inner);
        thread::Builder::new()
            .name("net-janitor".into())
            .spawn(move || {
                while inner.running.load(Ordering::SeqCst) {
                    thread::sleep(POLL_INTERVAL);
                    let stale: Vec<String> = {
                        let topics = inner.topics.lock();
                        topics
                            .iter()
                            .filter(|t| inner.mirror.subscriber_count(t) == 0)
                            .cloned()
                            .collect()
                    };
                    if stale.is_empty() {
                        continue;
                    }
                    let mut topics = inner.topics.lock();
                    let session = inner.session.lock();
                    for topic in stale {
                        // Re-check under the lock: a subscribe may have raced in.
                        if inner.mirror.subscriber_count(&topic) != 0 {
                            continue;
                        }
                        topics.remove(&topic);
                        if let Some(q) = session.as_ref() {
                            let seq = inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
                            q.push(Frame::Unsubscribe { seq, topic });
                        }
                    }
                }
            })
            .expect("spawn janitor thread");
    }
}

/// Detects an embedded [`TraceContext`](invalidb_common::TraceContext) in
/// an opaque envelope payload without decoding it
/// (`invalidb_json::bin::sniff_trace_id`). The resulting [`TraceInfo`]
/// sidecar travels in the frame header extension
/// ([`crate::frame::FLAG_TRACE`]) so the broker server can stamp the broker
/// hop without ever deserializing unsampled traffic.
fn sniff_trace(payload: &Bytes) -> Option<TraceInfo> {
    invalidb_json::bin::sniff_trace_id(payload)
        .map(|id| TraceInfo { trace_id: id as u64, sent_at_micros: now_micros() })
}

impl EventLayer for RemoteBroker {
    fn publish(&self, topic: &str, payload: Bytes) -> usize {
        RemoteBroker::publish(self, topic, payload)
    }

    fn subscribe(&self, topic: &str) -> Subscription {
        RemoteBroker::subscribe(self, topic)
    }

    fn subscriber_count(&self, topic: &str) -> usize {
        RemoteBroker::subscriber_count(self, topic)
    }

    fn generation(&self) -> u64 {
        // `reconnects` is 1 after the first connect and +1 per re-established
        // session, which is exactly the generation contract: a bump tells
        // publishers that frames enqueued against the previous session may
        // have died with it.
        self.inner.link.reconnects.load(Ordering::Relaxed)
    }
}

impl From<RemoteBroker> for BrokerHandle {
    fn from(remote: RemoteBroker) -> BrokerHandle {
        BrokerHandle::new(remote)
    }
}

impl std::fmt::Debug for RemoteBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBroker")
            .field("addr", &self.inner.addr)
            .field("connected", &self.is_connected())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Supervisor: connect → replay → serve → (backoff) → repeat
// ---------------------------------------------------------------------------

fn supervise(inner: Arc<Inner>) {
    let mut rng = StdRng::seed_from_u64(inner.config.jitter_seed);
    let mut backoff = inner.config.reconnect_base;
    let flight = inner.config.metrics.flight();
    let name = inner.config.client_name.clone();
    while inner.running.load(Ordering::SeqCst) {
        let stream = match TcpStream::connect(&inner.addr) {
            Ok(s) => s,
            Err(_) => {
                sleep_with_jitter(&inner, backoff, &mut rng);
                backoff = (backoff * 2).min(inner.config.reconnect_max);
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        backoff = inner.config.reconnect_base;
        inner.link.reconnects.fetch_add(1, Ordering::Relaxed);
        flight.record(FlightEventKind::Reconnect, format!("{name} -> {}", inner.addr));
        inner.connected_gauge.store(1, Ordering::Relaxed);
        run_session(&inner, stream);
        inner.connected.store(false, Ordering::SeqCst);
        inner.connected_gauge.store(0, Ordering::Relaxed);
        *inner.session.lock() = None;
        *inner.socket.lock() = None;
        if inner.running.load(Ordering::SeqCst) {
            flight.record(FlightEventKind::Disconnect, format!("{name} -> {}", inner.addr));
        }
    }
    inner.connected_gauge.store(0, Ordering::Relaxed);
}

/// Sleep for `backoff` scaled by a jitter factor in [0.5, 1.5), waking
/// early on shutdown. Keeps the staleness gauge fresh while disconnected
/// so the health model sees the partition widen in real time.
fn sleep_with_jitter(inner: &Inner, backoff: Duration, rng: &mut StdRng) {
    let jitter = 0.5 + rng.gen::<f64>();
    let mut remaining = backoff.mul_f64(jitter);
    while remaining > Duration::ZERO && inner.running.load(Ordering::SeqCst) {
        inner.refresh_staleness();
        let step = remaining.min(POLL_INTERVAL);
        thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

fn run_session(inner: &Arc<Inner>, stream: TcpStream) {
    let queue = inner.link.send_queue(
        inner.config.queue_capacity,
        inner.config.metrics.flight(),
        format!("client {} -> {}", inner.config.client_name, inner.addr),
    );

    // Replay every tracked topic before the queue is visible to
    // publishers, so replay frames go out first.
    {
        let topics = inner.topics.lock();
        for topic in topics.iter() {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
            queue.push(Frame::Subscribe { seq, topic: topic.clone() });
        }
    }
    if let Ok(clone) = stream.try_clone() {
        *inner.socket.lock() = Some(clone);
    }
    *inner.session.lock() = Some(queue.clone());
    inner.connected.store(true, Ordering::SeqCst);

    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = spawn_writer(
        "net-client-writer",
        writer_stream,
        queue.clone(),
        Arc::clone(&inner.link.frames_out),
        true,
        inner.config.heartbeat_interval,
        Arc::clone(&inner.running),
    );

    read_session(inner, stream, &queue);

    queue.close();
    let _ = writer.join();
}

fn read_session(inner: &Arc<Inner>, mut stream: TcpStream, queue: &SendQueue<Frame>) {
    let link = &inner.link;
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut last_rx = Instant::now();

    'outer: loop {
        if !inner.running.load(Ordering::SeqCst) || queue.is_closed() {
            break;
        }
        inner.refresh_staleness();
        if last_rx.elapsed() > inner.config.heartbeat_timeout {
            break; // dead peer: reconnect
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        last_rx = Instant::now();
        inner.last_rx_micros.store(now_micros(), Ordering::Relaxed);
        inner.refresh_staleness();
        decoder.feed(&buf[..n]);
        loop {
            let frame = match decoder.next() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    link.decode_errors.fetch_add(1, Ordering::Relaxed);
                    inner.config.metrics.flight().record(
                        FlightEventKind::DecodeError,
                        format!("{} <- {}", inner.config.client_name, inner.addr),
                    );
                    break 'outer;
                }
            };
            link.frames_in.fetch_add(1, Ordering::Relaxed);
            match frame {
                Frame::Publish { topic, payload, .. } => {
                    link.bytes_in.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    inner.mirror.publish(&topic, payload);
                }
                Frame::Ack { seq } => {
                    inner.acked.fetch_max(seq, Ordering::SeqCst);
                }
                Frame::Heartbeat { .. } => {}
                // Server-only requests; ignore if echoed at us. Cluster
                // membership frames travel on dedicated coordinator
                // connections, never through the broker client.
                Frame::Subscribe { .. }
                | Frame::Unsubscribe { .. }
                | Frame::JoinCluster { .. }
                | Frame::Assign { .. }
                | Frame::CellState { .. }
                | Frame::WorkerHeartbeat { .. }
                | Frame::MetricsReport { .. } => {}
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}
