//! `BrokerServer`: the in-process broker's topic API, served over TCP.
//!
//! One accept thread; per connection a *reader* thread (decodes frames,
//! executes SUBSCRIBE/UNSUBSCRIBE/PUBLISH against the backing
//! [`BrokerHandle`]) and a *writer* thread (drains the connection's
//! bounded [`SendQueue`], interleaving heartbeats). Each subscribed topic
//! gets a *pump* thread bridging the broker
//! [`Subscription`](invalidb_broker::Subscription) into the
//! send queue as `Publish` frames — so a slow connection backs up only
//! its own queue, where the [`OverflowPolicy`] decides between shedding
//! frames and disconnecting.

use crate::frame::{Decoder, Frame, TraceInfo};
use crate::queue::{Closed, OverflowPolicy, SendQueue};
use invalidb_broker::{BrokerHandle, Bytes};
use invalidb_common::trace::{now_micros, Stage, TraceContext};
use invalidb_common::Value;
use invalidb_json::WireCodec;
use invalidb_obs::{
    AdminConfig, AdminServer, FlightEventKind, LinkMetrics, LinkRegistry, MetricsRegistry,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for [`BrokerServer`].
#[derive(Debug, Clone)]
pub struct BrokerServerConfig {
    /// Per-connection send-queue capacity in frames.
    pub queue_capacity: usize,
    /// What to do when a connection's send queue overflows.
    pub overflow_policy: OverflowPolicy,
    /// How often the server sends heartbeat frames on an idle connection.
    pub heartbeat_interval: Duration,
    /// Registry the server reports into: traced-publish counters, the
    /// client→broker hop histogram (`net.broker_hop_us`), per-connection
    /// link metrics (attached as `net.server.<peer>.*`), and flight-
    /// recorder events (connects, drops, decode errors, subscription
    /// churn). Share one registry across components to get a single
    /// unified snapshot.
    pub metrics: MetricsRegistry,
    /// When set, the server hosts an [`AdminServer`] on this address
    /// (e.g. `"127.0.0.1:9464"`), exposing `metrics` via `/metrics`,
    /// `/healthz`, `/queries`, and `/flight`.
    pub admin_addr: Option<String>,
    /// Upper bound on how many queued frames the writer thread coalesces
    /// into one `write_all` syscall.
    pub max_write_batch: usize,
}

impl Default for BrokerServerConfig {
    fn default() -> Self {
        BrokerServerConfig {
            queue_capacity: 1024,
            overflow_policy: OverflowPolicy::DropOldest,
            heartbeat_interval: Duration::from_millis(500),
            metrics: MetricsRegistry::new(),
            admin_addr: None,
            max_write_batch: 64,
        }
    }
}

/// How often blocked reads/accepts wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

struct Shared {
    broker: BrokerHandle,
    config: BrokerServerConfig,
    links: Arc<LinkRegistry>,
    running: Arc<AtomicBool>,
    /// Clones of live connection sockets keyed by a per-connection token,
    /// for shutdown(). Each connection thread removes its own entry when
    /// it exits, so churned connections don't leak fds here.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A TCP server exposing a broker's publish/subscribe surface.
pub struct BrokerServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    admin: Option<AdminServer>,
}

impl BrokerServer {
    /// Binds `addr` and starts serving `broker`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        broker: impl Into<BrokerHandle>,
        config: BrokerServerConfig,
    ) -> io::Result<BrokerServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let links = Arc::new(LinkRegistry::default());
        // Per-connection link metrics become part of every registry
        // snapshot (`net.server.<peer>.*`), feeding the health model's
        // queue-depth and drop signals.
        config.metrics.attach_links("net.server", Arc::clone(&links));
        // Optional admin plane. Like Cluster and AppServer, a failed admin
        // bind does not abort the broker (serving the event layer is the
        // product; the admin endpoint is a window into it) but is recorded
        // so it cannot go unnoticed.
        let admin = config.admin_addr.as_deref().and_then(|addr| {
            match AdminServer::bind(addr, config.metrics.clone(), AdminConfig::default()) {
                Ok(server) => Some(server),
                Err(_) => {
                    config.metrics.inc("admin.bind_errors");
                    None
                }
            }
        });
        let shared = Arc::new(Shared {
            broker: broker.into(),
            config,
            links,
            running: Arc::new(AtomicBool::new(true)),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(BrokerServer { shared, local_addr, accept_thread: Some(accept_thread), admin })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Per-connection link metrics, keyed by peer address.
    pub fn links(&self) -> Arc<LinkRegistry> {
        Arc::clone(&self.shared.links)
    }

    /// The metrics registry this server reports into (a shared handle).
    pub fn registry(&self) -> MetricsRegistry {
        self.shared.config.metrics.clone()
    }

    /// The admin endpoint's address, when one was configured via
    /// [`BrokerServerConfig::admin_addr`]. `None` when no address was
    /// configured or the bind failed (counted as `admin.bind_errors`).
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// Stops accepting, closes every connection, and joins the accept
    /// thread (and the admin endpoint, if hosted). Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(mut admin) = self.admin.take() {
            admin.shutdown();
        }
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Non-blocking accept + sleep keeps shutdown simple and portable: the
    // loop notices `running == false` within one poll interval.
    listener.set_nonblocking(true).expect("set_nonblocking");
    while shared.running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nodelay(true).ok();
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().insert(id, clone);
                }
                let conn_shared = Arc::clone(&shared);
                let name = format!("net-conn-{peer}");
                thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        serve_connection(stream, peer, &conn_shared);
                        conn_shared.conns.lock().remove(&id);
                    })
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn serve_connection(stream: TcpStream, peer: std::net::SocketAddr, shared: &Arc<Shared>) {
    let metrics = shared.links.link(&peer.to_string());
    let flight = shared.config.metrics.flight();
    let queue = SendQueue::with_recorder(
        shared.config.queue_capacity,
        shared.config.overflow_policy,
        Arc::clone(&metrics),
        Some((flight.clone(), format!("server conn {peer}"))),
    );
    metrics.reconnects.fetch_add(1, Ordering::Relaxed);
    flight.record(FlightEventKind::Reconnect, format!("server accepted {peer}"));

    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = spawn_writer(
        writer_stream,
        queue.clone(),
        Arc::clone(&metrics),
        shared.config.heartbeat_interval,
        shared.config.max_write_batch.max(1),
        Arc::clone(&shared.running),
    );

    read_loop(stream, peer, &queue, &metrics, shared);

    // Reader is done (EOF, error, or shutdown): close the queue so the
    // writer drains and exits, then reap it. Pump threads notice the
    // closed queue on their next delivery and exit on their own.
    queue.close();
    let _ = writer.join();
    if shared.running.load(Ordering::SeqCst) {
        flight.record(FlightEventKind::Disconnect, format!("server lost {peer}"));
    }
    // Peer addresses are ephemeral; keeping dead links would grow every
    // snapshot forever.
    shared.links.forget(&peer.to_string());
}

fn read_loop(
    mut stream: TcpStream,
    peer: std::net::SocketAddr,
    queue: &SendQueue<Frame>,
    metrics: &Arc<LinkMetrics>,
    shared: &Arc<Shared>,
) {
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    // Per-topic stop flags for this connection's pump threads.
    let mut pumps: HashMap<String, Arc<AtomicBool>> = HashMap::new();

    'outer: loop {
        if !shared.running.load(Ordering::SeqCst) || queue.is_closed() {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        decoder.feed(&buf[..n]);
        loop {
            let frame = match decoder.next() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                    shared
                        .config
                        .metrics
                        .flight()
                        .record(FlightEventKind::DecodeError, format!("server <- {peer}"));
                    break 'outer; // corrupt stream: drop the connection
                }
            };
            metrics.frames_in.fetch_add(1, Ordering::Relaxed);
            match frame {
                Frame::Subscribe { seq, topic } => {
                    pumps.entry(topic.clone()).or_insert_with(|| {
                        shared
                            .config
                            .metrics
                            .flight()
                            .record(FlightEventKind::Subscribe, format!("{peer} {topic}"));
                        spawn_pump(&topic, queue.clone(), metrics, shared)
                    });
                    send(queue, Frame::Ack { seq });
                }
                Frame::Unsubscribe { seq, topic } => {
                    if let Some(stop) = pumps.remove(&topic) {
                        stop.store(true, Ordering::SeqCst);
                        shared
                            .config
                            .metrics
                            .flight()
                            .record(FlightEventKind::Unsubscribe, format!("{peer} {topic}"));
                    }
                    send(queue, Frame::Ack { seq });
                }
                Frame::Publish { topic, payload, trace } => {
                    metrics.bytes_in.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    let payload = match trace {
                        Some(info) => stamp_broker(payload, info, &shared.config.metrics),
                        None => payload,
                    };
                    shared.broker.publish(&topic, payload);
                }
                Frame::Heartbeat { nonce } => {
                    send(queue, Frame::Heartbeat { nonce });
                }
                // Cluster membership frames belong to the coordinator
                // protocol; a broker server ignores them so legacy topologies
                // keep working when a cluster-capable peer dials in.
                Frame::Ack { .. }
                | Frame::JoinCluster { .. }
                | Frame::Assign { .. }
                | Frame::CellState { .. }
                | Frame::WorkerHeartbeat { .. }
                | Frame::MetricsReport { .. } => {}
            }
        }
    }

    for stop in pumps.values() {
        stop.store(true, Ordering::SeqCst);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Bridges one broker subscription into the connection's send queue.
fn spawn_pump(
    topic: &str,
    queue: SendQueue<Frame>,
    metrics: &Arc<LinkMetrics>,
    shared: &Arc<Shared>,
) -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    let pump_stop = Arc::clone(&stop);
    let metrics = Arc::clone(metrics);
    let subscription = shared.broker.subscribe(topic);
    let topic = topic.to_owned();
    let running = Arc::clone(&shared.running);
    thread::Builder::new()
        .name(format!("net-pump-{topic}"))
        .spawn(move || {
            while running.load(Ordering::SeqCst) && !pump_stop.load(Ordering::SeqCst) {
                let payload = match subscription.recv_timeout(POLL_INTERVAL) {
                    Some(p) => p,
                    None => {
                        if queue.is_closed() {
                            break;
                        }
                        continue;
                    }
                };
                metrics.bytes_out.fetch_add(payload.len() as u64, Ordering::Relaxed);
                // Delivery-side stamping happens at the app server's
                // dispatcher; the outbound hop carries no sidecar.
                let frame = Frame::Publish { topic: topic.clone(), payload, trace: None };
                if !queue.push(frame) {
                    break; // queue closed (disconnect policy or teardown)
                }
                metrics.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            // Dropping `subscription` unsubscribes from the broker.
        })
        .expect("spawn pump thread");
    stop
}

fn send(queue: &SendQueue<Frame>, frame: Frame) {
    queue.push(frame);
}

/// Stamps [`Stage::Broker`] into a traced envelope and records the
/// client→server hop latency. The [`TraceInfo`] sidecar (frame-header
/// extension, see [`crate::frame::FLAG_TRACE`]) is what lets the server
/// touch *only* sampled envelopes: unflagged publishes stay opaque bytes.
/// Any parse failure passes the payload through unchanged — observability
/// must never drop traffic.
fn stamp_broker(payload: Bytes, info: TraceInfo, registry: &MetricsRegistry) -> Bytes {
    registry.inc("net.traced_publishes");
    // `sent_at_micros` came from the *sender's* clock; on another host the
    // difference to our clock is latency plus skew. A negative or absurd
    // delta is skew, not a hop measurement — count it instead of feeding
    // garbage into the hop histogram.
    let hop = now_micros() as i64 - info.sent_at_micros as i64;
    if hop >= 0 && (hop as u64) <= invalidb_common::MAX_PLAUSIBLE_HOP_MICROS {
        registry.record("net.broker_hop_us", hop as u64);
    } else {
        registry.inc("trace.skew_clamped");
    }
    let mut doc = match invalidb_json::payload_to_document(&payload) {
        Ok(d) => d,
        Err(_) => return payload,
    };
    let mut trace = match doc.get("trace").and_then(Value::as_object).map(TraceContext::from_document) {
        Some(Ok(t)) if t.trace_id == info.trace_id => t,
        _ => return payload, // sniff mismatch or malformed trace
    };
    trace.stamp(Stage::Broker);
    doc.insert("trace", trace.to_document());
    WireCodec.encode(&doc)
}

fn spawn_writer(
    mut stream: TcpStream,
    queue: SendQueue<Frame>,
    metrics: Arc<LinkMetrics>,
    heartbeat_interval: Duration,
    max_batch: usize,
    running: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name("net-writer".into())
        .spawn(move || {
            // Heartbeats are identical every beat: encode once per
            // connection instead of once per beat.
            let heartbeat = Frame::Heartbeat { nonce: 0 }.encode();
            let mut batch: Vec<Frame> = Vec::with_capacity(max_batch);
            let mut scratch: Vec<u8> = Vec::with_capacity(16 * 1024);
            loop {
                if !running.load(Ordering::SeqCst) {
                    break;
                }
                match queue.pop_batch(&mut batch, max_batch, heartbeat_interval) {
                    Ok(0) => {
                        // Idle: prove liveness to the peer.
                        if stream.write_all(&heartbeat).is_err() {
                            queue.close();
                            break;
                        }
                        metrics.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {
                        scratch.clear();
                        for frame in batch.drain(..) {
                            frame.encode_into(&mut scratch);
                        }
                        if stream.write_all(&scratch).is_err() {
                            queue.close();
                            break;
                        }
                    }
                    Err(Closed) => break,
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
        })
        .expect("spawn writer thread")
}
