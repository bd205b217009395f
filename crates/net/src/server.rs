//! `BrokerServer`: the in-process broker's topic API, served over TCP.
//!
//! One accept thread; per connection a *reader* thread (decodes frames,
//! executes SUBSCRIBE/UNSUBSCRIBE/PUBLISH against the backing
//! [`BrokerHandle`]) and a *writer* thread (drains the connection's
//! bounded [`SendQueue`], interleaving heartbeats). Each subscribed topic
//! gets a *pump* thread bridging the broker
//! [`Subscription`](invalidb_broker::Subscription) into the
//! send queue as `Publish` frames — so a slow connection backs up only
//! its own queue, which sheds its oldest frames when full.
//!
//! A connection reports under `net.server.<peer>.`; those series are
//! removed from the registry when the connection closes, since peer
//! addresses are ephemeral.

use crate::frame::{Decoder, Frame, FrameRef, TraceInfo};
use crate::queue::{spawn_writer, LinkSeries, Outbound, SendQueue};
use invalidb_broker::{BrokerHandle, Bytes};
use invalidb_common::trace::{now_micros, Stage, TraceContext};
use invalidb_common::Value;
use invalidb_json::WireCodec;
use invalidb_obs::{AdminConfig, AdminServer, FlightEventKind, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for [`BrokerServer`].
#[derive(Debug, Clone)]
pub struct BrokerServerConfig {
    /// Per-connection send-queue capacity in frames; a full queue sheds
    /// its oldest frame.
    pub queue_capacity: usize,
    /// How often the server sends heartbeat frames on an idle connection.
    pub heartbeat_interval: Duration,
    /// Registry the server reports into: traced-publish counters, the
    /// client→broker hop histogram (`net.broker_hop_us`), per-connection
    /// link series (`net.server.<peer>.*`, removed on disconnect), and flight-
    /// recorder events (connects, drops, decode errors, subscription
    /// churn). Share one registry across components to get a single
    /// unified snapshot.
    pub metrics: MetricsRegistry,
    /// When set, the server hosts an [`AdminServer`] on this address
    /// (e.g. `"127.0.0.1:9464"`), exposing `metrics` via `/metrics`,
    /// `/healthz`, `/queries`, and `/flight`.
    pub admin_addr: Option<String>,
}

impl Default for BrokerServerConfig {
    fn default() -> Self {
        BrokerServerConfig {
            queue_capacity: 1024,
            heartbeat_interval: Duration::from_millis(500),
            metrics: MetricsRegistry::new(),
            admin_addr: None,
        }
    }
}

/// How often blocked reads/accepts wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

struct Shared {
    broker: BrokerHandle,
    config: BrokerServerConfig,
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
    let Ok(writer_stream) = stream.try_clone() else { return };
    let registry = &shared.config.metrics;
    let name = format!("net.server.{peer}");
    let link = Arc::new(LinkSeries::resolve(registry, &name));
    let flight = registry.flight();
    let queue =
        link.send_queue(shared.config.queue_capacity, flight.clone(), format!("server conn {peer}"));
    link.reconnects.fetch_add(1, Ordering::Relaxed);
    flight.record(FlightEventKind::Reconnect, format!("server accepted {peer}"));

    let writer = spawn_writer(
        "net-writer",
        writer_stream,
        queue.clone(),
        Arc::clone(&link.frames_out),
        false,
        shared.config.heartbeat_interval,
        Arc::clone(&shared.running),
    );

    read_loop(stream, peer, &queue, &link, shared);

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
    registry.remove_prefix(&format!("{name}."));
}

fn read_loop(
    mut stream: TcpStream,
    peer: std::net::SocketAddr,
    queue: &SendQueue<Outbound>,
    link: &Arc<LinkSeries>,
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
            let frame = match decoder.next_ref() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    link.decode_errors.fetch_add(1, Ordering::Relaxed);
                    shared
                        .config
                        .metrics
                        .flight()
                        .record(FlightEventKind::DecodeError, format!("server <- {peer}"));
                    break 'outer; // corrupt stream: drop the connection
                }
            };
            link.frames_in.fetch_add(1, Ordering::Relaxed);
            match frame {
                FrameRef::Publish { topic, payload, trace } => {
                    link.bytes_in.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    let payload = Bytes::copy_from_slice(payload);
                    let payload = match trace {
                        Some(info) => stamp_broker(payload, info, &shared.config.metrics),
                        None => payload,
                    };
                    shared.broker.publish(topic, payload);
                }
                FrameRef::Other(Frame::Subscribe { seq, topic }) => {
                    pumps.entry(topic.clone()).or_insert_with(|| {
                        shared
                            .config
                            .metrics
                            .flight()
                            .record(FlightEventKind::Subscribe, format!("{peer} {topic}"));
                        spawn_pump(&topic, queue.clone(), link, shared)
                    });
                    send(queue, Frame::Ack { seq });
                }
                FrameRef::Other(Frame::Unsubscribe { seq, topic }) => {
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
                FrameRef::Other(Frame::Heartbeat { nonce }) => {
                    send(queue, Frame::Heartbeat { nonce });
                }
                // Cluster membership frames belong to the coordinator
                // protocol; a broker server ignores them so legacy topologies
                // keep working when a cluster-capable peer dials in.
                FrameRef::Other(_) => {}
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
    queue: SendQueue<Outbound>,
    link: &Arc<LinkSeries>,
    shared: &Arc<Shared>,
) -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    let pump_stop = Arc::clone(&stop);
    let link = Arc::clone(link);
    let subscription = shared.broker.subscribe(topic);
    let topic: Arc<str> = topic.into();
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
                link.bytes_out.fetch_add(payload.len() as u64, Ordering::Relaxed);
                // Delivery-side stamping happens at the app server's
                // dispatcher; the outbound hop carries no sidecar.
                let frame = Outbound::Publish { topic: Arc::clone(&topic), payload, trace: None };
                if !queue.push(frame) {
                    break; // queue closed: the connection is going away
                }
                link.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            // Dropping `subscription` unsubscribes from the broker.
        })
        .expect("spawn pump thread");
    stop
}

fn send(queue: &SendQueue<Outbound>, frame: Frame) {
    queue.push(Outbound::Control(frame));
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
