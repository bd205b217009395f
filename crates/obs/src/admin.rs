//! The admin endpoint: a tiny HTTP/1.0 text server exposing a registry's
//! operational plane to scrapers and humans.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition 0.0.4 (see
//!   [`crate::to_prometheus`]); same numbers as the JSON renderer.
//! * `GET /metrics.json` — the [`MetricsSnapshot`] JSON document.
//! * `GET /healthz` — latest [`HealthReport`] as JSON; `200` while
//!   Healthy or Degraded, `503` when Unavailable.
//! * `GET /queries` — the slow-query log's top offenders as JSON.
//! * `GET /flight` — the flight-recorder dump as JSON.
//!
//! No external HTTP dependency: requests are parsed by hand (method +
//! path only) and responses always close the connection, which is all a
//! Prometheus scraper or `curl` needs. The accept/shutdown discipline
//! mirrors `invalidb-net`'s `BrokerServer`: a non-blocking listener
//! polled every 50 ms against a shared `running` flag, live connections
//! tracked for teardown.
//!
//! A background evaluator thread feeds snapshots to a [`HealthMonitor`]
//! on a fixed cadence, so health transitions (and their flight-recorder
//! events) happen even when nobody is scraping.

use crate::health::{HealthMonitor, HealthPolicy, HealthReport, HealthStatus};
use crate::prom::to_prometheus;
use crate::registry::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often blocked reads/accepts wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How many slow-query entries `/queries` returns.
const SLOW_QUERY_TOP_K: usize = 32;

/// A custom route handler: returns `(status, content type, body)`.
pub type AdminRoute = Arc<dyn Fn() -> (u16, &'static str, String) + Send + Sync>;

/// Tuning for [`AdminServer`].
#[derive(Clone)]
pub struct AdminConfig {
    /// Thresholds for the health state machine.
    pub health: HealthPolicy,
    /// Cadence of the background health evaluator.
    pub eval_interval: Duration,
    /// Extra routes, consulted *before* the built-ins — a host can add
    /// endpoints (the coordinator's `/cluster`) or shadow a built-in (its
    /// federated `/metrics`). Exact-path match, GET only.
    pub routes: Vec<(String, AdminRoute)>,
}

impl AdminConfig {
    /// Adds (or shadows) a route at `path`.
    pub fn with_route(
        mut self,
        path: impl Into<String>,
        handler: impl Fn() -> (u16, &'static str, String) + Send + Sync + 'static,
    ) -> AdminConfig {
        self.routes.push((path.into(), Arc::new(handler)));
        self
    }
}

impl Default for AdminConfig {
    fn default() -> AdminConfig {
        AdminConfig {
            health: HealthPolicy::default(),
            eval_interval: Duration::from_millis(250),
            routes: Vec::new(),
        }
    }
}

impl std::fmt::Debug for AdminConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminConfig")
            .field("health", &self.health)
            .field("eval_interval", &self.eval_interval)
            .field("routes", &self.routes.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>())
            .finish()
    }
}

struct Shared {
    registry: MetricsRegistry,
    config: AdminConfig,
    monitor: Mutex<HealthMonitor>,
    latest: Mutex<HealthReport>,
    running: Arc<AtomicBool>,
    /// Live connection sockets keyed by a per-connection token, for
    /// shutdown(). Admin connections are one-per-request, so each handler
    /// removes its own entry when it finishes — otherwise every scrape
    /// would leak one fd for the life of the server.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// The admin HTTP server. Binds a listener, spawns an accept thread and
/// a health-evaluator thread; [`AdminServer::shutdown`] (or drop) stops
/// both and closes every live connection.
pub struct AdminServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    eval_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` and starts serving `registry`'s operational plane.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: MetricsRegistry,
        config: AdminConfig,
    ) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let monitor = HealthMonitor::new(config.health.clone());
        let shared = Arc::new(Shared {
            registry,
            config,
            monitor: Mutex::new(monitor),
            latest: Mutex::new(HealthReport::default()),
            running: Arc::new(AtomicBool::new(true)),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("admin-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn admin accept thread");

        let eval_shared = Arc::clone(&shared);
        let eval_thread = thread::Builder::new()
            .name("admin-health".into())
            .spawn(move || eval_loop(eval_shared))
            .expect("spawn admin health thread");

        Ok(AdminServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            eval_thread: Some(eval_thread),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The registry this server exposes (a shared handle).
    pub fn registry(&self) -> MetricsRegistry {
        self.shared.registry.clone()
    }

    /// The most recent health report computed by the evaluator thread.
    pub fn health(&self) -> HealthReport {
        self.shared.latest.lock().clone()
    }

    /// The flight-recorder dump frozen when the cluster last transitioned
    /// to Unavailable, if it ever did.
    pub fn last_incident(&self) -> Option<Vec<crate::flight::FlightEvent>> {
        self.shared.monitor.lock().last_incident().map(|e| e.to_vec())
    }

    /// Stops accepting, closes every connection, and joins both
    /// background threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.eval_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AdminServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminServer").field("local_addr", &self.local_addr).finish()
    }
}

fn eval_loop(shared: Arc<Shared>) {
    while shared.running.load(Ordering::SeqCst) {
        let snap = shared.registry.snapshot();
        let report = {
            let mut monitor = shared.monitor.lock();
            monitor.observe(&snap, &shared.registry.flight())
        };
        shared.registry.set_gauge("health.status", report.status.as_gauge());
        *shared.latest.lock() = report;
        // Sleep in poll-sized steps so shutdown never waits a full
        // evaluation interval.
        let mut remaining = shared.config.eval_interval;
        while shared.running.load(Ordering::SeqCst) && remaining > Duration::ZERO {
            let step = remaining.min(POLL_INTERVAL);
            thread::sleep(step);
            remaining = remaining.saturating_sub(step);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    listener.set_nonblocking(true).expect("set_nonblocking");
    while shared.running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().insert(id, clone);
                }
                let conn_shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("admin-conn-{peer}"))
                    .spawn(move || {
                        serve_connection(stream, &conn_shared);
                        conn_shared.conns.lock().remove(&id);
                    })
                    .expect("spawn admin connection thread");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let request = match read_request_head(&mut stream) {
        Some(r) => r,
        None => return,
    };
    let (status, content_type, body) = match route(&request, shared) {
        Some(r) => r,
        None => (404, "text/plain; charset=utf-8", "not found\n".to_owned()),
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads until the end of the request head and returns the request line
/// (`GET /path HTTP/1.x`). Bodies are ignored — every route is a GET.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 16 * 1024 {
            return None; // refuse absurd request heads
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines().next().map(|l| l.to_owned())
}

/// Dispatches a request line to its handler. Returns
/// `(status, content type, body)`; `None` is a 404.
fn route(request_line: &str, shared: &Shared) -> Option<(u16, &'static str, String)> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return Some((404, "text/plain; charset=utf-8", "only GET is supported\n".to_owned()));
    }
    let path = path.split('?').next().unwrap_or(path);
    if let Some((_, handler)) = shared.config.routes.iter().find(|(p, _)| p == path) {
        return Some(handler());
    }
    match path {
        "/metrics" => {
            let snap = shared.registry.snapshot();
            Some((200, "text/plain; version=0.0.4; charset=utf-8", to_prometheus(&snap)))
        }
        "/metrics.json" => {
            let snap = shared.registry.snapshot();
            Some((200, "application/json", snap.to_json()))
        }
        "/healthz" => {
            let report = shared.latest.lock().clone();
            let status = if report.status == HealthStatus::Unavailable { 503 } else { 200 };
            Some((status, "application/json", report.to_json()))
        }
        "/queries" => {
            let top = shared.registry.slow_queries().top_json(SLOW_QUERY_TOP_K);
            Some((200, "application/json", top))
        }
        "/flight" => Some((200, "application/json", shared.registry.flight().dump_json())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightEventKind;
    use crate::prom::from_prometheus;
    use crate::snapshot::MetricsSnapshot;

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_health_queries_and_flight() {
        let registry = MetricsRegistry::new();
        registry.inc("writes");
        registry.record("lat", 120);
        registry.flight().record(FlightEventKind::Reconnect, "peer a");
        let group = registry.slow_queries().register(invalidb_common::TenantId::new("t"), 7, "q".into());
        group.count(true);
        let mut admin =
            AdminServer::bind("127.0.0.1:0", registry.clone(), AdminConfig::default()).unwrap();
        let addr = admin.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let scraped = from_prometheus(&body).unwrap();
        assert_eq!(scraped.counters["writes"], 1);
        assert_eq!(scraped.hists["lat"].count, 1);

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\""));

        let (status, body) = get(addr, "/queries");
        assert_eq!(status, 200);
        assert!(body.contains("\"query_hash\":7"));
        assert!(body.contains("\"evals\":1,\"changes\":1"), "{body}");
        assert!(!body.contains("total_us"), "{body}");

        let (status, body) = get(addr, "/flight");
        assert_eq!(status, 200);
        assert!(body.contains("\"kind\":\"reconnect\""));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        admin.shutdown();
        assert!(TcpStream::connect(addr).is_err() || get_fails_fast(addr));
    }

    fn get_fails_fast(addr: std::net::SocketAddr) -> bool {
        // After shutdown the listener is gone; a connect may still succeed
        // briefly on some platforms (backlog), but reads must fail/EOF.
        match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_millis(200))).ok();
                let mut buf = [0u8; 1];
                !matches!(s.read(&mut buf), Ok(n) if n > 0)
            }
        }
    }

    #[test]
    fn finished_connections_are_pruned() {
        let registry = MetricsRegistry::new();
        let mut admin =
            AdminServer::bind("127.0.0.1:0", registry.clone(), AdminConfig::default()).unwrap();
        let addr = admin.local_addr();
        for _ in 0..8 {
            let (status, _) = get(addr, "/healthz");
            assert_eq!(status, 200);
        }
        // Each handler drops its tracking entry after responding; give the
        // handler threads a moment to finish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !admin.shared.conns.lock().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "connection handles leaked: {} still tracked",
                admin.shared.conns.lock().len()
            );
            thread::sleep(Duration::from_millis(10));
        }
        admin.shutdown();
    }

    #[test]
    fn custom_routes_extend_and_shadow_builtins() {
        let registry = MetricsRegistry::new();
        registry.inc("own.counter");
        let config = AdminConfig::default()
            .with_route("/cluster", || (200, "application/json", "{\"workers\":[]}".to_owned()))
            .with_route("/metrics", || (200, "text/plain; charset=utf-8", "shadowed\n".to_owned()));
        let mut admin = AdminServer::bind("127.0.0.1:0", registry, config).unwrap();
        let addr = admin.local_addr();
        let (status, body) = get(addr, "/cluster");
        assert_eq!(status, 200);
        assert!(body.contains("\"workers\""));
        let (_, body) = get(addr, "/metrics");
        assert_eq!(body, "shadowed\n", "custom route takes precedence over the built-in");
        // Untouched built-ins still serve.
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        admin.shutdown();
    }

    #[test]
    fn metrics_json_equals_prometheus_numbers() {
        let registry = MetricsRegistry::new();
        registry.add("a.b", 42);
        registry.set_gauge("c.d", 9);
        registry.record("stage.matching", 77);
        let mut admin =
            AdminServer::bind("127.0.0.1:0", registry.clone(), AdminConfig::default()).unwrap();
        let addr = admin.local_addr();
        // Wait for the evaluator's first pass so the health.status gauge
        // exists and the registry is quiescent for the comparison.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !registry.snapshot().gauges.contains_key("health.status") {
            assert!(std::time::Instant::now() < deadline, "evaluator never ran");
            thread::sleep(Duration::from_millis(10));
        }
        // Scrape twice around the JSON fetch; equal first/last proves the
        // registry was quiescent, so comparing across requests is sound.
        let (_, prom1) = get(addr, "/metrics");
        let (_, json) = get(addr, "/metrics.json");
        let (_, prom2) = get(addr, "/metrics");
        assert_eq!(prom1, prom2, "registry changed mid-test");
        let via_prom = from_prometheus(&prom1).unwrap();
        let via_json = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(via_prom, via_json);
        admin.shutdown();
    }

    #[test]
    fn unavailable_returns_503() {
        let registry = MetricsRegistry::new();
        registry.set_gauge("net.client.heartbeat_stale_ms", 60_000);
        let config = AdminConfig { eval_interval: Duration::from_millis(20), ..AdminConfig::default() };
        let mut admin = AdminServer::bind("127.0.0.1:0", registry.clone(), config).unwrap();
        let addr = admin.local_addr();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (status, body) = get(addr, "/healthz");
            if status == 503 {
                assert!(body.contains("\"kind\":\"heartbeat_stale\""));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never became unavailable");
            thread::sleep(Duration::from_millis(20));
        }
        // The incident dump was frozen and contains the transition.
        let incident = admin.last_incident().expect("incident recorded");
        assert!(incident.iter().any(|e| e.kind == FlightEventKind::HealthTransition));
        // Heal: staleness drops, status returns to healthy (200).
        registry.set_gauge("net.client.heartbeat_stale_ms", 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (status, _) = get(addr, "/healthz");
            if status == 200 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never healed");
            thread::sleep(Duration::from_millis(20));
        }
        admin.shutdown();
    }
}
