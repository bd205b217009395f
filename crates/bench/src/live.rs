//! Live-cluster measurement harness.
//!
//! Mirrors the paper's methodology (§6.1): a preparation phase activates
//! the queries, then a measurement phase performs a steady number of writes
//! per second and records change-notification latency end to end — from
//! right before a write is issued until the notification is received.
//! Latency is carried *inside the written document* (a `ts` field with the
//! wall-clock microsecond timestamp), so the identical measurement works
//! for the standalone cluster, the Quaestor (app-server) deployment, and
//! both baseline providers.

use crate::workload::{range_query, Workload};
use invalidb_broker::{notify_topic, Broker, CLUSTER_TOPIC};
use invalidb_client::{AppServer, AppServerConfig, ClientEvent};
use invalidb_common::{
    AfterImage, ClusterMessage, Document, Histogram, Key, NotificationKind, NotifyEnvelope, QuerySpec,
    SubscriptionId, SubscriptionRequest, TenantId,
};
use invalidb_core::{Cluster, ClusterConfig};
use invalidb_store::Store;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const TENANT: &str = "bench";

/// Configuration of one live measurement run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Query partitions.
    pub qp: usize,
    /// Write partitions.
    pub wp: usize,
    /// Total active real-time queries.
    pub queries: usize,
    /// How many of the writes produce a notification.
    pub matching_writes: usize,
    /// Total writes this run.
    pub writes: usize,
    /// Target steady write rate.
    pub writes_per_sec: f64,
    /// Synthetic per-query match cost (emulates the paper's CPU throttling
    /// so saturation appears at laptop-scale workloads); `None` = raw speed.
    pub synthetic_match_cost: Option<Duration>,
    /// Route everything through an application server (§7, Quaestor mode).
    pub via_app_server: bool,
    /// Write-stream retention at the matching nodes.
    pub retention: Duration,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            qp: 1,
            wp: 1,
            queries: 100,
            matching_writes: 50,
            writes: 500,
            writes_per_sec: 500.0,
            synthetic_match_cost: None,
            via_app_server: false,
            retention: Duration::from_secs(2),
            seed: 0xBE7C,
        }
    }
}

/// Result of one live run.
#[derive(Debug)]
pub struct LiveRun {
    /// End-to-end notification latency (µs).
    pub latency_us: Histogram,
    /// Notifications received.
    pub notifications: u64,
    /// Notifications expected (matching writes issued).
    pub expected: u64,
    /// Writes actually issued.
    pub writes: u64,
    /// Achieved write rate.
    pub achieved_writes_per_sec: f64,
    /// Messages processed by the matching grid in total (subscriptions +
    /// after-images across all nodes).
    pub matching_processed: u64,
    /// Number of matching nodes in the grid.
    pub matching_nodes: usize,
}

impl LiveRun {
    /// Average messages processed per matching node — the per-node share of
    /// the workload, which the 2-D scheme shrinks as partitions are added.
    pub fn per_node_load(&self) -> f64 {
        self.matching_processed as f64 / self.matching_nodes.max(1) as f64
    }
}

impl LiveRun {
    /// p99 latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency_us.quantile(0.99) as f64 / 1_000.0
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.latency_us.mean() / 1_000.0
    }

    /// Delivery completeness in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            return 1.0;
        }
        self.notifications as f64 / self.expected as f64
    }
}

fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

fn latency_from_doc(doc: &Document) -> Option<u64> {
    let ts = doc.get("ts")?.as_i64()? as u64;
    Some(now_us().saturating_sub(ts))
}

/// Runs one live measurement. Also usable with a caller-provided broker
/// (e.g. one with chaos injection) via [`run_live_on`].
pub fn run_live(cfg: &LiveConfig) -> LiveRun {
    run_live_on(cfg, Broker::new())
}

/// [`run_live`] against a specific broker instance.
pub fn run_live_on(cfg: &LiveConfig, broker: Broker) -> LiveRun {
    let mut cluster_cfg = ClusterConfig::new(cfg.qp, cfg.wp);
    cluster_cfg.retention = cfg.retention;
    cluster_cfg.synthetic_match_cost = cfg.synthetic_match_cost;
    let cluster = Cluster::start(broker.clone(), cluster_cfg);
    let mut result =
        if cfg.via_app_server { run_via_app_server(cfg, &broker) } else { run_standalone(cfg, &broker) };
    result.matching_processed = cluster.topology_metrics().component("matching").snapshot().0;
    result.matching_nodes = cluster.grid().nodes();
    cluster.shutdown();
    result
}

/// Standalone deployment (§6): the benchmark client talks to the event
/// layer directly.
fn run_standalone(cfg: &LiveConfig, broker: &Broker) -> LiveRun {
    let mut workload = Workload::new(cfg.seed, cfg.matching_writes);
    let queries = workload.queries(cfg.queries);

    // Collector thread: measures notification latency from document `ts`.
    let notify = broker.subscribe(&notify_topic(TENANT));
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut hist = Histogram::new();
            let mut count = 0u64;
            while !stop.load(Ordering::Relaxed) || notify.queued() > 0 {
                let payload = match notify.recv_timeout(Duration::from_millis(20)) {
                    Some(p) => p,
                    None => continue,
                };
                let d = match invalidb_json::payload_to_document(&payload) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                // One latency sample per addressed subscription: heartbeats
                // are no envelope and fall out here.
                let Ok(envelope) = NotifyEnvelope::from_document(d) else { continue };
                for n in envelope.into_notifications() {
                    if let NotificationKind::Change(c) = &n.kind {
                        if let Some(lat) = c.item.doc.as_ref().and_then(latency_from_doc) {
                            hist.record(lat);
                            count += 1;
                        }
                    }
                }
            }
            (hist, count)
        })
    };

    // Preparation phase: activate all queries, then probe until the cluster
    // demonstrably matches (paper: queries added before measurement).
    for (i, spec) in queries.iter().enumerate() {
        publish(broker, &subscribe_msg(spec, i as u64 + 1));
    }
    probe_until_live(broker, &mut workload);

    // Measurement phase: steady writes; matching writes spread evenly.
    let interval = Duration::from_secs_f64(1.0 / cfg.writes_per_sec);
    let start = Instant::now();
    let mut issued = 0u64;
    let match_every = (cfg.writes / cfg.matching_writes.max(1)).max(1);
    let mut matched_issued = 0usize;
    for i in 0..cfg.writes {
        let target = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let is_match = i % match_every == 0 && matched_issued < cfg.matching_writes;
        let (key, mut doc) = if is_match {
            matched_issued += 1;
            workload.next_document()
        } else {
            let d = workload.document_with_random(2_000_000_000 + i as i64);
            (Key::of(format!("miss-{i}")), d)
        };
        doc.insert("ts", now_us() as i64);
        publish(
            broker,
            &ClusterMessage::Write(AfterImage {
                tenant: TenantId::new(TENANT),
                collection: Workload::collection().into(),
                key,
                version: 1,
                doc: Some(doc),
                written_at: now_us(),
                trace: None,
            }),
        );
        issued += 1;
    }
    let elapsed = start.elapsed();
    // Grace period for in-flight notifications.
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    let (hist, count) = collector.join().expect("collector");
    LiveRun {
        latency_us: hist,
        notifications: count,
        expected: matched_issued as u64,
        writes: issued,
        achieved_writes_per_sec: issued as f64 / elapsed.as_secs_f64().max(1e-9),
        matching_processed: 0,
        matching_nodes: 0,
    }
}

/// Quaestor deployment (§7): everything flows through one app server.
fn run_via_app_server(cfg: &LiveConfig, broker: &Broker) -> LiveRun {
    let store = Arc::new(Store::new());
    let app = AppServer::start(TENANT, Arc::clone(&store), broker.clone(), AppServerConfig::default());
    let mut workload = Workload::new(cfg.seed, cfg.matching_writes);
    let queries = workload.queries(cfg.queries);
    let mut subs = Vec::with_capacity(queries.len());
    for spec in &queries {
        subs.push(app.subscribe(spec).expect("subscribe"));
    }
    // Drain initial results.
    for sub in subs.iter_mut() {
        let _ = sub.events().timeout(Duration::from_secs(10)).next();
    }

    let interval = Duration::from_secs_f64(1.0 / cfg.writes_per_sec);
    let start = Instant::now();
    let mut issued = 0u64;
    let match_every = (cfg.writes / cfg.matching_writes.max(1)).max(1);
    let mut matched_issued = 0usize;
    let mut hist = Histogram::new();
    let mut count = 0u64;
    let drain =
        |subs: &mut Vec<invalidb_client::Subscription>, hist: &mut Histogram, count: &mut u64| {
            for sub in subs.iter_mut() {
                for ev in sub.events().non_blocking() {
                    if let ClientEvent::Change(c) = ev {
                        if let Some(lat) = c.item.doc.as_ref().and_then(latency_from_doc) {
                            hist.record(lat);
                            *count += 1;
                        }
                    }
                }
            }
        };
    for i in 0..cfg.writes {
        let target = start + interval.mul_f64(i as f64);
        while Instant::now() < target {
            drain(&mut subs, &mut hist, &mut count);
            std::thread::sleep(Duration::from_micros(200));
        }
        let is_match = i % match_every == 0 && matched_issued < cfg.matching_writes;
        let (key, mut doc) = if is_match {
            matched_issued += 1;
            workload.next_document()
        } else {
            let d = workload.document_with_random(2_000_000_000 + i as i64);
            (Key::of(format!("miss-{i}")), d)
        };
        doc.insert("ts", now_us() as i64);
        let _ = app.insert(Workload::collection(), key, doc);
        issued += 1;
    }
    let elapsed = start.elapsed();
    let deadline = Instant::now() + Duration::from_secs(2);
    while count < matched_issued as u64 && Instant::now() < deadline {
        drain(&mut subs, &mut hist, &mut count);
        std::thread::sleep(Duration::from_millis(5));
    }
    LiveRun {
        latency_us: hist,
        notifications: count,
        expected: matched_issued as u64,
        writes: issued,
        achieved_writes_per_sec: issued as f64 / elapsed.as_secs_f64().max(1e-9),
        matching_processed: 0,
        matching_nodes: 0,
    }
}

fn subscribe_msg(spec: &QuerySpec, sub: u64) -> ClusterMessage {
    ClusterMessage::Subscribe(SubscriptionRequest {
        tenant: TenantId::new(TENANT),
        subscription: SubscriptionId(sub),
        query_hash: spec.stable_hash(),
        spec: spec.clone(),
        initial: vec![],
        slack: 0,
        ttl_micros: 600_000_000,
        renewal: false,
    })
}

fn publish(broker: &Broker, msg: &ClusterMessage) {
    broker.publish(CLUSTER_TOPIC, invalidb_json::document_to_payload(&msg.to_document()));
}

/// Publishes probe writes against a dedicated probe query until a
/// notification round-trips, proving the subscription phase completed.
fn probe_until_live(broker: &Broker, _workload: &mut Workload) {
    let probe_spec = range_query(-1_000, -999);
    publish(broker, &subscribe_msg(&probe_spec, u64::MAX));
    let notify = broker.subscribe(&notify_topic(TENANT));
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probe_version = 1u64;
    loop {
        // No `ts` field: probe notifications must not enter the histogram.
        let mut doc = Document::new();
        doc.insert("random", -1_000i64);
        publish(
            broker,
            &ClusterMessage::Write(AfterImage {
                tenant: TenantId::new(TENANT),
                collection: Workload::collection().into(),
                key: Key::of("probe"),
                version: probe_version,
                doc: Some(doc),
                written_at: now_us(),
                trace: None,
            }),
        );
        probe_version += 1;
        let got = notify.recv_timeout(Duration::from_millis(200)).and_then(|p| {
            let d = invalidb_json::payload_to_document(&p).ok()?;
            NotifyEnvelope::from_document(d).ok()
        });
        if got.is_some_and(|envelope| envelope.subscriptions.contains(&SubscriptionId(u64::MAX))) {
            break;
        }
        if Instant::now() > deadline {
            break;
        }
    }
    // Remove the probe's effect: delete the probe record.
    publish(
        broker,
        &ClusterMessage::Write(AfterImage {
            tenant: TenantId::new(TENANT),
            collection: Workload::collection().into(),
            key: Key::of("probe"),
            version: probe_version,
            doc: None,
            written_at: now_us(),
            trace: None,
        }),
    );
    publish(
        broker,
        &ClusterMessage::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(u64::MAX),
            query_hash: probe_spec.stable_hash(),
        },
    );
    std::thread::sleep(Duration::from_millis(100));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_live_run_delivers_all_notifications() {
        let cfg = LiveConfig {
            queries: 50,
            matching_writes: 20,
            writes: 100,
            writes_per_sec: 1_000.0,
            ..LiveConfig::default()
        };
        let run = run_live(&cfg);
        assert_eq!(run.notifications, run.expected, "all matches notified");
        assert!(run.mean_ms() < 500.0);
        assert!(run.writes == 100);
    }

    #[test]
    fn app_server_live_run_works() {
        let cfg = LiveConfig {
            queries: 20,
            matching_writes: 10,
            writes: 50,
            writes_per_sec: 500.0,
            via_app_server: true,
            ..LiveConfig::default()
        };
        let run = run_live(&cfg);
        assert_eq!(run.notifications, run.expected);
    }
}
