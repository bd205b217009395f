//! The unified metrics registry.

use crate::flight::FlightRecorder;
use crate::slow::SlowQueryLog;
use crate::snapshot::{HistogramSummary, MetricsSnapshot};
use invalidb_common::trace::now_micros;
use invalidb_common::{Histogram, TraceContext, MAX_PLAUSIBLE_HOP_MICROS};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prefix for per-stage latency histograms fed by [`MetricsRegistry::record_trace`].
pub(crate) const STAGE_PREFIX: &str = "stage.";
/// Name of the end-to-end latency histogram fed by `record_trace`.
pub(crate) const E2E_HIST: &str = "stage.total";
/// Counter of per-hop deltas discarded as clock skew (negative or absurd)
/// instead of being folded into the stage histograms.
pub(crate) const SKEW_CLAMPED: &str = "trace.skew_clamped";
/// Prefix of the per-tenant notification-staleness SLO histograms fed by
/// [`StalenessRecorder::record`] (`slo.<tenant>.staleness_us`).
pub(crate) const SLO_PREFIX: &str = "slo.";

#[derive(Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    hists: RwLock<BTreeMap<String, Arc<Mutex<Histogram>>>>,
    flight: FlightRecorder,
    slow: SlowQueryLog,
}

/// The one place every metric of a deployment lives: named counters,
/// gauges and log-bucket latency histograms. Cheap to clone (all clones
/// share state); every accessor creates the metric on first use, so
/// instrumentation sites never need registration boilerplate. A hot path
/// resolves its handles once and then pays one relaxed atomic operation
/// per event.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Gets (or creates) the monotonic counter `name`.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        get_or_insert(&self.inner.counters, name, Arc::default)
    }

    /// Gets (or creates) the gauge `name` (a settable level, not a rate).
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        get_or_insert(&self.inner.gauges, name, Arc::default)
    }

    /// Gets (or creates) the log-bucket histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Mutex<Histogram>> {
        get_or_insert(&self.inner.hists, name, || Arc::new(Mutex::new(Histogram::new())))
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    /// Records `value` into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).lock().record(value);
    }

    /// Folds a completed trace into the per-stage latency histograms:
    /// each hop's delta goes into `stage.<destination>` and the full
    /// first-to-last span into `stage.total`.
    ///
    /// Consecutive stamps may come from different hosts, so a hop delta is
    /// latency *plus clock skew*. Negative or implausibly large deltas are
    /// counted in `trace.skew_clamped` and kept out of the stage tables —
    /// a skewed pair of clocks must not manufacture latency data. The
    /// end-to-end span stays in: its first and last stamps (app server
    /// accept and delivery) share one process and therefore one clock.
    pub fn record_trace(&self, trace: &TraceContext) {
        for (_, to, delta) in trace.hops() {
            if delta < 0 || delta as u64 > MAX_PLAUSIBLE_HOP_MICROS {
                self.inc(SKEW_CLAMPED);
                continue;
            }
            self.record(&format!("{STAGE_PREFIX}{to}"), delta as u64);
        }
        self.record(E2E_HIST, trace.elapsed_micros());
        self.inc("traces.recorded");
    }

    /// The recorder of one tenant's save→notify staleness SLO histogram
    /// `slo.<tenant>.staleness_us` — the paper's headline metric, per
    /// tenant. Resolve it once and keep it: recording through the handle
    /// touches no registry map and formats no name.
    pub fn staleness(&self, tenant: &str) -> StalenessRecorder {
        StalenessRecorder {
            hist: self.histogram(&format!("{SLO_PREFIX}{tenant}.staleness_us")),
            skew_clamped: self.counter(SKEW_CLAMPED),
        }
    }

    /// The registry's flight recorder: every component sharing this
    /// registry records its structured pipeline events (reconnects, queue
    /// drops, decode errors, churn, health transitions) into one ring.
    pub fn flight(&self) -> FlightRecorder {
        self.inner.flight.clone()
    }

    /// The registry's slow-query log: each query group of the filtering
    /// stage counts its evaluations and changes on a handle from it.
    pub fn slow_queries(&self) -> SlowQueryLog {
        self.inner.slow.clone()
    }

    /// Drops every counter, gauge and histogram whose name starts with
    /// `prefix` — the series of something that is gone and not coming back
    /// (a closed connection named after an ephemeral peer address). Handles
    /// resolved earlier stay valid but no longer reach a snapshot.
    pub fn remove_prefix(&self, prefix: &str) {
        self.inner.counters.write().retain(|name, _| !name.starts_with(prefix));
        self.inner.gauges.write().retain(|name, _| !name.starts_with(prefix));
        self.inner.hists.write().retain(|name, _| !name.starts_with(prefix));
    }

    /// A point-in-time copy of every metric in this registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, c) in self.inner.counters.read().iter() {
            snap.counters.insert(name.clone(), c.load(Ordering::Relaxed));
        }
        for (name, g) in self.inner.gauges.read().iter() {
            snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
        }
        for (name, h) in self.inner.hists.read().iter() {
            snap.hists.insert(name.clone(), HistogramSummary::of(&h.lock()));
        }
        snap
    }
}

/// Handle to one tenant's staleness histogram; see
/// [`MetricsRegistry::staleness`].
#[derive(Clone)]
pub struct StalenessRecorder {
    hist: Arc<Mutex<Histogram>>,
    skew_clamped: Arc<AtomicU64>,
}

impl StalenessRecorder {
    /// Records `notifications` delivered notifications of one write, with
    /// one clock reading. `written_at_micros` is the app-server wall clock
    /// at write acceptance; since delivery happens back on an app server,
    /// the pair is same-clock in the single-app-server case and
    /// skew-clamped (like trace hops) otherwise.
    pub fn record(&self, written_at_micros: u64, notifications: u64) {
        let delta = now_micros() as i64 - written_at_micros as i64;
        if delta < 0 || delta as u64 > MAX_PLAUSIBLE_HOP_MICROS {
            self.skew_clamped.fetch_add(notifications, Ordering::Relaxed);
            return;
        }
        self.hist.lock().record_n(delta as u64, notifications);
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.read().len())
            .field("gauges", &self.inner.gauges.read().len())
            .field("hists", &self.inner.hists.read().len())
            .finish()
    }
}

fn get_or_insert<T: Clone>(map: &RwLock<BTreeMap<String, T>>, name: &str, mk: impl FnOnce() -> T) -> T {
    if let Some(v) = map.read().get(name) {
        return v.clone();
    }
    let mut w = map.write();
    w.entry(name.to_owned()).or_insert_with(mk).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::Stage;

    #[test]
    fn counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.inc("writes");
        reg.add("writes", 2);
        reg.set_gauge("depth", 7);
        reg.record("lat", 100);
        reg.record("lat", 300);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["writes"], 3);
        assert_eq!(snap.gauges["depth"], 7);
        assert_eq!(snap.hists["lat"].count, 2);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.inc("shared");
        assert_eq!(reg.snapshot().counters["shared"], 1);
    }

    #[test]
    fn record_trace_feeds_stage_histograms() {
        let reg = MetricsRegistry::new();
        let mut t = TraceContext { trace_id: 1, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 1_000);
        t.stamp_at(Stage::Ingestion, 1_040);
        t.stamp_at(Stage::Matching, 1_100);
        t.stamp_at(Stage::Delivery, 1_150);
        reg.record_trace(&t);
        let snap = reg.snapshot();
        assert_eq!(snap.hists["stage.ingestion"].count, 1);
        assert_eq!(snap.hists["stage.matching"].count, 1);
        assert_eq!(snap.hists["stage.delivery"].count, 1);
        assert_eq!(snap.hists["stage.total"].count, 1);
        assert_eq!(snap.counters["traces.recorded"], 1);
    }

    #[test]
    fn skewed_hops_are_clamped_not_recorded() {
        let reg = MetricsRegistry::new();
        let mut t = TraceContext { trace_id: 2, stamps: Vec::new() };
        t.stamp_at(Stage::AppServer, 10_000);
        t.stamp_at(Stage::Broker, 9_000); // broker clock behind: skew
        t.stamp_at(Stage::Delivery, 10_500);
        reg.record_trace(&t);
        let snap = reg.snapshot();
        assert!(!snap.hists.contains_key("stage.broker"), "skewed hop must not pollute stage table");
        assert_eq!(snap.counters["trace.skew_clamped"], 1);
        // The broker→delivery hop (1_500) and the e2e span still record.
        assert_eq!(snap.hists["stage.delivery"].count, 1);
        assert_eq!(snap.hists["stage.total"].count, 1);
    }

    #[test]
    fn staleness_feeds_per_tenant_histogram() {
        let reg = MetricsRegistry::new();
        let staleness = reg.staleness("tenant-a");
        staleness.record(invalidb_common::trace::now_micros(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.hists["slo.tenant-a.staleness_us"].count, 1);
        // A write "from the future" is skew, not negative staleness.
        staleness.record(invalidb_common::trace::now_micros() + 120_000_000, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.hists["slo.tenant-a.staleness_us"].count, 1);
        assert_eq!(snap.counters["trace.skew_clamped"], 1);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let reg = MetricsRegistry::new();
        let threads = 8u64;
        let per_thread = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        reg.inc("hammered.counter");
                        reg.add("hammered.bulk", 3);
                        reg.record("hammered.hist", i % 97 + 1);
                        reg.set_gauge(&format!("hammered.gauge.{t}"), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hammered.counter"], threads * per_thread);
        assert_eq!(snap.counters["hammered.bulk"], threads * per_thread * 3);
        assert_eq!(snap.hists["hammered.hist"].count, threads * per_thread);
        for t in 0..threads {
            assert_eq!(snap.gauges[&format!("hammered.gauge.{t}")], per_thread - 1);
        }
    }

    #[test]
    fn flight_and_slow_log_are_shared_across_clones() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.flight().record(crate::FlightEventKind::Reconnect, "peer");
        let _group = clone.slow_queries().register(invalidb_common::TenantId::new("t"), 1, "q".into());
        assert_eq!(reg.flight().dump().len(), 1);
        assert_eq!(reg.slow_queries().top(10).len(), 1);
    }

    #[test]
    fn remove_prefix_drops_only_the_named_family() {
        let reg = MetricsRegistry::new();
        let frames = reg.counter("net.server.peer:1.frames_in");
        reg.set_gauge("net.server.peer:1.queue_depth", 4);
        reg.record("net.server.peer:1.hop_us", 7);
        reg.inc("net.server.peer:10.frames_in");
        reg.remove_prefix("net.server.peer:1.");
        frames.fetch_add(1, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert!(snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.hists.keys())
            .all(|n| !n.starts_with("net.server.peer:1.")));
        assert_eq!(snap.counters["net.server.peer:10.frames_in"], 1, "a longer name is another family");
        // A name resolved again after removal starts a fresh series.
        assert_eq!(reg.counter("net.server.peer:1.frames_in").load(Ordering::Relaxed), 0);
    }
}
