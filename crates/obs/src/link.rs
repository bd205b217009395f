//! Component, topology, and network-link counters.
//!
//! They live here so the whole workspace shares one observability
//! vocabulary and so [`crate::MetricsRegistry`] can absorb them into
//! unified snapshots.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for one component (all tasks combined).
#[derive(Debug, Default)]
pub struct ComponentMetrics {
    /// Messages executed by the component's bolts (or emitted by sources).
    pub processed: AtomicU64,
    /// Messages emitted downstream.
    pub emitted: AtomicU64,
    /// Ticks delivered.
    pub ticks: AtomicU64,
    /// Recent peak depth of the component's input queues (gauge): tasks
    /// raise it while draining messages and reset it on idle ticks, so a
    /// persistently high value means the stage is saturated.
    pub queue_depth: AtomicU64,
}

impl ComponentMetrics {
    /// Snapshot of `(processed, emitted, ticks)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.processed.load(Ordering::Relaxed),
            self.emitted.load(Ordering::Relaxed),
            self.ticks.load(Ordering::Relaxed),
        )
    }
}

/// Counters for one network link (a TCP connection of `invalidb-net`, or
/// any other transport hop worth observing). All fields are monotonic
/// except `queue_depth`, which is a gauge.
#[derive(Debug, Default)]
pub struct LinkMetrics {
    /// Frames received on this link.
    pub frames_in: AtomicU64,
    /// Frames sent on this link.
    pub frames_out: AtomicU64,
    /// Payload bytes received (frame bodies, excluding headers).
    pub bytes_in: AtomicU64,
    /// Payload bytes sent.
    pub bytes_out: AtomicU64,
    /// Current depth of the outbound send queue (gauge).
    pub queue_depth: AtomicU64,
    /// Frames dropped by backpressure policy (drop-oldest overflow).
    pub dropped: AtomicU64,
    /// Successful (re)connects — 1 after the first connect, +1 per
    /// reconnect.
    pub reconnects: AtomicU64,
    /// Frames rejected by the codec (bad magic/version/CRC/truncation).
    pub decode_errors: AtomicU64,
}

impl LinkMetrics {
    /// Snapshot of `(frames_in, frames_out, queue_depth, dropped,
    /// reconnects)` — the numbers dashboards poll together.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.frames_in.load(Ordering::Relaxed),
            self.frames_out.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.reconnects.load(Ordering::Relaxed),
        )
    }
}

/// Registry of link metrics, keyed by link name (e.g. peer address).
#[derive(Debug, Default)]
pub struct LinkRegistry {
    links: parking_lot::RwLock<HashMap<String, Arc<LinkMetrics>>>,
}

impl LinkRegistry {
    /// Gets (or creates) the metrics handle for a link.
    pub fn link(&self, name: &str) -> Arc<LinkMetrics> {
        if let Some(m) = self.links.read().get(name) {
            return Arc::clone(m);
        }
        let mut map = self.links.write();
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Names of all observed links.
    pub fn link_names(&self) -> Vec<String> {
        self.links.read().keys().cloned().collect()
    }

    /// Drops a link's metrics (connection closed and not coming back).
    pub fn forget(&self, name: &str) {
        self.links.write().remove(name);
    }
}

/// Metrics for a whole topology, keyed by component name.
#[derive(Debug, Default)]
pub struct TopologyMetrics {
    components: parking_lot::RwLock<HashMap<String, Arc<ComponentMetrics>>>,
}

impl TopologyMetrics {
    /// Gets (or creates) the metrics handle for a component.
    pub fn component(&self, name: &str) -> Arc<ComponentMetrics> {
        if let Some(m) = self.components.read().get(name) {
            return Arc::clone(m);
        }
        let mut map = self.components.write();
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Names of all observed components.
    pub fn component_names(&self) -> Vec<String> {
        self.components.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = TopologyMetrics::default();
        let c = m.component("matcher");
        c.processed.fetch_add(3, Ordering::Relaxed);
        c.emitted.fetch_add(1, Ordering::Relaxed);
        // Same handle returned for the same name.
        let again = m.component("matcher");
        assert_eq!(again.snapshot(), (3, 1, 0));
        assert_eq!(m.component_names().len(), 1);
    }

    #[test]
    fn link_registry_creates_and_forgets() {
        let reg = LinkRegistry::default();
        let link = reg.link("127.0.0.1:9999");
        link.frames_in.fetch_add(2, Ordering::Relaxed);
        assert_eq!(reg.link("127.0.0.1:9999").snapshot().0, 2);
        reg.forget("127.0.0.1:9999");
        assert_eq!(reg.link("127.0.0.1:9999").snapshot().0, 0);
    }
}
