//! The cluster health model: a state machine deriving
//! Healthy/Degraded/Unavailable (with machine-readable causes) from
//! metric snapshots.
//!
//! The monitor is deliberately *derived* rather than event-driven: every
//! evaluation reads one [`MetricsSnapshot`] and recomputes status from
//! the gauges and counter deltas below, so components only have to keep
//! their gauges honest — no component ever calls "set health" directly.
//!
//! Signals consumed (by suffix convention, so per-partition and per-link
//! instances are picked up automatically):
//!
//! * `*.heartbeat_stale_ms` (gauge) — time since the last frame from a
//!   peer; stale past the degraded/unavailable thresholds means a broker
//!   link is partitioned.
//! * `*.connected` (gauge, 0/1) — transport link state.
//! * `*.queue_depth` (gauge) — send-queue and stage-input saturation.
//! * `*.ingest_lag_us` (gauge) — how far matching trails the write stream.
//! * `*.dropped`, `*decode_errors` (counters; `ingress.decode_errors`,
//!   `appserver.notify_decode_errors`, ...) — evaluated as deltas between
//!   consecutive evaluations, so old incidents age out.

use crate::flight::{FlightEventKind, FlightRecorder};
use crate::snapshot::MetricsSnapshot;
use invalidb_common::Document;
use std::collections::BTreeMap;
use std::time::Duration;

/// Overall cluster health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthStatus {
    /// All signals within thresholds.
    #[default]
    Healthy,
    /// Service continues but at least one signal crossed its degraded
    /// threshold (stale heartbeat, saturated queue, drops observed).
    Degraded,
    /// At least one signal crossed its unavailable threshold; pushed
    /// notifications can no longer be trusted to arrive.
    Unavailable,
}

impl HealthStatus {
    /// Stable wire name (`healthy` / `degraded` / `unavailable`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unavailable => "unavailable",
        }
    }

    /// Numeric encoding for the `health.status` gauge
    /// (0 healthy, 1 degraded, 2 unavailable).
    pub fn as_gauge(&self) -> u64 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Unavailable => 2,
        }
    }
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of signal pushed the cluster out of Healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthCauseKind {
    /// A peer's heartbeat is stale (`*.heartbeat_stale_ms`).
    HeartbeatStale,
    /// A transport link reports disconnected (`*.connected` == 0).
    Disconnected,
    /// A send or stage queue is saturated (`*.queue_depth`).
    QueueSaturated,
    /// Matching trails the write stream (`*.ingest_lag_us`).
    IngestionLag,
    /// Frames were dropped by backpressure since the last evaluation
    /// (`*.dropped` delta).
    QueueDrops,
    /// Frames failed to decode since the last evaluation
    /// (`*decode_errors` delta).
    DecodeErrors,
    /// Grid cells are currently not assigned to any live worker
    /// (`*.cells_unassigned` gauge): writes for those cells are not being
    /// matched until the coordinator reassigns them.
    CellsUnassigned,
}

impl HealthCauseKind {
    /// Stable wire name of the cause kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthCauseKind::HeartbeatStale => "heartbeat_stale",
            HealthCauseKind::Disconnected => "disconnected",
            HealthCauseKind::QueueSaturated => "queue_saturated",
            HealthCauseKind::IngestionLag => "ingestion_lag",
            HealthCauseKind::QueueDrops => "queue_drops",
            HealthCauseKind::DecodeErrors => "decode_errors",
            HealthCauseKind::CellsUnassigned => "cells_unassigned",
        }
    }
}

impl std::fmt::Display for HealthCauseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One machine-readable reason the cluster is not Healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCause {
    /// What kind of signal fired.
    pub kind: HealthCauseKind,
    /// The metric that fired (full dotted name, e.g.
    /// `net.client.heartbeat_stale_ms`).
    pub subject: String,
    /// The observed value (same unit as the metric).
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

impl HealthCause {
    /// Encodes the cause as a document (the JSON object model).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(4);
        d.insert("kind", self.kind.as_str());
        d.insert("subject", self.subject.as_str());
        d.insert("value", self.value as i64);
        d.insert("threshold", self.threshold as i64);
        d
    }
}

impl std::fmt::Display for HealthCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} = {} (threshold {})", self.kind, self.subject, self.value, self.threshold)
    }
}

/// Thresholds for the health state machine.
#[derive(Debug, Clone)]
pub struct HealthPolicy {
    /// Heartbeat staleness above this is Degraded.
    pub heartbeat_degraded: Duration,
    /// Heartbeat staleness above this is Unavailable.
    pub heartbeat_unavailable: Duration,
    /// Queue depth (send queue or stage input) at or above this is
    /// Degraded.
    pub queue_depth_degraded: u64,
    /// Ingestion lag above this is Degraded.
    pub ingest_lag_degraded: Duration,
    /// This many drops between consecutive evaluations is Degraded.
    pub drops_degraded: u64,
    /// This many decode errors between consecutive evaluations is
    /// Degraded.
    pub decode_errors_degraded: u64,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            heartbeat_degraded: Duration::from_secs(2),
            heartbeat_unavailable: Duration::from_secs(10),
            queue_depth_degraded: 4096,
            ingest_lag_degraded: Duration::from_secs(1),
            drops_degraded: 1,
            decode_errors_degraded: 1,
        }
    }
}

/// One evaluation's verdict: the status plus every cause that fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Overall status.
    pub status: HealthStatus,
    /// Every signal that pushed the status out of Healthy (empty when
    /// Healthy).
    pub causes: Vec<HealthCause>,
}

impl HealthReport {
    /// Encodes the report as a document (the JSON object model).
    pub fn to_document(&self) -> Document {
        let mut d = Document::with_capacity(2);
        d.insert("status", self.status.as_str());
        let causes: Vec<invalidb_common::Value> =
            self.causes.iter().map(|c| c.to_document().into()).collect();
        d.insert("causes", causes);
        d
    }

    /// Renders the report as a JSON string.
    pub fn to_json(&self) -> String {
        invalidb_json::to_string(&self.to_document())
    }
}

/// The health state machine. Feed it snapshots with
/// [`HealthMonitor::observe`]; it tracks counter deltas between
/// evaluations, records status transitions into the flight recorder, and
/// snapshots the flight ring on transition to Unavailable.
#[derive(Debug)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    status: HealthStatus,
    prev_counters: BTreeMap<String, u64>,
    last_incident: Option<Vec<crate::flight::FlightEvent>>,
    transitions: u64,
}

impl HealthMonitor {
    /// A monitor starting Healthy under `policy`.
    pub fn new(policy: HealthPolicy) -> HealthMonitor {
        HealthMonitor {
            policy,
            status: HealthStatus::Healthy,
            prev_counters: BTreeMap::new(),
            last_incident: None,
            transitions: 0,
        }
    }

    /// Current status (as of the last [`HealthMonitor::observe`]).
    pub fn status(&self) -> HealthStatus {
        self.status
    }

    /// Number of status transitions observed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The flight-recorder dump captured when the cluster last became
    /// Unavailable, if it ever did.
    pub fn last_incident(&self) -> Option<&[crate::flight::FlightEvent]> {
        self.last_incident.as_deref()
    }

    /// Evaluates one snapshot: computes the report, records any status
    /// transition as a [`FlightEventKind::HealthTransition`] event, and on
    /// transition to Unavailable freezes a copy of the flight ring as the
    /// incident record.
    pub fn observe(&mut self, snap: &MetricsSnapshot, flight: &FlightRecorder) -> HealthReport {
        let report = self.evaluate(snap);
        if report.status != self.status {
            let detail = format!(
                "{} -> {}{}",
                self.status,
                report.status,
                if report.causes.is_empty() {
                    String::new()
                } else {
                    format!(
                        " [{}]",
                        report.causes.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("; ")
                    )
                }
            );
            flight.record(FlightEventKind::HealthTransition, detail);
            self.transitions += 1;
            if report.status == HealthStatus::Unavailable {
                self.last_incident = Some(flight.dump());
            }
            self.status = report.status;
        }
        report
    }

    /// Pure evaluation of a snapshot against the policy (no side
    /// effects on the transition state; counter deltas *are* updated).
    pub fn evaluate(&mut self, snap: &MetricsSnapshot) -> HealthReport {
        let mut causes = Vec::new();
        let mut worst = HealthStatus::Healthy;
        let p = &self.policy;

        let degraded_ms = p.heartbeat_degraded.as_millis() as u64;
        let unavailable_ms = p.heartbeat_unavailable.as_millis() as u64;
        for (name, &v) in &snap.gauges {
            if name.ends_with(".heartbeat_stale_ms") {
                if v > unavailable_ms {
                    worst = HealthStatus::Unavailable;
                    causes.push(HealthCause {
                        kind: HealthCauseKind::HeartbeatStale,
                        subject: name.clone(),
                        value: v,
                        threshold: unavailable_ms,
                    });
                } else if v > degraded_ms {
                    worst = worst.max_with(HealthStatus::Degraded);
                    causes.push(HealthCause {
                        kind: HealthCauseKind::HeartbeatStale,
                        subject: name.clone(),
                        value: v,
                        threshold: degraded_ms,
                    });
                }
            } else if name.ends_with(".connected") && v == 0 {
                worst = worst.max_with(HealthStatus::Degraded);
                causes.push(HealthCause {
                    kind: HealthCauseKind::Disconnected,
                    subject: name.clone(),
                    value: v,
                    threshold: 1,
                });
            } else if name.ends_with(".queue_depth") && v >= p.queue_depth_degraded {
                worst = worst.max_with(HealthStatus::Degraded);
                causes.push(HealthCause {
                    kind: HealthCauseKind::QueueSaturated,
                    subject: name.clone(),
                    value: v,
                    threshold: p.queue_depth_degraded,
                });
            } else if name.ends_with(".cells_unassigned") && v > 0 {
                worst = worst.max_with(HealthStatus::Degraded);
                causes.push(HealthCause {
                    kind: HealthCauseKind::CellsUnassigned,
                    subject: name.clone(),
                    value: v,
                    threshold: 1,
                });
            } else if name.ends_with(".ingest_lag_us") && v > p.ingest_lag_degraded.as_micros() as u64 {
                worst = worst.max_with(HealthStatus::Degraded);
                causes.push(HealthCause {
                    kind: HealthCauseKind::IngestionLag,
                    subject: name.clone(),
                    value: v,
                    threshold: p.ingest_lag_degraded.as_micros() as u64,
                });
            }
        }

        for (name, &v) in &snap.counters {
            let (kind, threshold) = if name.ends_with(".dropped") {
                (HealthCauseKind::QueueDrops, p.drops_degraded)
            } else if name.ends_with("decode_errors") {
                (HealthCauseKind::DecodeErrors, p.decode_errors_degraded)
            } else {
                continue;
            };
            let prev = self.prev_counters.insert(name.clone(), v).unwrap_or(v);
            let delta = v.saturating_sub(prev);
            if delta >= threshold {
                worst = worst.max_with(HealthStatus::Degraded);
                causes.push(HealthCause { kind, subject: name.clone(), value: delta, threshold });
            }
        }

        HealthReport { status: worst, causes }
    }
}

impl HealthStatus {
    fn max_with(self, other: HealthStatus) -> HealthStatus {
        if other.as_gauge() > self.as_gauge() {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthPolicy::default())
    }

    #[test]
    fn empty_snapshot_is_healthy() {
        let report = monitor().evaluate(&MetricsSnapshot::default());
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.causes.is_empty());
    }

    #[test]
    fn stale_heartbeat_degrades_then_fails() {
        let mut m = monitor();
        let mut snap = MetricsSnapshot::default();
        snap.gauges.insert("net.client.heartbeat_stale_ms".into(), 3_000);
        let r = m.evaluate(&snap);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.causes[0].kind, HealthCauseKind::HeartbeatStale);
        snap.gauges.insert("net.client.heartbeat_stale_ms".into(), 60_000);
        assert_eq!(m.evaluate(&snap).status, HealthStatus::Unavailable);
    }

    #[test]
    fn counter_deltas_age_out() {
        let mut m = monitor();
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("net.server.peer.dropped".into(), 5);
        // First sighting establishes the baseline — no delta yet.
        assert_eq!(m.evaluate(&snap).status, HealthStatus::Healthy);
        snap.counters.insert("net.server.peer.dropped".into(), 8);
        let r = m.evaluate(&snap);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.causes[0].value, 3);
        // No new drops: incident ages out.
        assert_eq!(m.evaluate(&snap).status, HealthStatus::Healthy);
        // Decode errors follow the same rule, whatever prefixes the name.
        for name in ["ingress.decode_errors", "appserver.notify_decode_errors"] {
            snap.counters.insert(name.into(), 0);
            assert_eq!(m.evaluate(&snap).status, HealthStatus::Healthy);
            snap.counters.insert(name.into(), 1);
            let r = m.evaluate(&snap);
            assert_eq!(r.status, HealthStatus::Degraded, "{name}");
            assert_eq!(r.causes[0].kind, HealthCauseKind::DecodeErrors);
            assert_eq!(m.evaluate(&snap).status, HealthStatus::Healthy);
        }
    }

    #[test]
    fn transitions_recorded_in_flight_and_incident_frozen() {
        let mut m = monitor();
        let flight = FlightRecorder::with_capacity(16);
        let mut snap = MetricsSnapshot::default();
        m.observe(&snap, &flight);
        assert_eq!(m.transitions(), 0);

        snap.gauges.insert("net.client.heartbeat_stale_ms".into(), 60_000);
        let r = m.observe(&snap, &flight);
        assert_eq!(r.status, HealthStatus::Unavailable);
        assert_eq!(m.transitions(), 1);
        let incident = m.last_incident().expect("incident frozen");
        assert!(incident.iter().any(|e| e.kind == FlightEventKind::HealthTransition
            && e.detail.contains("healthy -> unavailable")));

        snap.gauges.insert("net.client.heartbeat_stale_ms".into(), 0);
        assert_eq!(m.observe(&snap, &flight).status, HealthStatus::Healthy);
        assert_eq!(m.transitions(), 2);
        let kinds: Vec<_> = flight.dump().into_iter().map(|e| e.detail).collect();
        assert_eq!(kinds.len(), 2);
        assert!(kinds[0].contains("healthy -> unavailable"));
        assert!(kinds[1].contains("unavailable -> healthy"));
    }

    #[test]
    fn unassigned_cells_degrade() {
        let mut m = monitor();
        let mut snap = MetricsSnapshot::default();
        snap.gauges.insert("cluster.cells_unassigned".into(), 2);
        let r = m.evaluate(&snap);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.causes[0].kind, HealthCauseKind::CellsUnassigned);
        snap.gauges.insert("cluster.cells_unassigned".into(), 0);
        assert_eq!(m.evaluate(&snap).status, HealthStatus::Healthy);
    }

    #[test]
    fn report_json_is_machine_readable() {
        let mut m = monitor();
        let mut snap = MetricsSnapshot::default();
        snap.gauges.insert("cluster.matching.queue_depth".into(), 9_999);
        let r = m.evaluate(&snap);
        let json = r.to_json();
        assert!(json.contains("\"status\":\"degraded\""));
        assert!(json.contains("\"kind\":\"queue_saturated\""));
        assert!(json.contains("\"subject\":\"cluster.matching.queue_depth\""));
        assert!(json.contains("\"value\":9999"));
    }
}
