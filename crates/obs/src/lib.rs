//! Observability for the InvaliDB notification pipeline.
//!
//! The paper's evaluation (§6, Fig. 6) is about *where latency lives*:
//! how much of a notification's end-to-end time is spent in the app
//! server, the event layer, ingestion, matching, sorting, and delivery.
//! This crate provides the machinery to answer that for a running system
//! without external dependencies:
//!
//! * **Stage tracing** — `invalidb_common::TraceContext` rides in message
//!   envelopes; [`MetricsRegistry::record_trace`] folds completed traces
//!   into per-stage latency histograms.
//! * **Metrics registry** — one [`MetricsRegistry`] holds every named
//!   counter, gauge and log-bucket histogram of a deployment: pipeline
//!   tasks (`cluster.<component>.*`) and network links
//!   (`net.client.<name>.*`, `net.server.<peer>.*`) resolve their handles
//!   from it like every other component.
//! * **Export** — [`MetricsSnapshot`] renders as an aligned text table or
//!   as JSON, and both renderers carry exactly the same numbers (the JSON
//!   round-trips losslessly).
//!
//! And, on top of those, the **operational plane** for a running cluster:
//!
//! * **Admin endpoint** — [`AdminServer`], a dependency-free HTTP/1.0
//!   server exposing `/metrics` (Prometheus text exposition via
//!   [`to_prometheus`], same numbers as the JSON), `/metrics.json`,
//!   `/healthz`, `/queries`, and `/flight`.
//! * **Health model** — [`HealthMonitor`] derives
//!   Healthy/Degraded/Unavailable (with machine-readable
//!   [`HealthCause`]s) from heartbeat staleness, queue saturation,
//!   ingestion lag, and drop/decode-error deltas in metric snapshots.
//! * **Flight recorder** — [`FlightRecorder`], a fixed-size ring of
//!   structured pipeline events (reconnects, drops, decode errors,
//!   subscription churn, health transitions), auto-snapshotted when the
//!   cluster becomes Unavailable. Every [`MetricsRegistry`] hosts one
//!   ([`MetricsRegistry::flight`]), so components that already share a
//!   registry feed the same ring.
//! * **Slow-query log** — [`SlowQueryLog`]
//!   ([`MetricsRegistry::slow_queries`]): per-query evaluation and change
//!   counts from the filtering stage, top-K by evaluations.

#![deny(missing_docs)]

mod admin;
mod flight;
mod health;
mod prom;
mod registry;
mod slow;
mod snapshot;

pub use admin::{AdminConfig, AdminRoute, AdminServer};
pub use flight::{
    events_from_json, events_to_json, FlightEvent, FlightEventKind, FlightRecorder,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use health::{
    HealthCause, HealthCauseKind, HealthMonitor, HealthPolicy, HealthReport, HealthStatus,
};
pub use prom::{
    from_prometheus, from_prometheus_federated, to_prometheus, to_prometheus_federated, COUNTER_FAMILY,
    GAUGE_FAMILY, HISTOGRAM_FAMILY, HISTOGRAM_STAT_FAMILY,
};
pub use registry::{MetricsRegistry, StalenessRecorder};
pub use slow::{QueryCounts, SlowQueryEntry, SlowQueryLog};
pub use snapshot::{HistogramSummary, MetricsSnapshot};
