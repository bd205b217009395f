//! # InvaliDB
//!
//! A Rust reproduction of *InvaliDB: Scalable Push-Based Real-Time Queries
//! on Top of Pull-Based Databases* (Wingerath, Gessert, Ritter; PVLDB 2020).
//!
//! This facade crate re-exports the public API of every workspace crate so
//! applications can depend on a single `invalidb` crate:
//!
//! * [`common`] — document model, partitioning grid, notification types
//! * [`json`] — document codecs: binary event-layer payloads, JSON text
//! * [`query`] — MongoDB-compatible pluggable query engine
//! * [`store`] — embedded pull-based document database
//! * [`broker`] — the event layer (async pub/sub)
//! * [`stream`] — mini stream processor hosting the matching topology
//! * [`core`] — the InvaliDB cluster (2-D partitioned matching)
//! * [`client`] — the application server / InvaliDB client
//! * [`cluster`] — multi-process tier: coordinator, remote workers, failover
//! * [`net`] — TCP event-layer transport (framing, reconnect, chaos proxy)
//! * [`obs`] — pipeline observability: stage tracing + metrics registry
//! * [`baselines`] — poll-and-diff and log-tailing comparators
//! * [`sim`] — discrete-event simulator for scalability studies
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough: start a
//! store, broker and cluster; subscribe to a real-time query through an
//! application server; perform writes and receive push notifications.
//!
//! ## The layered client API
//!
//! The recommended surface, re-exported here at the top level:
//!
//! * Configuration as plain structs, built from their defaults with
//!   struct-update syntax. [`AppServer::start`] and [`Cluster::start`]
//!   check every config they are given and panic with the rule it breaks;
//!   [`AppServerConfig::validate`](client::AppServerConfig::validate) and
//!   [`ClusterConfig::validate`](core::ClusterConfig::validate) return the
//!   same [`ConfigError`](common::ConfigError) up front.
//! * One [`Error`] type for every client-facing operation
//!   (`subscribe`, `find`, the write methods), with [`From`] conversions
//!   so `?` works across the store/config boundary.
//! * Event consumption through the [`Events`] iterator
//!   ([`Subscription::events`](client::Subscription::events)) — blocking
//!   with a timeout, or non-blocking, behind one interface.
//!
//! ## Observability
//!
//! The [`obs`] crate threads a sampled [`TraceContext`]
//! through every pipeline stage (app server → broker → ingestion →
//! matching → sorting → notifier → delivery) and aggregates per-stage
//! latency histograms, counters, and gauges in one
//! [`MetricsRegistry`]. Snapshots render as a text
//! table or JSON via [`MetricsSnapshot`]. Enable
//! tracing by setting
//! [`trace_sample_every`](client::AppServerConfig::trace_sample_every) and
//! read a delivered notification's breakdown from
//! [`Subscription::last_trace`](client::Subscription::last_trace).
//!
//! ## The operational plane
//!
//! Every long-running component — [`Cluster`], [`AppServer`], and
//! `net`'s `BrokerServer` — can host an [`AdminServer`]: a dependency-free
//! HTTP endpoint serving
//!
//! * `/metrics` — Prometheus text exposition of the registry snapshot
//!   (and `/metrics.json` for the JSON rendering of the same numbers),
//! * `/healthz` — the [`HealthReport`] of a [`HealthMonitor`]-derived
//!   cluster health state (`healthy`/`degraded`/`unavailable`, with
//!   machine-readable causes; HTTP 503 when unavailable),
//! * `/queries` — the [`SlowQueryLog`]'s continuous queries with the most
//!   evaluations in the filtering stage, with how many changed a result,
//! * `/flight` — the [`FlightRecorder`]'s ring of recent pipeline events
//!   (reconnects, queue drops, decode errors, health transitions).
//!
//! Bind it with `ClusterConfig { admin_addr: Some("127.0.0.1:9464".into()), .. }`
//! (and the analogous `AppServerConfig` / `BrokerServerConfig` settings);
//! see `examples/invalidb_top.rs` for a live terminal dashboard built on
//! `/metrics` and the README's "Operations" runbook for the full tour.

#![deny(missing_docs)]

pub use invalidb_baselines as baselines;
pub use invalidb_broker as broker;
pub use invalidb_client as client;
pub use invalidb_cluster as cluster;
pub use invalidb_common as common;
pub use invalidb_core as core;
pub use invalidb_json as json;
pub use invalidb_net as net;
pub use invalidb_obs as obs;
pub use invalidb_query as query;
pub use invalidb_sim as sim;
pub use invalidb_store as store;
pub use invalidb_stream as stream;

pub use invalidb_client::{AppServer, AppServerConfig, ClientEvent, Error, Events, Subscription};
pub use invalidb_common::{
    doc, AfterImage, ChangeItem, Document, Key, MatchType, Notification, NotificationKind,
    NotifyEnvelope, QueryHash, QuerySpec, ResultItem, SortDirection, Stage, SubscriptionId, TenantId,
    TraceContext, Value, Version,
};
pub use invalidb_core::{Cluster, ClusterConfig};
pub use invalidb_obs::{
    AdminConfig, AdminServer, FlightEvent, FlightEventKind, FlightRecorder, HealthMonitor, HealthPolicy,
    HealthReport, HealthStatus, MetricsRegistry, MetricsSnapshot, SlowQueryEntry, SlowQueryLog,
};
