//! The InvaliDB cluster — the paper's primary contribution (§5).
//!
//! An [`Cluster`] hosts the real-time matching workload on a stream topology
//! (`invalidb-stream`), reachable only through the event layer
//! (`invalidb-broker`). Message flow:
//!
//! ```text
//!            event layer (topic "invalidb.cluster")
//!                          │
//!                      [ingress]                  (decode opaque payloads)
//!                 ┌────────┴────────┐
//!          [query-ingest]    [write-ingest]       (stateless, hash & route)
//!                 │                 │
//!                 ├──── row ──► [matching grid QP × WP] ◄── column ──┤
//!                 │                 │  filtering stage (§5.1)
//!                 │                 ▼
//!                 ├─────────► [sorting stage]     (per-query order, §5.2)
//!                 │                 │
//!                 ▼                 ▼
//!                [notifier] ──► event layer (topics "invalidb.notify.*")
//! ```
//!
//! * the **filtering stage** is the QP × WP grid of matching nodes: each
//!   node holds a subset of queries and sees a fraction of the write
//!   stream; it performs staleness avoidance and write-stream retention and
//!   emits `add`/`change`/`remove` transitions;
//! * unsorted filter queries are *self-maintainable*: their notifications
//!   go straight to the notifier;
//! * sorted queries (order/limit/offset) flow into the **sorting stage**,
//!   which maintains the `offset + result + slack` window, detects
//!   positional changes (`changeIndex`), raises *query maintenance errors*
//!   when the slack is exhausted, and replays incremental deltas after a
//!   renewal.

pub mod aggregation;
pub mod cluster;
pub mod config;
pub mod event;
pub mod ingest;
pub mod matching;
pub mod notifier;
pub mod query_index;
pub mod sorting;
pub mod window;

pub use cluster::{CellHost, CellSet, Cluster, FullGrid};
pub use config::{ClusterConfig, ClusterConfigBuilder, WorkerIdentity};
pub use event::{Event, FilterChange, FilterChangeKind, OutChange, OutMsg, OutNotify};
pub use window::{SortedWindow, VisibleEvent, WindowOutcome};
