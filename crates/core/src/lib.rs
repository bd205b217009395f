//! The InvaliDB cluster — the paper's primary contribution (§5).
//!
//! A [`Cluster`] hosts the real-time matching workload as a handful of
//! run-to-completion tasks (`invalidb_stream::task`), reachable only
//! through the event layer (`invalidb-broker`). Message flow:
//!
//! ```text
//!            event layer (topic "invalidb.cluster")
//!                          │
//!                      [ingress]        decode, hash, initial results, heartbeats
//!                 ┌────────┴────────┐
//!              row │                 │ column
//!                 ▼                 ▼
//!          [matching grid QP × WP]        one task per cell: probe, evaluate,
//!                 │            │           encode, publish (§5.1)
//!        sorted / │            │ unsorted
//!       aggregate ▼            │
//!   [sorting / aggregation]    │           per-query order (§5.2)
//!                 │            │
//!                 ▼            ▼
//!        event layer (topics "invalidb.notify.*")
//! ```
//!
//! * the **filtering stage** is the QP × WP grid of matching cells: each
//!   cell holds a subset of queries and sees a fraction of the write
//!   stream; it performs staleness avoidance and write-stream retention and
//!   detects `add`/`change`/`remove` transitions;
//! * unsorted filter queries are *self-maintainable*: the cell encodes and
//!   publishes their notifications itself, through the shared
//!   [`notifier::Publisher`];
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
mod links;
pub mod matching;
pub mod notifier;
pub mod query_index;
pub mod sorting;
mod subscribers;
pub mod window;

pub use cluster::{CellSet, Cluster};
pub use config::{ClusterConfig, ClusterConfigBuilder, WorkerIdentity};
pub use event::{Event, FilterChange, FilterChangeKind};
pub use notifier::Publisher;
pub use window::{SortedWindow, VisibleEvent, WindowOutcome};
