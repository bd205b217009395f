//! Shared foundations for the InvaliDB workspace.
//!
//! This crate hosts everything that more than one subsystem needs to agree
//! on: the document/value model of the (MongoDB-like) data store, stable
//! hashing and the two-dimensional partitioning grid, message envelopes
//! exchanged over the event layer, change-notification types, logical
//! clocks, and a latency histogram used by the benchmark harness.
//!
//! Layering: `invalidb-common` has no dependency on any other workspace
//! crate. Queries appear here only in *wire form* ([`QuerySpec`]): the event
//! layer and the workload-partitioning scheme treat queries as opaque
//! payloads plus a pre-computed [`QueryHash`]; parsing and evaluation live in
//! `invalidb-query` (the pluggable engine), exactly as in the paper's
//! database-agnostic design (§5.3).

pub mod clock;
pub mod config;
pub mod document;
pub mod grid;
pub mod hist;
pub mod id;
pub mod msg;
pub mod notify;
pub mod partition;
pub mod query_spec;
pub mod trace;
pub mod value;
pub mod write;

pub use clock::{Clock, MockClock, SystemClock, Timestamp};
pub use config::ConfigError;
pub use document::Document;
pub use grid::{GridCoord, GridShape};
pub use hist::Histogram;
pub use id::{Key, QueryHash, SubscriptionId, TenantId, TenantInterner};
pub use msg::{AfterImage, ClusterMessage, SubscriptionRequest, WriteRef};
pub use notify::{
    ChangeItem, EnvelopeRef, ItemRef, KindRef, MaintenanceError, MatchType, Notification,
    NotificationKind, NotifyEnvelope, ResultItem,
};
pub use partition::{fnv1a64, stable_hash64, Fnv1a};
pub use query_spec::{AggregateOp, AggregateSpec, QuerySpec, SortDirection, SortSpec, SpecError};
pub use trace::{Stage, StageStamp, TraceContext, ALL_STAGES, MAX_PLAUSIBLE_HOP_MICROS};
pub use value::{canonical_cmp, canonical_eq, CanonicalSink, Value};
pub use write::{DocumentBuilder, FieldWriter};

/// Version number of a stored record. The application server initializes
/// every record with version 1 and increments it on each write; a delete
/// produces a tombstone after-image carrying the next version. Matching
/// nodes use versions for staleness avoidance (§5.1).
pub type Version = u64;
