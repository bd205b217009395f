//! Embedded pull-based document database.
//!
//! Stands in for the MongoDB deployment of the paper's prototype (§5.4).
//! InvaliDB only requires three things from the primary store, all provided
//! here:
//!
//! 1. **after-image returning writes** — every insert/update/delete returns
//!    the fully specified post-write record state plus a monotonically
//!    increasing per-record version (the `findAndModify` pattern);
//! 2. **pull query execution** — filter/sort/skip/limit over collections,
//!    with *identical semantics* to the real-time engine (both sides share
//!    the `invalidb-query` crate, satisfying §5.3's alignment requirement);
//! 3. **a replication log** (oplog) — consumed by the log-tailing baseline.
//!
//! The store is held in memory: durability is MongoDB's job in the paper
//! and not one of the three things above. It is multi-collection, thread-safe
//! (readers-writer locking per collection), supports MongoDB-style update
//! operators (`$set`, `$inc`, `$push`, …) and optional secondary indexes
//! with a small query planner.

pub mod collection;
pub mod index;
pub mod oplog;
pub mod plan;
pub mod record;
pub mod update;

mod store;

pub use collection::Collection;
pub use oplog::{OplogCursor, OplogEntry, OplogOp};
pub use record::{Row, StoreError, WriteOp, WriteResult};
pub use store::Store;
pub use update::UpdateSpec;
