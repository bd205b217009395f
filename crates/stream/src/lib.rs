//! The execution substrate of the InvaliDB cluster.
//!
//! The paper's prototype runs its matching workload on Apache Storm (§5.4).
//! What the workload needs from a stream processor is small, and
//! [`task`] is all of it: one bounded input queue per task (backpressure:
//! when a matching cell cannot keep up, latency rises and eventually
//! saturates — the knee the paper's SLA experiments measure), a bounded
//! drain per scheduling turn, deadline-driven *ticks* for time-driven work
//! (retention expiry, TTL enforcement, gauges), and shutdown by dropping
//! senders.
//! The cluster wires its cells and stages by hand on top of it; partition
//! routing is a hash in the ingress, not a grouping object.
//!
//! [`topology`] is the former Storm-style builder (sources, bolts,
//! round-robin connections). Nothing in the workspace runs on it any more;
//! it is kept, on the same run loop, because the benchmark's
//! `stream.hop_ns` row drives it.
//!
//! Delivery between tasks is lossless and FIFO per channel (stronger than
//! Storm's at-least-once, which the paper required precisely to avoid
//! losing writes).

pub mod task;
pub mod topology;

pub use task::Task;
pub use topology::{
    Bolt, BoltContext, Grouping, Message, RunningTopology, Source, TopologyBuilder, TopologyConfig,
};
