//! The queues in front of the sorting and aggregation partitions.
//!
//! A staged query lives under a different key than the cell that matched
//! for it — the cell is addressed by (query row, write column), the stage
//! partition by the query hash alone — so this is one of the places where
//! the cluster keeps a queue. Whoever has something for a stage partition
//! (the ingress for control events, a cell or the shuffle ingress for
//! filter changes) sends it here.

use crate::event::Event;
use crossbeam::channel::Sender;
use invalidb_common::partition::partition_of;
use invalidb_common::QueryHash;

/// Senders to every sorting and aggregation partition of this process.
#[derive(Clone)]
pub(crate) struct StageLinks {
    pub(crate) sorting: Vec<Sender<Event>>,
    pub(crate) aggregation: Vec<Sender<Event>>,
}

impl StageLinks {
    /// Hands `event` to the sorting partition that owns `query`.
    pub(crate) fn to_sorting(&self, query: QueryHash, event: Event) {
        send(&self.sorting, query, event);
    }

    /// Hands `event` to the aggregation partition that owns `query`.
    pub(crate) fn to_aggregation(&self, query: QueryHash, event: Event) {
        send(&self.aggregation, query, event);
    }
}

fn send(partitions: &[Sender<Event>], query: QueryHash, event: Event) {
    // Blocking send: the bounded queue is the backpressure. It only fails
    // once the partition is gone (shutdown), and the event with it.
    let _ = partitions[partition_of(query.0, partitions.len())].send(event);
}
