//! The queues in front of the sorting partitions.
//!
//! A sorted query lives under a different key than the cell that matched
//! for it — the cell is addressed by (query row, write column), the sorting
//! partition by the query hash alone — so this is one of the places where
//! the cluster keeps a queue. Whoever has something for a sorting partition
//! (the ingress for control events, a cell or the shuffle ingress for
//! filter changes) sends it here.

use crate::event::Event;
use crossbeam::channel::Sender;
use invalidb_common::partition::partition_of;
use invalidb_common::QueryHash;

/// Senders to every sorting partition of this process.
#[derive(Clone)]
pub(crate) struct StageLinks {
    pub(crate) sorting: Vec<Sender<Event>>,
}

impl StageLinks {
    // Blocking sends: the bounded queue is the backpressure. A send only
    // fails once the partition is gone (shutdown), and the event with it.

    /// Hands `event` to the sorting partition that owns `query`.
    pub(crate) fn to_sorting(&self, query: QueryHash, event: Event) {
        let _ = self.sorting[partition_of(query.0, self.sorting.len())].send(event);
    }
}
