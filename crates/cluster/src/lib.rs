//! Multi-process InvaliDB: the cluster tier that spreads the QP × WP
//! matching grid (§5.1) across OS processes and survives losing one.
//!
//! Three roles cooperate over the existing `invalidb-net` frame protocol
//! and event layer:
//!
//! * the **coordinator** ([`Coordinator`]) owns membership — worker
//!   registration (`JoinCluster`), heartbeat-based failure detection
//!   (`WorkerHeartbeat`, configurable timeout), and epoch-numbered
//!   [`AssignmentTable`]s mapping every grid cell to a worker process,
//!   pushed as `Assign` frames;
//! * **remote workers** ([`Worker`]) host matching/sorting
//!   stages for their assigned cells as an
//!   [`invalidb_core::Cluster`] over a [`invalidb_core::CellSet`];
//! * **application servers** stay unchanged except for epoch awareness:
//!   on an epoch bump they replay buffered writes and renew subscriptions,
//!   so a failover loses no subscription.
//!
//! Failover is the paper's recovery story made real: missed heartbeats →
//! epoch bump → cells reassigned (stable placement, survivors keep their
//! cells) → the replacement rebuilds state from the coordinator's silent
//! subscription replay (`renewal: true`, no stale initial result re-sent)
//! plus retention-guarded write replay and bootstrap-query re-execution by
//! the app servers.
//!
//! Placement is pluggable ([`Placement`]): weighted round-robin by
//! default, with a row-affinity strategy ([`RowAffinity`]) that co-locates
//! each query-partition row to eliminate shuffle traffic, per the
//! hypergraph-partitioning line of work on transactional workloads.

#![deny(missing_docs)]

pub mod assignment;
pub mod coordinator;
pub mod worker;

pub use assignment::{AssignmentTable, Placement, RoundRobin, RowAffinity, WorkerInfo};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use worker::{Worker, WorkerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_broker::Broker;
    use invalidb_common::GridShape;
    use invalidb_core::ClusterConfig;
    use invalidb_net::frame::Frame;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn worker_config(name: &str, qp: usize, wp: usize) -> WorkerConfig {
        WorkerConfig::new(name, ClusterConfig::new(qp, wp))
    }

    #[test]
    fn join_assigns_all_cells() {
        let broker = Broker::new();
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            broker.clone(),
            CoordinatorConfig::new(GridShape::new(2, 2)),
        )
        .expect("bind coordinator");
        let worker =
            Worker::connect(coord.local_addr().to_string(), broker.clone(), worker_config("w1", 2, 2));
        assert!(worker.wait_assigned(Duration::from_secs(5)), "worker should get an Assign");
        assert!(coord.wait_assigned(Duration::from_secs(5)), "all cells should be assigned");
        assert_eq!(worker.cells(), vec![0, 1, 2, 3]);
        assert!(coord.epoch() >= 1);
        assert_eq!(coord.workers_alive(), 1);
        worker.shutdown();
        coord.shutdown();
    }

    #[test]
    fn second_worker_takes_only_orphans() {
        let broker = Broker::new();
        let coord = Coordinator::bind(
            "127.0.0.1:0",
            broker.clone(),
            CoordinatorConfig::new(GridShape::new(2, 2)),
        )
        .expect("bind coordinator");
        let w1 =
            Worker::connect(coord.local_addr().to_string(), broker.clone(), worker_config("w1", 2, 2));
        assert!(w1.wait_assigned(Duration::from_secs(5)));
        let cells_before = w1.cells();
        assert_eq!(cells_before.len(), 4);

        // A second worker joins: placement is stable, so w1 keeps all four
        // cells (no orphans exist) and w2 hosts nothing yet.
        let w2 =
            Worker::connect(coord.local_addr().to_string(), broker.clone(), worker_config("w2", 2, 2));
        assert!(w2.wait_assigned(Duration::from_secs(5)));
        assert_eq!(coord.workers_alive(), 2);
        assert_eq!(w1.cells(), cells_before);
        assert!(w2.cells().is_empty());
        w1.shutdown();
        w2.shutdown();
        coord.shutdown();
    }

    #[test]
    fn dead_worker_cells_move_to_survivor() {
        let broker = Broker::new();
        let mut config = CoordinatorConfig::new(GridShape::new(2, 2));
        config.heartbeat_timeout = Duration::from_millis(400);
        let coord = Coordinator::bind("127.0.0.1:0", broker.clone(), config).expect("bind coordinator");
        let w1 =
            Worker::connect(coord.local_addr().to_string(), broker.clone(), worker_config("w1", 2, 2));
        assert!(w1.wait_assigned(Duration::from_secs(5)));
        let epoch_before = coord.epoch();

        let w2 =
            Worker::connect(coord.local_addr().to_string(), broker.clone(), worker_config("w2", 2, 2));
        assert!(w2.wait_assigned(Duration::from_secs(5)));

        // Kill w1 without a clean leave: its control thread dies with it.
        w1.shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while coord.workers_alive() != 1 || coord.assignment().unassigned() > 0 {
            assert!(std::time::Instant::now() < deadline, "failover did not converge");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(coord.epoch() > epoch_before, "failover must bump the epoch");
        let table = coord.assignment();
        assert_eq!(table.cells_of("w2").len(), 4, "{}", table.render());
        coord.shutdown();
        w2.shutdown();
    }

    #[test]
    fn a_malformed_assign_is_counted_and_the_hosted_cells_kept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a stand-in coordinator");
        let config = worker_config("w1", 1, 1);
        let metrics = config.metrics.clone();
        let worker = Worker::connect(listener.local_addr().unwrap().to_string(), Broker::new(), config);
        let (mut coordinator, _) = listener.accept().expect("the worker dials in");
        let mut assign = |epoch, query_partitions, write_partitions, cells: &[u32]| {
            let cells = cells.iter().map(|&cell| (cell, "w1".to_owned())).collect();
            let frame = Frame::Assign { epoch, query_partitions, write_partitions, cells };
            coordinator.write_all(&frame.encode()).expect("send Assign");
        };
        let wait = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let rejected = || metrics.snapshot().counters.get("worker.rejected_assigns").copied();

        assign(1, 2, 1, &[0, 1]);
        assert!(worker.wait_assigned(Duration::from_secs(5)));
        // A zero grid dimension, then a cell outside the 2x1 grid.
        assign(2, 0, 1, &[]);
        assign(3, 2, 1, &[0, 2]);
        wait("two rejected Assigns", &|| rejected() == Some(2));
        assert_eq!((worker.epoch(), worker.cells()), (1, vec![0, 1]));
        // The control thread lives on: a well-formed table still applies.
        assign(4, 1, 1, &[0]);
        wait("the table of epoch 4", &|| worker.cells() == [0]);
        assert_eq!(worker.epoch(), 4);
        worker.shutdown();
    }
}
