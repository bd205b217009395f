//! Cluster configuration.

use invalidb_common::{ConfigError, Stage, TraceContext};
use invalidb_obs::MetricsRegistry;
use invalidb_query::{MongoQueryEngine, QueryEngine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identity of the worker process hosting this cluster in a multi-process
/// deployment: the name registered with the coordinator plus the *live*
/// assignment epoch (shared with the worker control loop, so trace stamps
/// always carry the epoch in force at processing time, not the epoch at
/// topology build time).
///
/// When set on a [`ClusterConfig`], sampled traces are stamped with this
/// identity at the ingestion and filtering stages — a cross-process trace
/// then names the workerd cell that matched the write.
#[derive(Debug, Clone)]
pub struct WorkerIdentity {
    name: Arc<str>,
    epoch: Arc<AtomicU64>,
}

impl WorkerIdentity {
    /// Creates an identity from the registered worker name and the live
    /// epoch cell (shared with whatever advances the epoch on `Assign`).
    pub fn new(name: impl Into<String>, epoch: Arc<AtomicU64>) -> WorkerIdentity {
        WorkerIdentity { name: name.into().into(), epoch }
    }

    /// The worker name as registered with the coordinator.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assignment epoch currently in force.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Stamps `stage` on a sampled trace, annotated with this identity.
    pub fn stamp(&self, trace: &mut TraceContext, stage: Stage) {
        trace.stamp_worker(stage, &self.name, self.epoch());
    }
}

/// Configuration of an InvaliDB cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of query partitions (grid rows). Scales the number of
    /// sustainable concurrent queries (§6.2).
    pub query_partitions: usize,
    /// Number of write partitions (grid columns). Scales sustainable write
    /// throughput (§6.3).
    pub write_partitions: usize,
    /// Parallelism of the sorting stage (scaled independently, §5.2).
    pub sorting_tasks: usize,
    /// Write-stream retention time: how long matching nodes keep received
    /// after-images for replay on subscription (§5.1; Baqend runs a few
    /// seconds).
    pub retention: Duration,
    /// Interval between heartbeat messages to application servers.
    pub heartbeat_interval: Duration,
    /// The pluggable query engine (§5.3).
    pub engine: Arc<dyn QueryEngine>,
    /// Per-task input queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Interval of every task's deadline-driven tick (retention expiry,
    /// TTL enforcement, gauges) and of the ingress's heartbeat check.
    pub tick_interval: Duration,
    /// `false` makes every cell evaluate every query of a write's scope
    /// instead of probing the multi-query index: the reference the
    /// equivalence tests compare the indexed cell against. Not a setting.
    #[doc(hidden)]
    pub multi_query_index: bool,
    /// The metrics registry the cluster reports into. Defaults to a fresh
    /// registry; pass a shared one to aggregate several components (e.g.
    /// cluster + app server) into a single snapshot.
    pub metrics: MetricsRegistry,
    /// Optional bind address (e.g. `"127.0.0.1:9464"`) for the admin
    /// endpoint serving `/metrics`, `/healthz`, `/queries` and `/flight`
    /// over HTTP. `None` (the default) disables the endpoint.
    pub admin_addr: Option<String>,
    /// Identity of the hosting worker process in a multi-process
    /// deployment. When set, sampled traces are stamped with the worker
    /// name and live epoch at the ingestion and filtering stages. `None`
    /// (the default) for single-process clusters.
    pub worker_identity: Option<WorkerIdentity>,
}

impl ClusterConfig {
    /// A `query_partitions` × `write_partitions` cluster with defaults
    /// matching the paper's evaluation setup.
    pub fn new(query_partitions: usize, write_partitions: usize) -> Self {
        Self {
            query_partitions,
            write_partitions,
            sorting_tasks: 2,
            retention: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(500),
            engine: Arc::new(MongoQueryEngine),
            queue_capacity: 8192,
            tick_interval: Duration::from_millis(50),
            multi_query_index: true,
            metrics: MetricsRegistry::new(),
            admin_addr: None,
            worker_identity: None,
        }
    }

    /// Checks the settings: at least one partition in each grid dimension
    /// and one sorting task, a non-zero queue capacity and tick interval.
    /// [`Cluster::start`](crate::Cluster::start) panics with the error's
    /// text on a config this rejects; call it first to get a `Result`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.query_partitions == 0 {
            return Err(ConfigError::new("query_partitions", "must be at least 1"));
        }
        if self.write_partitions == 0 {
            return Err(ConfigError::new("write_partitions", "must be at least 1"));
        }
        if self.sorting_tasks == 0 {
            return Err(ConfigError::new("sorting_tasks", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be at least 1"));
        }
        if self.tick_interval.is_zero() {
            return Err(ConfigError::new("tick_interval", "must be non-zero"));
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("query_partitions", &self.query_partitions)
            .field("write_partitions", &self.write_partitions)
            .field("sorting_tasks", &self.sorting_tasks)
            .field("retention", &self.retention)
            .field("engine", &self.engine.name())
            .field("worker_identity", &self.worker_identity.as_ref().map(WorkerIdentity::name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_valid() {
        assert_eq!(ClusterConfig::new(2, 3).validate(), Ok(()));
    }

    #[test]
    fn rejects_zero_partitions() {
        let err = ClusterConfig::new(0, 2).validate().unwrap_err();
        assert_eq!(err.field, "query_partitions");
        let err = ClusterConfig::new(2, 0).validate().unwrap_err();
        assert_eq!(err.field, "write_partitions");
    }

    #[test]
    fn rejects_zero_parallelism_and_capacity() {
        let base = || ClusterConfig::new(1, 1);
        assert!(ClusterConfig { sorting_tasks: 0, ..base() }.validate().is_err());
        assert!(ClusterConfig { queue_capacity: 0, ..base() }.validate().is_err());
        assert!(ClusterConfig { tick_interval: Duration::ZERO, ..base() }.validate().is_err());
    }

    #[test]
    fn settings_beside_the_checked_ones_pass() {
        let cfg = ClusterConfig {
            sorting_tasks: 5,
            retention: Duration::from_secs(9),
            queue_capacity: 64,
            admin_addr: Some("127.0.0.1:0".into()),
            ..ClusterConfig::new(1, 1)
        };
        assert_eq!(cfg.validate(), Ok(()));
    }
}
