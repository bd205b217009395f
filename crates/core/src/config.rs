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
    /// Parallelism of the aggregation stage (extension, §8.1).
    pub aggregation_tasks: usize,
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
            aggregation_tasks: 1,
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

    /// A validating builder for the same settings; rejects inconsistent
    /// combinations (zero partitions, zero queue capacity, …) at
    /// construction time instead of panicking deep inside `Cluster::start`.
    pub fn builder(query_partitions: usize, write_partitions: usize) -> ClusterConfigBuilder {
        ClusterConfigBuilder { config: ClusterConfig::new(query_partitions, write_partitions) }
    }

    /// Overrides the query engine.
    pub fn with_engine(mut self, engine: Arc<dyn QueryEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the retention window.
    pub fn with_retention(mut self, retention: Duration) -> Self {
        self.retention = retention;
        self
    }
}

/// Builder returned by [`ClusterConfig::builder`]. Each setter overrides
/// one field; [`ClusterConfigBuilder::build`] validates the combination.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the sorting-stage parallelism.
    pub fn sorting_tasks(mut self, n: usize) -> Self {
        self.config.sorting_tasks = n;
        self
    }

    /// Sets the aggregation-stage parallelism.
    pub fn aggregation_tasks(mut self, n: usize) -> Self {
        self.config.aggregation_tasks = n;
        self
    }

    /// Sets the write-stream retention window.
    pub fn retention(mut self, retention: Duration) -> Self {
        self.config.retention = retention;
        self
    }

    /// Sets the heartbeat interval.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    /// Sets the pluggable query engine.
    pub fn engine(mut self, engine: Arc<dyn QueryEngine>) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the per-task input queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the tasks' tick interval.
    pub fn tick_interval(mut self, interval: Duration) -> Self {
        self.config.tick_interval = interval;
        self
    }

    /// Uses a shared metrics registry instead of a fresh one.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.config.metrics = metrics;
        self
    }

    /// Binds the admin endpoint (`/metrics`, `/healthz`, `/queries`,
    /// `/flight`) to the given address, e.g. `"127.0.0.1:0"`.
    pub fn admin_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.admin_addr = Some(addr.into());
        self
    }

    /// Identifies the hosting worker process; sampled traces stamped by
    /// this cluster then carry its name and live assignment epoch.
    pub fn worker_identity(mut self, identity: WorkerIdentity) -> Self {
        self.config.worker_identity = Some(identity);
        self
    }

    /// Validates the settings and returns the config.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let c = &self.config;
        if c.query_partitions == 0 {
            return Err(ConfigError::new("query_partitions", "must be at least 1"));
        }
        if c.write_partitions == 0 {
            return Err(ConfigError::new("write_partitions", "must be at least 1"));
        }
        if c.sorting_tasks == 0 {
            return Err(ConfigError::new("sorting_tasks", "must be at least 1"));
        }
        if c.aggregation_tasks == 0 {
            return Err(ConfigError::new("aggregation_tasks", "must be at least 1"));
        }
        if c.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be at least 1"));
        }
        if c.tick_interval.is_zero() {
            return Err(ConfigError::new("tick_interval", "must be non-zero"));
        }
        Ok(self.config)
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
    fn builder_defaults_match_new() {
        let built = ClusterConfig::builder(2, 3).build().unwrap();
        let plain = ClusterConfig::new(2, 3);
        assert_eq!(built.query_partitions, plain.query_partitions);
        assert_eq!(built.write_partitions, plain.write_partitions);
        assert_eq!(built.sorting_tasks, plain.sorting_tasks);
        assert_eq!(built.retention, plain.retention);
        assert_eq!(built.queue_capacity, plain.queue_capacity);
    }

    #[test]
    fn builder_rejects_zero_partitions() {
        let err = ClusterConfig::builder(0, 2).build().unwrap_err();
        assert_eq!(err.field, "query_partitions");
        let err = ClusterConfig::builder(2, 0).build().unwrap_err();
        assert_eq!(err.field, "write_partitions");
    }

    #[test]
    fn builder_rejects_zero_parallelism_and_capacity() {
        assert!(ClusterConfig::builder(1, 1).sorting_tasks(0).build().is_err());
        assert!(ClusterConfig::builder(1, 1).aggregation_tasks(0).build().is_err());
        assert!(ClusterConfig::builder(1, 1).queue_capacity(0).build().is_err());
        assert!(ClusterConfig::builder(1, 1).tick_interval(Duration::ZERO).build().is_err());
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = ClusterConfig::builder(1, 1)
            .sorting_tasks(5)
            .retention(Duration::from_secs(9))
            .queue_capacity(64)
            .admin_addr("127.0.0.1:0")
            .build()
            .unwrap();
        assert_eq!(cfg.sorting_tasks, 5);
        assert_eq!(cfg.retention, Duration::from_secs(9));
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.admin_addr.as_deref(), Some("127.0.0.1:0"));
    }
}
