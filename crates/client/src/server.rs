//! The application server.

use crate::error::Error;
use crate::notify::{decode_notify_payload, NotifyPayload};
use crate::rate::TokenBucket;
use crossbeam::channel::{unbounded, Receiver, Sender};
use invalidb_broker::{notify_topic, BrokerHandle, CLUSTER_TOPIC, EPOCH_TOPIC};
use invalidb_common::{
    ChangeItem, ClusterMessage, ConfigError, Document, Key, NotificationKind, NotifyEnvelope, QueryHash,
    QuerySpec, ResultItem, Stage, SubscriptionId, SubscriptionRequest, TenantId, TraceContext, WriteRef,
};
use invalidb_json::WireCodec;
use invalidb_obs::{
    AdminConfig, AdminServer, FlightEventKind, MetricsRegistry, MetricsSnapshot, StalenessRecorder,
};
use invalidb_query::normalize_spec;
use invalidb_store::{Store, UpdateSpec, WriteResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Application-server tunables.
///
/// Construct with [`AppServerConfig::default`] plus struct update syntax, or
/// — preferred — through the validating [`AppServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct AppServerConfig {
    /// Slack added to sorted bootstrap queries (§5.2).
    pub default_slack: u64,
    /// Subscription TTL granted to the cluster.
    pub ttl: Duration,
    /// How often TTL extensions are sent.
    pub ttl_refresh_interval: Duration,
    /// How long to wait for a subscription's first notification before
    /// re-publishing its Subscribe envelope. Registration travels over
    /// pub/sub with no delivery guarantee — a worker whose topology is
    /// still (re)building silently drops it — so the keeper retries until
    /// the first event proves the round trip.
    pub subscribe_retry_interval: Duration,
    /// Cluster silence tolerated before subscriptions are terminated with a
    /// connection error (heartbeat supervision).
    pub heartbeat_timeout: Duration,
    /// Token-bucket capacity for query renewals (burst).
    pub renewal_burst: u32,
    /// Token-bucket refill (renewals per second) — the poll frequency rate
    /// limit of §5.2.
    pub renewals_per_sec: f64,
    /// Upper bound for adaptive slack growth (§5.2 fn. 5: "using a higher
    /// slack value to increase robustness against deletes" on re-execution).
    /// Each renewal doubles the subscription's slack up to this cap.
    pub max_slack: u64,
    /// Stage-tracing sample rate: every Nth forwarded write carries a
    /// [`TraceContext`] that is stamped at every pipeline stage. `0`
    /// (default) disables tracing entirely — the write path then performs no
    /// atomic increment and no allocation.
    pub trace_sample_every: u64,
    /// Registry receiving this app server's counters, gauges and completed
    /// stage traces. Share one registry between the app server and the
    /// cluster (`ClusterConfig`'s `metrics` field) to get a single combined
    /// snapshot.
    pub metrics: MetricsRegistry,
    /// Optional bind address (e.g. `"127.0.0.1:9464"`) for an admin
    /// endpoint serving `/metrics`, `/healthz`, `/queries` and `/flight`
    /// over HTTP. `None` (the default) disables the endpoint.
    pub admin_addr: Option<String>,
    /// How many recently forwarded write envelopes to keep for epoch
    /// replay. When the cluster coordinator announces an epoch bump
    /// (worker failover, cells reassigned), the buffered writes are
    /// republished so replacement workers rebuild matching state; staleness
    /// guards on surviving matching nodes drop the duplicates. `0`
    /// disables buffering (and epoch-triggered replay with it).
    pub write_replay_buffer: usize,
}

impl Default for AppServerConfig {
    fn default() -> Self {
        Self {
            default_slack: 3,
            ttl: Duration::from_secs(60),
            ttl_refresh_interval: Duration::from_secs(10),
            subscribe_retry_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(5),
            renewal_burst: 16,
            renewals_per_sec: 20.0,
            max_slack: 64,
            trace_sample_every: 0,
            write_replay_buffer: 256,
            metrics: MetricsRegistry::new(),
            admin_addr: None,
        }
    }
}

impl AppServerConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> AppServerConfigBuilder {
        AppServerConfigBuilder { config: AppServerConfig::default() }
    }
}

/// Builder for [`AppServerConfig`] that rejects inconsistent settings at
/// [`build`](AppServerConfigBuilder::build) time instead of misbehaving at
/// runtime (e.g. a default slack above the adaptive-growth cap).
#[derive(Debug, Clone)]
pub struct AppServerConfigBuilder {
    config: AppServerConfig,
}

impl AppServerConfigBuilder {
    /// Slack added to sorted bootstrap queries.
    pub fn slack(mut self, slack: u64) -> Self {
        self.config.default_slack = slack;
        self
    }

    /// Cap for adaptive slack growth.
    pub fn max_slack(mut self, max_slack: u64) -> Self {
        self.config.max_slack = max_slack;
        self
    }

    /// Subscription TTL granted to the cluster.
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.config.ttl = ttl;
        self
    }

    /// How often TTL extensions are sent.
    pub fn ttl_refresh_interval(mut self, interval: Duration) -> Self {
        self.config.ttl_refresh_interval = interval;
        self
    }

    /// Retry cadence for unconfirmed subscription registrations.
    pub fn subscribe_retry_interval(mut self, interval: Duration) -> Self {
        self.config.subscribe_retry_interval = interval;
        self
    }

    /// Cluster silence tolerated before termination.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.config.heartbeat_timeout = timeout;
        self
    }

    /// Token-bucket capacity for query renewals.
    pub fn renewal_burst(mut self, burst: u32) -> Self {
        self.config.renewal_burst = burst;
        self
    }

    /// Token-bucket refill rate (renewals per second).
    pub fn renewals_per_sec(mut self, rate: f64) -> Self {
        self.config.renewals_per_sec = rate;
        self
    }

    /// Trace every Nth forwarded write (`0` disables tracing).
    pub fn trace_sample_every(mut self, every: u64) -> Self {
        self.config.trace_sample_every = every;
        self
    }

    /// Recent-write buffer size for epoch replay (`0` disables it).
    pub fn write_replay_buffer(mut self, capacity: usize) -> Self {
        self.config.write_replay_buffer = capacity;
        self
    }

    /// Registry receiving this app server's metrics and traces.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.config.metrics = registry;
        self
    }

    /// Binds an admin endpoint (`/metrics`, `/healthz`, `/queries`,
    /// `/flight`) to the given address, e.g. `"127.0.0.1:0"`.
    pub fn admin_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.admin_addr = Some(addr.into());
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<AppServerConfig, ConfigError> {
        let c = self.config;
        if c.max_slack == 0 {
            return Err(ConfigError::new("max_slack", "must be at least 1"));
        }
        if c.default_slack > c.max_slack {
            return Err(ConfigError::new(
                "slack",
                format!("default slack {} exceeds max_slack {}", c.default_slack, c.max_slack),
            ));
        }
        if c.renewal_burst == 0 {
            return Err(ConfigError::new("renewal_burst", "must be at least 1"));
        }
        if c.renewals_per_sec <= 0.0 || !c.renewals_per_sec.is_finite() {
            return Err(ConfigError::new("renewals_per_sec", "must be a positive finite rate"));
        }
        if c.ttl.is_zero() {
            return Err(ConfigError::new("ttl", "must be non-zero"));
        }
        if c.ttl_refresh_interval >= c.ttl {
            return Err(ConfigError::new(
                "ttl_refresh_interval",
                "must be shorter than the ttl, or subscriptions expire between refreshes",
            ));
        }
        if c.heartbeat_timeout.is_zero() {
            return Err(ConfigError::new("heartbeat_timeout", "must be non-zero"));
        }
        Ok(c)
    }
}

/// Event delivered to a subscribed client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// The initial query result (always the first event).
    Initial(Vec<ResultItem>),
    /// An incremental result change. Shared: every subscriber of the query
    /// the change belongs to holds a pointer to the one decoded copy.
    Change(Arc<ChangeItem>),
    /// The sorted query hit a maintenance error; the app server is renewing
    /// it (rate-limited). The local result stays valid; incremental deltas
    /// follow after renewal.
    MaintenanceError(String),
    /// Cluster heartbeats stopped: the subscription is terminated. Clients
    /// may resubscribe or fall back to pull-based queries.
    ConnectionLost,
    /// Updated value of a real-time aggregate query (extension, §8.1).
    Aggregate {
        /// Current aggregate value.
        value: invalidb_common::Value,
        /// Number of currently matching records.
        count: u64,
    },
}

struct SubEntry {
    spec: QuerySpec,
    rewritten: QuerySpec,
    /// Memoized hash of the normalized query (§5.1): attached to every
    /// follow-up request because it cannot be recomputed from those alone.
    query_hash: QueryHash,
    slack: u64,
    tx: Sender<(ClientEvent, Option<TraceContext>)>,
    needs_renewal: bool,
    /// Whether any notification (normally the initial result) has come back
    /// for this subscription. Registration is fire-and-forget on a pub/sub
    /// topic, so until the round trip is proven the keeper re-registers at
    /// [`AppServerConfig::subscribe_retry_interval`] — at-least-once
    /// delivery of the subscription itself.
    confirmed: bool,
    /// When the Subscribe envelope was last published (initial or renewal).
    last_register: Instant,
}

impl SubEntry {
    /// The registration this subscription publishes (initial or renewal),
    /// still without its initial result: the caller runs the bootstrap
    /// query outside the subscription table's lock and fills it in.
    fn request(&self, tenant: &TenantId, id: SubscriptionId, ttl: Duration) -> SubscriptionRequest {
        SubscriptionRequest {
            tenant: tenant.clone(),
            subscription: id,
            spec: self.spec.clone(),
            query_hash: self.query_hash,
            initial: Vec::new(),
            slack: self.slack,
            ttl_micros: ttl.as_micros() as u64,
            renewal: false,
        }
    }
}

struct Shared {
    subs: Mutex<HashMap<SubscriptionId, SubEntry>>,
    last_heartbeat: Mutex<Instant>,
    shutdown: AtomicBool,
    renewals_performed: AtomicU64,
    connection_lost: AtomicBool,
    /// Forwarded-write sequence number, the basis for trace sampling.
    writes_forwarded: AtomicU64,
    /// Ring of recently forwarded write envelopes, republished on epoch
    /// bumps so replacement workers catch up.
    write_ring: Mutex<std::collections::VecDeque<bytes::Bytes>>,
    /// Highest cluster epoch seen on the epoch topic.
    last_epoch: AtomicU64,
    /// Epoch-triggered replays performed (observability).
    epoch_replays: AtomicU64,
    /// Link-generation-triggered replays performed (observability).
    reconnect_replays: AtomicU64,
}

impl Shared {
    /// Repairs what the event layer may have lost (a failover epoch bump or
    /// a reconnected link): republishes the recent-write ring — matching
    /// nodes drop the duplicates by version — and marks every subscription
    /// for renewal and unconfirmed, so the keeper re-executes its bootstrap
    /// query and keeps re-registering until a notification proves the
    /// registration took (a renewal racing a rebuilding cluster or a
    /// session's SUBSCRIBE replay can be lost like any other envelope).
    /// Returns how many writes were replayed and subscriptions marked.
    fn repair(&self, broker: &BrokerHandle) -> (usize, usize) {
        let ring: Vec<bytes::Bytes> = self.write_ring.lock().iter().cloned().collect();
        for payload in &ring {
            broker.publish(CLUSTER_TOPIC, payload.clone());
        }
        let mut subs = self.subs.lock();
        for entry in subs.values_mut() {
            entry.needs_renewal = true;
            entry.confirmed = false;
        }
        (ring.len(), subs.len())
    }
}

/// An application server for one tenant.
///
/// Owns the connection to the primary [`Store`] and to the event layer.
/// Multi-tenancy: run one `AppServer` per application — a single InvaliDB
/// cluster serves them all (§5).
pub struct AppServer {
    tenant: TenantId,
    store: Arc<Store>,
    broker: BrokerHandle,
    config: AppServerConfig,
    shared: Arc<Shared>,
    renewal_bucket: Arc<TokenBucket>,
    threads: Vec<std::thread::JoinHandle<()>>,
    admin: Option<AdminServer>,
}

impl AppServer {
    /// Starts an application server attached to an event layer — an
    /// in-process [`invalidb_broker::Broker`], a [`BrokerHandle`], or any
    /// other [`invalidb_broker::EventLayer`] implementation (e.g.
    /// `invalidb-net`'s TCP-backed `RemoteBroker`).
    pub fn start(
        tenant: impl Into<TenantId>,
        store: Arc<Store>,
        broker: impl Into<BrokerHandle>,
        config: AppServerConfig,
    ) -> Self {
        let tenant = tenant.into();
        let broker: BrokerHandle = broker.into();
        let shared = Arc::new(Shared {
            subs: Mutex::new(HashMap::new()),
            last_heartbeat: Mutex::new(Instant::now()),
            shutdown: AtomicBool::new(false),
            renewals_performed: AtomicU64::new(0),
            connection_lost: AtomicBool::new(false),
            writes_forwarded: AtomicU64::new(0),
            write_ring: Mutex::new(std::collections::VecDeque::new()),
            last_epoch: AtomicU64::new(0),
            epoch_replays: AtomicU64::new(0),
            reconnect_replays: AtomicU64::new(0),
        });
        let renewal_bucket = Arc::new(TokenBucket::new(config.renewal_burst, config.renewals_per_sec));
        // Optional admin plane. A failed bind does not abort the server but
        // is counted so it cannot go unnoticed.
        let admin = config.admin_addr.as_deref().and_then(|addr| {
            match AdminServer::bind(addr, config.metrics.clone(), AdminConfig::default()) {
                Ok(server) => Some(server),
                Err(_) => {
                    config.metrics.inc("admin.bind_errors");
                    None
                }
            }
        });
        let mut server = Self {
            tenant: tenant.clone(),
            store,
            broker,
            config,
            shared,
            renewal_bucket,
            threads: Vec::new(),
            admin,
        };
        server.spawn_dispatcher();
        server.spawn_keeper();
        server.spawn_epoch_watcher();
        server
    }

    /// The tenant this server belongs to.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The primary store (for direct pull access in tests/tools).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Number of renewals performed so far (observability).
    pub fn renewals_performed(&self) -> u64 {
        self.shared.renewals_performed.load(Ordering::Relaxed)
    }

    /// Number of epoch-triggered write replays performed so far.
    pub fn epoch_replays(&self) -> u64 {
        self.shared.epoch_replays.load(Ordering::Relaxed)
    }

    /// Number of link-reconnect-triggered write replays performed so far:
    /// the keeper watches the event layer's connection generation and
    /// repairs the at-most-once gap a reconnect opens (ring replay plus
    /// subscription renewal).
    pub fn reconnect_replays(&self) -> u64 {
        self.shared.reconnect_replays.load(Ordering::Relaxed)
    }

    /// Highest cluster epoch observed on the epoch topic.
    pub fn cluster_epoch(&self) -> u64 {
        self.shared.last_epoch.load(Ordering::Relaxed)
    }

    /// Current slack of a subscription (grows adaptively with renewals).
    pub fn current_slack(&self, subscription: &Subscription) -> Option<u64> {
        self.shared.subs.lock().get(&subscription.id()).map(|e| e.slack)
    }

    /// A point-in-time snapshot of this app server's metrics: renewal and
    /// delivery counters, and — when [`AppServerConfig::trace_sample_every`]
    /// is set — per-stage latency histograms of completed traces. When the
    /// registry is shared with the cluster, the snapshot covers both sides.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.config.metrics.snapshot()
    }

    /// The live registry this app server reports into.
    pub fn registry(&self) -> MetricsRegistry {
        self.config.metrics.clone()
    }

    /// Where the admin endpoint actually listens (useful with a `:0` bind),
    /// or `None` when [`AppServerConfig::admin_addr`] was unset or the bind
    /// failed (counted as `admin.bind_errors`).
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin.as_ref().map(|a| a.local_addr())
    }

    /// The hosted admin server, when one is running.
    pub fn admin(&self) -> Option<&AdminServer> {
        self.admin.as_ref()
    }

    // ------------------------------------------------------------------
    // Pull-based interface
    // ------------------------------------------------------------------

    /// Executes a pull-based query.
    pub fn find(&self, spec: &QuerySpec) -> Result<Vec<ResultItem>, Error> {
        Ok(self.store.execute(spec)?)
    }

    // ------------------------------------------------------------------
    // Write interface (after-images forwarded to the cluster, §5.4)
    // ------------------------------------------------------------------

    /// Inserts a record.
    pub fn insert(&self, collection: &str, key: Key, doc: Document) -> Result<WriteResult, Error> {
        let w = self.store.insert(collection, key, doc)?;
        self.forward(collection, &w);
        Ok(w)
    }

    /// Inserts or replaces a record.
    pub fn save(&self, collection: &str, key: Key, doc: Document) -> Result<WriteResult, Error> {
        let w = self.store.save(collection, key, doc)?;
        self.forward(collection, &w);
        Ok(w)
    }

    /// Applies an update to a record.
    pub fn update(&self, collection: &str, key: Key, update: &UpdateSpec) -> Result<WriteResult, Error> {
        let w = self.store.update(collection, key, update)?;
        self.forward(collection, &w);
        Ok(w)
    }

    /// Deletes a record.
    pub fn delete(&self, collection: &str, key: Key) -> Result<WriteResult, Error> {
        let w = self.store.delete(collection, key)?;
        self.forward(collection, &w);
        Ok(w)
    }

    fn forward(&self, collection: &str, w: &WriteResult) {
        // The envelope is written in one pass from the parts at hand: the
        // after-image is the store's own copy, borrowed.
        let trace = self.next_trace();
        let mut payload = WireCodec.writer();
        WriteRef {
            tenant: &self.tenant,
            collection,
            key: &w.key,
            version: w.version,
            doc: w.doc.as_deref(),
            written_at: now_micros(),
            trace: trace.as_ref(),
        }
        .write_to(&mut payload);
        let payload = payload.finish();
        if self.config.write_replay_buffer > 0 {
            let mut ring = self.shared.write_ring.lock();
            if ring.len() >= self.config.write_replay_buffer {
                ring.pop_front();
            }
            ring.push_back(payload.clone());
        }
        self.broker.publish(CLUSTER_TOPIC, payload);
    }

    /// Starts a [`TraceContext`] on every Nth write. With sampling disabled
    /// (the default) this is a single branch: no atomics, no allocation.
    fn next_trace(&self) -> Option<TraceContext> {
        let every = self.config.trace_sample_every;
        if every == 0 {
            return None;
        }
        let seq = self.shared.writes_forwarded.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(every) {
            return None;
        }
        self.config.metrics.inc("appserver.traces_started");
        // Spread the id bits so concurrent app servers don't collide on the
        // shared sequence counter.
        let id = now_micros().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq;
        Some(TraceContext::start(id))
    }

    // ------------------------------------------------------------------
    // Push-based interface
    // ------------------------------------------------------------------

    /// Subscribes to a real-time query. The first event is the initial
    /// result; every subsequent event is an incremental update.
    pub fn subscribe(&self, spec: &QuerySpec) -> Result<Subscription, Error> {
        if spec.needs_aggregation_stage() && spec.needs_sorting_stage() {
            return Err(Error::BadQuery(
                "aggregate queries cannot be combined with sort/limit/offset".into(),
            ));
        }
        let id = SubscriptionId::generate();
        // Hash from normalized query attributes, memoized for the
        // subscription lifetime (§5.1).
        let normalized = normalize_spec(spec);
        let query_hash = normalized.stable_hash();
        let slack = if spec.needs_sorting_stage() { self.config.default_slack } else { 0 };
        let mut rewritten = spec.rewrite_for_bootstrap(slack);
        // Aggregate queries bootstrap from the plain matching set: the
        // aggregation stage computes the value; the store just supplies the
        // records.
        rewritten.aggregate = None;
        let initial = self.store.execute(&rewritten)?;
        let (tx, rx) = unbounded();
        let entry = SubEntry {
            spec: spec.clone(),
            rewritten,
            query_hash,
            slack,
            tx,
            needs_renewal: false,
            confirmed: false,
            last_register: Instant::now(),
        };
        let request =
            SubscriptionRequest { initial, ..entry.request(&self.tenant, id, self.config.ttl) };
        self.shared.subs.lock().insert(id, entry);
        publish(&self.broker, &ClusterMessage::Subscribe(request));
        self.config.metrics.flight().record(
            FlightEventKind::Subscribe,
            format!("{} sub={} {}", self.tenant, id.0, spec.collection),
        );
        Ok(Subscription {
            id,
            rx,
            result: crate::LiveResult::new(),
            latest_aggregate: None,
            last_trace: None,
        })
    }

    /// Cancels a subscription so it stops consuming cluster resources.
    pub fn unsubscribe(&self, subscription: &Subscription) {
        if let Some(entry) = self.shared.subs.lock().remove(&subscription.id) {
            cancel(&self.broker, &self.tenant, &self.config.metrics, subscription.id, &entry);
        }
    }

    // ------------------------------------------------------------------
    // Background machinery
    // ------------------------------------------------------------------

    /// Dispatcher: receives notification envelopes and heartbeats from the
    /// event layer and routes each envelope to the channels of the
    /// subscriptions it addresses; flags renewals. Sampled traces get their
    /// delivery stamp here and are recorded — complete — into the metrics
    /// registry.
    fn spawn_dispatcher(&mut self) {
        let sub = self.broker.subscribe(&notify_topic(self.tenant.as_str()));
        let dispatcher = Dispatcher::new(
            Arc::clone(&self.shared),
            self.broker.clone(),
            &self.config.metrics,
            &self.tenant,
        );
        let handle = std::thread::Builder::new()
            .name(format!("appserver-dispatch-{}", self.tenant))
            .spawn(move || {
                while !dispatcher.shared.shutdown.load(Ordering::Relaxed) {
                    if let Some(payload) = sub.recv_timeout(Duration::from_millis(50)) {
                        dispatcher.dispatch(&payload);
                    }
                }
            })
            .expect("spawn dispatcher");
        self.threads.push(handle);
    }

    /// Epoch watcher: when the cluster coordinator announces a failover
    /// (epoch bump with reassigned cells), republish the recent-write ring
    /// so replacement workers catch up, and mark every subscription for
    /// renewal so the keeper re-executes bootstrap queries against the
    /// store (fresh initial results repair client state). Surviving
    /// matching nodes drop the replayed duplicates via their per-key
    /// version guards.
    fn spawn_epoch_watcher(&mut self) {
        let sub = self.broker.subscribe(EPOCH_TOPIC);
        let shared = Arc::clone(&self.shared);
        let broker = self.broker.clone();
        let config = self.config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("appserver-epoch-{}", self.tenant))
            .spawn(move || {
                while !shared.shutdown.load(Ordering::Relaxed) {
                    let payload = match sub.recv_timeout(Duration::from_millis(50)) {
                        Some(p) => p,
                        None => continue,
                    };
                    let Ok(d) = invalidb_json::payload_to_document(&payload) else { continue };
                    let epoch = d.get("epoch").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
                    let reassigned = d.get("reassigned").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
                    let prev = shared.last_epoch.swap(epoch, Ordering::Relaxed);
                    config.metrics.set_gauge("appserver.cluster_epoch", epoch);
                    if epoch <= prev || reassigned == 0 {
                        // First sighting of a table that moved nothing, or
                        // an out-of-order notice: nothing to repair.
                        continue;
                    }
                    // Rebuilt cells see the recent stream again; the keeper
                    // re-executes bootstrap queries (rate-limited).
                    let (replayed, marked) = shared.repair(&broker);
                    shared.epoch_replays.fetch_add(1, Ordering::Relaxed);
                    config.metrics.inc("appserver.epoch_replays");
                    config.metrics.flight().record(
                        FlightEventKind::Failover,
                        format!(
                            "epoch {epoch}: replayed {replayed} writes, renewing {marked} subscriptions"
                        ),
                    );
                }
            })
            .expect("spawn epoch watcher");
        self.threads.push(handle);
    }

    /// Keeper: TTL extensions, heartbeat supervision, rate-limited renewals.
    fn spawn_keeper(&mut self) {
        let shared = Arc::clone(&self.shared);
        let store = Arc::clone(&self.store);
        let broker = self.broker.clone();
        let tenant = self.tenant.clone();
        let config = self.config.clone();
        let bucket = Arc::clone(&self.renewal_bucket);
        let handle = std::thread::Builder::new()
            .name(format!("appserver-keeper-{}", self.tenant))
            .spawn(move || {
                let mut last_ttl_refresh = Instant::now();
                let mut last_generation = broker.generation();
                while !shared.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                    // -1. Link-generation watch: a remote event layer that
                    //    reconnected silently dropped everything published
                    //    against the dying session (at-most-once, §5.3) —
                    //    writes *and* notifications in flight during the gap
                    //    are gone and nothing downstream will ever resend
                    //    them. Repair exactly like a failover epoch bump, so
                    //    fresh initial results rebuild the client-side live
                    //    results from the pull truth.
                    let generation = broker.generation();
                    if generation != last_generation {
                        last_generation = generation;
                        let (replayed, marked) = shared.repair(&broker);
                        shared.reconnect_replays.fetch_add(1, Ordering::Relaxed);
                        config.metrics.inc("appserver.reconnect_replays");
                        config.metrics.flight().record(
                            FlightEventKind::Reconnect,
                            format!(
                                "{tenant}: link generation {generation}: replayed {replayed} writes, \
                                 renewing {marked} subscriptions"
                            ),
                        );
                    }
                    // 0. At-least-once registration: a Subscribe that never
                    //    produced a notification was dropped somewhere (e.g.
                    //    a worker mid-rebuild) — re-register it.
                    {
                        let mut subs = shared.subs.lock();
                        for entry in subs.values_mut() {
                            if !entry.confirmed
                                && !entry.needs_renewal
                                && entry.last_register.elapsed() >= config.subscribe_retry_interval
                            {
                                entry.needs_renewal = true;
                                config.metrics.inc("appserver.subscribe_retries");
                            }
                        }
                    }
                    // 1. Renewals (poll-frequency rate limited, §5.2).
                    let pending: Vec<SubscriptionId> = shared
                        .subs
                        .lock()
                        .iter()
                        .filter(|(_, e)| e.needs_renewal)
                        .map(|(id, _)| *id)
                        .collect();
                    for id in pending {
                        if !bucket.try_take() {
                            break; // retry on the next keeper cycle
                        }
                        let request = {
                            let mut subs = shared.subs.lock();
                            match subs.get_mut(&id) {
                                Some(entry) => {
                                    entry.needs_renewal = false;
                                    entry.last_register = Instant::now();
                                    // Adaptive slack (§5.2 fn. 5): every
                                    // renewal doubles the slack (capped), so
                                    // delete-heavy queries stop thrashing
                                    // the database with re-executions.
                                    entry.slack = (entry.slack * 2).clamp(1, config.max_slack);
                                    entry.rewritten = entry.spec.rewrite_for_bootstrap(entry.slack);
                                    Some((
                                        entry.rewritten.clone(),
                                        entry.request(&tenant, id, config.ttl),
                                    ))
                                }
                                None => None,
                            }
                        };
                        if let Some((rewritten, request)) = request {
                            if let Ok(initial) = store.execute(&rewritten) {
                                shared.renewals_performed.fetch_add(1, Ordering::Relaxed);
                                config.metrics.inc("appserver.renewals");
                                publish(
                                    &broker,
                                    &ClusterMessage::Subscribe(SubscriptionRequest {
                                        initial,
                                        ..request
                                    }),
                                );
                            }
                        }
                    }
                    // 2. TTL extensions.
                    if last_ttl_refresh.elapsed() >= config.ttl_refresh_interval {
                        last_ttl_refresh = Instant::now();
                        let subs = shared.subs.lock();
                        for (id, entry) in subs.iter() {
                            publish(
                                &broker,
                                &ClusterMessage::ExtendTtl {
                                    tenant: tenant.clone(),
                                    subscription: *id,
                                    query_hash: entry.query_hash,
                                    ttl_micros: config.ttl.as_micros() as u64,
                                },
                            );
                        }
                    }
                    // Gauges are refreshed once per keeper cycle, never on
                    // the write or delivery hot paths.
                    config
                        .metrics
                        .set_gauge("appserver.active_subscriptions", shared.subs.lock().len() as u64);
                    // 3. Heartbeat supervision: terminate on cluster silence.
                    let silent_for = shared.last_heartbeat.lock().elapsed();
                    config
                        .metrics
                        .set_gauge("appserver.heartbeat_stale_ms", silent_for.as_millis() as u64);
                    if silent_for > config.heartbeat_timeout
                        && !shared.connection_lost.swap(true, Ordering::Relaxed)
                    {
                        config.metrics.inc("appserver.connection_lost");
                        config.metrics.flight().record(
                            FlightEventKind::Disconnect,
                            format!("{tenant}: cluster heartbeats stopped"),
                        );
                        let subs = shared.subs.lock();
                        for entry in subs.values() {
                            let _ = entry.tx.send((ClientEvent::ConnectionLost, None));
                        }
                    }
                }
            })
            .expect("spawn keeper");
        self.threads.push(handle);
    }
}

/// Publishes one control message to the cluster topic.
fn publish(broker: &BrokerHandle, msg: &ClusterMessage) {
    broker.publish(CLUSTER_TOPIC, WireCodec.encode(&msg.to_document()));
}

/// Tells the cluster that a subscription, already out of the subscription
/// table, is gone — whether its holder unsubscribed or dropped it.
fn cancel(
    broker: &BrokerHandle,
    tenant: &TenantId,
    metrics: &MetricsRegistry,
    subscription: SubscriptionId,
    entry: &SubEntry,
) {
    publish(
        broker,
        &ClusterMessage::Unsubscribe {
            tenant: tenant.clone(),
            subscription,
            query_hash: entry.query_hash,
        },
    );
    metrics.flight().record(
        FlightEventKind::Unsubscribe,
        format!("{tenant} sub={} {}", subscription.0, entry.spec.collection),
    );
}

/// The notify-topic consumer of one app server. Everything it cannot
/// deliver is counted, never silently skipped.
struct Dispatcher {
    shared: Arc<Shared>,
    /// Where the cancellation of an abandoned subscription goes.
    broker: BrokerHandle,
    /// The tenant whose notify topic this is; decoded envelopes share it.
    tenant: TenantId,
    metrics: MetricsRegistry,
    /// The tenant's `slo.<tenant>.staleness_us` histogram, resolved once.
    staleness: StalenessRecorder,
    /// `appserver.events_delivered`: one per delivered subscription.
    delivered: Arc<AtomicU64>,
    /// `appserver.notify_decode_errors`: payloads that are no envelope.
    decode_errors: Arc<AtomicU64>,
    /// `appserver.notify_unknown_subscription`: addressed ids without a
    /// live subscription (cancelled, or another app server's).
    unknown_subscription: Arc<AtomicU64>,
    /// `appserver.notify_channel_closed`: the subscriber dropped its
    /// [`Subscription`] without unsubscribing. Counted once per
    /// subscription, which is then cancelled.
    channel_closed: Arc<AtomicU64>,
}

impl Dispatcher {
    fn new(
        shared: Arc<Shared>,
        broker: BrokerHandle,
        metrics: &MetricsRegistry,
        tenant: &TenantId,
    ) -> Self {
        Self {
            shared,
            broker,
            metrics: metrics.clone(),
            staleness: metrics.staleness(tenant.as_str()),
            tenant: tenant.clone(),
            delivered: metrics.counter("appserver.events_delivered"),
            decode_errors: metrics.counter("appserver.notify_decode_errors"),
            unknown_subscription: metrics.counter("appserver.notify_unknown_subscription"),
            channel_closed: metrics.counter("appserver.notify_channel_closed"),
        }
    }

    /// Handles one payload from the notify topic.
    fn dispatch(&self, payload: &[u8]) {
        match decode_notify_payload(payload, &self.tenant) {
            Some(NotifyPayload::Heartbeat) => {
                *self.shared.last_heartbeat.lock() = Instant::now();
                self.shared.connection_lost.store(false, Ordering::Relaxed);
            }
            Some(NotifyPayload::Envelope(envelope)) => {
                // Any cluster traffic proves liveness.
                *self.shared.last_heartbeat.lock() = Instant::now();
                self.deliver(envelope);
            }
            None => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Hands every addressed subscription the one decoded change, under
    /// one acquisition of the subscription table.
    fn deliver(&self, envelope: NotifyEnvelope) {
        let NotifyEnvelope { subscriptions, kind, caused_by_write_at, trace, .. } = envelope;
        // Only baseline-carrying notifications confirm a registration: a
        // stray Change proves the pump is alive but cannot repair a live
        // result whose initial was lost (sorted top-k especially), so it
        // must not cancel the at-least-once re-register.
        let confirms =
            matches!(kind, NotificationKind::InitialResult { .. } | NotificationKind::Aggregate { .. });
        let renews = matches!(kind, NotificationKind::Error(_));
        let event = match kind {
            NotificationKind::InitialResult { items } => ClientEvent::Initial(items),
            NotificationKind::Change(change) => ClientEvent::Change(Arc::new(change)),
            NotificationKind::Error(e) => ClientEvent::MaintenanceError(e.reason),
            NotificationKind::Aggregate { value, count } => ClientEvent::Aggregate { value, count },
        };
        let mut subs = self.shared.subs.lock();
        let mut abandoned = Vec::new();
        let mut hand = |id: &SubscriptionId, event: ClientEvent| {
            let Some(entry) = subs.get_mut(id) else {
                self.unknown_subscription.fetch_add(1, Ordering::Relaxed);
                return;
            };
            entry.needs_renewal |= renews;
            entry.confirmed |= confirms;
            // Notification-staleness SLO: save → notify, per tenant, for
            // every delivered change (not just sampled traces).
            // Skew-guarded inside the registry.
            if caused_by_write_at > 0 {
                self.staleness.record(caused_by_write_at);
            }
            let mut trace = trace.clone();
            if let Some(t) = trace.as_mut() {
                t.stamp(Stage::Delivery);
                self.metrics.record_trace(t);
            }
            if entry.tx.send((event, trace)).is_ok() {
                self.delivered.fetch_add(1, Ordering::Relaxed);
            } else {
                self.channel_closed.fetch_add(1, Ordering::Relaxed);
                abandoned.push(*id);
            }
        };
        // Every addressee but the last gets a pointer to the change; the
        // last takes the event itself, so an initial result (always for one
        // subscriber) is never copied.
        if let Some((last, rest)) = subscriptions.split_last() {
            for id in rest {
                hand(id, event.clone());
            }
            hand(last, event);
        }
        // A subscription dropped without `unsubscribe` would otherwise stay
        // registered for good: the keeper keeps extending its TTL and the
        // cluster keeps matching it. Cancel it like `unsubscribe` does.
        for id in abandoned {
            if let Some(entry) = subs.remove(&id) {
                cancel(&self.broker, &self.tenant, &self.metrics, id, &entry);
            }
        }
    }
}

impl Drop for AppServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A live real-time query held by a client.
pub struct Subscription {
    id: SubscriptionId,
    rx: Receiver<(ClientEvent, Option<TraceContext>)>,
    result: crate::LiveResult,
    latest_aggregate: Option<(invalidb_common::Value, u64)>,
    last_trace: Option<TraceContext>,
}

impl Subscription {
    /// The unique subscription id (client-generated, §5 fn. 2).
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// An [`Iterator`] over incoming events — the one receive surface. Each
    /// yielded event is applied to the local [`result`](Subscription::result)
    /// before it is returned.
    ///
    /// By default [`Events::next`] waits up to one second per event and
    /// yields `None` on timeout; tune with [`Events::timeout`], switch to a
    /// pure `try_recv` with [`Events::non_blocking`], or enable hot-key
    /// batching with [`Events::coalesced`].
    ///
    /// ```ignore
    /// for event in subscription.events().timeout(Duration::from_secs(5)) {
    ///     println!("{event:?}");
    /// }
    /// ```
    pub fn events(&mut self) -> Events<'_> {
        Events {
            sub: self,
            timeout: Duration::from_secs(1),
            coalesce: None,
            buffer: std::collections::VecDeque::new(),
        }
    }

    fn recv_one(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let (event, trace) = self.rx.recv_timeout(timeout).ok()?;
        Some(self.absorb(event, trace))
    }

    fn try_recv_one(&mut self) -> Option<ClientEvent> {
        let (event, trace) = self.rx.try_recv().ok()?;
        Some(self.absorb(event, trace))
    }

    fn absorb(&mut self, event: ClientEvent, trace: Option<TraceContext>) -> ClientEvent {
        if let Some(t) = trace {
            self.last_trace = Some(t);
        }
        if let ClientEvent::Aggregate { value, count } = &event {
            self.latest_aggregate = Some((value.clone(), *count));
        }
        self.result.apply_event(&event);
        event
    }

    /// The locally maintained result.
    pub fn result(&self) -> &crate::LiveResult {
        &self.result
    }

    /// Latest value of an aggregate subscription, as `(value, match count)`.
    pub fn aggregate(&self) -> Option<&(invalidb_common::Value, u64)> {
        self.latest_aggregate.as_ref()
    }

    /// The stage trace of the most recent sampled event delivered to this
    /// subscription, when tracing is enabled
    /// ([`AppServerConfig::trace_sample_every`]). Its
    /// [`breakdown`](TraceContext::breakdown) shows where the write→
    /// notification latency was spent.
    pub fn last_trace(&self) -> Option<&TraceContext> {
        self.last_trace.as_ref()
    }

    /// Waits up to `window` for a first event, keeps collecting until the
    /// window closes, applies everything to the local result, and returns
    /// the batch collapsed to its net effect (hot-key churn disappears).
    fn recv_coalesced(&mut self, window: Duration) -> Vec<ClientEvent> {
        let first = match self.recv_one(window) {
            Some(ev) => ev,
            None => return Vec::new(),
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + window;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.recv_one(deadline - now) {
                Some(ev) => batch.push(ev),
                None => break,
            }
        }
        crate::coalesce::collapse(batch)
    }
}

/// Iterator over a subscription's incoming events, created by
/// [`Subscription::events`]. Every yielded event has already been applied to
/// the subscription's local result.
///
/// `next()` returns `None` when no event arrived within the configured
/// timeout — the subscription stays usable; call `events()` again (or keep
/// the iterator) to continue receiving.
pub struct Events<'a> {
    sub: &'a mut Subscription,
    timeout: Duration,
    coalesce: Option<Duration>,
    buffer: std::collections::VecDeque<ClientEvent>,
}

impl Events<'_> {
    /// Maximum wait per event (default: one second).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Never block: yield only events that are already queued
    /// (`try_recv` semantics).
    pub fn non_blocking(mut self) -> Self {
        self.timeout = Duration::ZERO;
        self
    }

    /// Opt-in coalescing: gather events for `window` per batch and yield the
    /// batch collapsed to its net effect ([`crate::collapse`]) — hot-key
    /// churn disappears, add→remove pairs cancel.
    pub fn coalesced(mut self, window: Duration) -> Self {
        self.coalesce = Some(window);
        self
    }
}

impl Iterator for Events<'_> {
    type Item = ClientEvent;

    fn next(&mut self) -> Option<ClientEvent> {
        if let Some(ev) = self.buffer.pop_front() {
            return Some(ev);
        }
        match self.coalesce {
            Some(window) => {
                self.buffer.extend(self.sub.recv_coalesced(window));
                self.buffer.pop_front()
            }
            None if self.timeout.is_zero() => self.sub.try_recv_one(),
            None => self.sub.recv_one(self.timeout),
        }
    }
}

fn now_micros() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}
