//! The application server.

use crate::error::Error;
use crate::notify::{decode_epoch_notice, decode_notify_into, NotifyPayload};
use crate::rate::TokenBucket;
use crossbeam::channel::{unbounded, Receiver, Sender};
use invalidb_broker::{notify_topic, BrokerHandle, Bytes, CLUSTER_TOPIC, EPOCH_TOPIC};
use invalidb_common::trace::now_micros;
use invalidb_common::{
    ChangeItem, Clock, ClusterMessage, ConfigError, DocRef, Document, EpochNotice, Histogram, Key,
    NotificationKind, NotifyEnvelope, QueryHash, QuerySpec, ResultItem, Stage, SubscribeRef,
    SubscriptionId, SystemClock, TenantId, Timestamp, TraceContext, WriteRef,
};
use invalidb_json::WireCodec;
use invalidb_obs::{
    AdminConfig, AdminServer, FlightEventKind, MetricsRegistry, MetricsSnapshot, StalenessRecorder,
};
use invalidb_query::normalize_spec;
use invalidb_store::{Row, Store, UpdateSpec, WriteResult};
use invalidb_stream::{task, Task};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Application-server tunables.
///
/// Construct with [`AppServerConfig::default`] plus struct update syntax.
/// [`AppServer::start`] checks the settings with
/// [`validate`](AppServerConfig::validate) and panics on a config it
/// rejects; call `validate` first to get a `Result`.
#[derive(Debug, Clone)]
pub struct AppServerConfig {
    /// Slack added to sorted bootstrap queries (§5.2).
    pub default_slack: u64,
    /// Subscription TTL granted to the cluster. TTL extensions are sent
    /// six times per TTL.
    pub ttl: Duration,
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
    /// Checks the settings: a non-zero `max_slack` at or above the default
    /// slack, a non-zero renewal burst, a positive finite renewal rate, and
    /// non-zero TTL and heartbeat timeout.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_slack == 0 {
            return Err(ConfigError::new("max_slack", "must be at least 1"));
        }
        if self.default_slack > self.max_slack {
            return Err(ConfigError::new(
                "slack",
                format!("default slack {} exceeds max_slack {}", self.default_slack, self.max_slack),
            ));
        }
        if self.renewal_burst == 0 {
            return Err(ConfigError::new("renewal_burst", "must be at least 1"));
        }
        if self.renewals_per_sec <= 0.0 || !self.renewals_per_sec.is_finite() {
            return Err(ConfigError::new("renewals_per_sec", "must be a positive finite rate"));
        }
        if self.ttl.is_zero() {
            return Err(ConfigError::new("ttl", "must be non-zero"));
        }
        if self.heartbeat_timeout.is_zero() {
            return Err(ConfigError::new("heartbeat_timeout", "must be non-zero"));
        }
        Ok(())
    }

    /// How often TTL extensions are sent: a sixth of the TTL (10 s at the
    /// default).
    fn ttl_refresh_interval(&self) -> Duration {
        self.ttl / 6
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
}

struct SubEntry {
    spec: QuerySpec,
    /// Memoized hash of the normalized query (§5.1): attached to every
    /// follow-up request because it cannot be recomputed from those alone.
    query_hash: QueryHash,
    slack: u64,
    tx: Sender<(ClientEvent, Option<TraceContext>)>,
    /// Whether a renewal is queued (or being published): at most one per
    /// subscription is.
    needs_renewal: bool,
    /// Whether any notification (normally the initial result) has come back
    /// for this subscription. Registration is fire-and-forget on a pub/sub
    /// topic, so until the round trip is proven the keeper re-registers at
    /// [`AppServerConfig::subscribe_retry_interval`] — at-least-once
    /// delivery of the subscription itself.
    confirmed: bool,
    /// When the Subscribe envelope was last published (initial or renewal).
    last_register: Timestamp,
}

impl SubEntry {
    /// The registration this subscription publishes (initial or renewal),
    /// written with the rows of its bootstrap query (run by the caller
    /// outside the subscription table's lock) spliced in as the store
    /// holds them.
    fn request(&self, tenant: &TenantId, id: SubscriptionId, ttl: Duration, rows: &[Row]) -> Bytes {
        let mut payload = WireCodec.writer();
        SubscribeRef {
            tenant,
            subscription: id,
            spec: &self.spec,
            query_hash: self.query_hash,
            slack: self.slack,
            ttl_micros: ttl.as_micros() as u64,
            renewal: false,
            initial: rows.iter().map(Row::item),
        }
        .write_to(&mut payload);
        payload.finish()
    }
}

/// A subscription waiting in one of the keeper's queues, with the time it
/// joined (a renewal) or was published (a registration).
type Queued = (SubscriptionId, Timestamp);

/// The subscription table and the keeper's agenda, under one lock.
///
/// The keeper never scans the table for work. The dispatcher queues a
/// renewal when it delivers a maintenance error, repair queues every
/// subscription once, and every published registration that is not yet
/// confirmed joins a FIFO: the retry interval is one constant, so
/// publication order is due order and the head is the next retry. Every
/// method takes the current time, so the agenda runs on synthetic time in
/// tests.
struct Table {
    entries: HashMap<SubscriptionId, SubEntry>,
    /// Renewals waiting for a token, oldest first. An id may outlive its
    /// subscription here; it is dropped when it reaches the head.
    renewals: VecDeque<Queued>,
    /// Registrations awaiting their confirmation, in publication order.
    registrations: VecDeque<Queued>,
    /// [`AppServerConfig::subscribe_retry_interval`].
    retry_interval: Duration,
}

impl Table {
    fn new(retry_interval: Duration) -> Self {
        Self {
            entries: HashMap::new(),
            renewals: VecDeque::new(),
            registrations: VecDeque::new(),
            retry_interval,
        }
    }

    /// Adds a subscription whose registration is published at
    /// `entry.last_register`.
    fn insert(&mut self, id: SubscriptionId, entry: SubEntry) {
        self.registrations.push_back((id, entry.last_register));
        self.entries.insert(id, entry);
    }

    /// Queues a renewal of `id` unless one is queued already. Returns
    /// whether the queue was empty before: only then may the keeper be
    /// asleep without a renewal deadline, and need a wake-up.
    fn queue_renewal(&mut self, id: SubscriptionId, now: Timestamp) -> bool {
        let Some(entry) = self.entries.get_mut(&id) else { return false };
        if std::mem::replace(&mut entry.needs_renewal, true) {
            return false;
        }
        self.renewals.push_back((id, now));
        self.renewals.len() == 1
    }

    /// Marks every subscription unconfirmed and queues a renewal of each
    /// that has none queued. Returns how many subscriptions there are.
    fn repair(&mut self, now: Timestamp) -> usize {
        for (id, entry) in self.entries.iter_mut() {
            entry.confirmed = false;
            if !std::mem::replace(&mut entry.needs_renewal, true) {
                self.renewals.push_back((*id, now));
            }
        }
        self.entries.len()
    }

    /// Queues a renewal of every registration whose retry is due at `now`
    /// and still wanted, and drops the heads that are no longer wanted,
    /// due or not, so that the keeper does not wake for them. Returns how
    /// many were queued.
    fn queue_due_retries(&mut self, now: Timestamp) -> u64 {
        let mut retried = 0;
        while let Some(&(id, published)) = self.registrations.front() {
            // A confirmed registration needs no retry, a newer one has its
            // own place in the queue, and a queued renewal registers again.
            let wanted = self.entries.get(&id).is_some_and(|entry| {
                !entry.confirmed && entry.last_register == published && !entry.needs_renewal
            });
            if wanted && now < published.after(self.retry_interval) {
                break;
            }
            self.registrations.pop_front();
            let Some(entry) = self.entries.get_mut(&id).filter(|_| wanted) else { continue };
            entry.needs_renewal = true;
            self.renewals.push_back((id, now));
            retried += 1;
        }
        give_back_if_drained(&mut self.registrations);
        retried
    }

    /// Takes the oldest queued renewal of a live subscription off the
    /// queue, and a token for it. `None` when the queue or the bucket is
    /// empty.
    fn next_renewal(&mut self, now: Timestamp, bucket: &mut TokenBucket) -> Option<Queued> {
        while let Some(&(id, _)) = self.renewals.front() {
            if self.entries.contains_key(&id) {
                break;
            }
            self.renewals.pop_front();
        }
        if self.renewals.is_empty() || !bucket.try_take(now) {
            return None;
        }
        let next = self.renewals.pop_front();
        give_back_if_drained(&mut self.renewals);
        next
    }

    /// Records that a renewal of `id` with `slack` was published at `now`:
    /// the subscription may ask for the next one, and an unconfirmed
    /// registration is retried from here. `None` if it was cancelled
    /// meanwhile.
    fn renewed(&mut self, id: SubscriptionId, slack: u64, now: Timestamp) -> Option<&SubEntry> {
        let entry = self.entries.get_mut(&id)?;
        entry.needs_renewal = false;
        entry.slack = slack;
        entry.last_register = now;
        if !entry.confirmed {
            self.registrations.push_back((id, now));
        }
        Some(entry)
    }

    /// When the table next has work for the keeper: the head renewal as
    /// soon as the bucket has a token for it, the head registration when
    /// its retry falls due.
    fn next_due(&self, now: Timestamp, bucket: &TokenBucket) -> Option<Timestamp> {
        let renewal = (!self.renewals.is_empty()).then(|| now.after(bucket.time_until_available(now)));
        let retry =
            self.registrations.front().map(|&(_, published)| published.after(self.retry_interval));
        renewal.into_iter().chain(retry).min()
    }
}

/// Frees an emptied queue's buffer once it is large: a burst (the
/// registrations of a whole set-up, a repair) does not keep its memory, and
/// a queue that keeps refilling a few entries keeps its small buffer.
fn give_back_if_drained(queue: &mut VecDeque<Queued>) {
    if queue.is_empty() && queue.capacity() > 64 {
        *queue = VecDeque::new();
    }
}

struct Shared {
    subs: Mutex<Table>,
    /// The time base of every deadline of the app server.
    clock: SystemClock,
    /// When the cluster was last heard from, in `clock` microseconds.
    last_heartbeat: AtomicU64,
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
    /// The state of a new app server.
    fn new(config: &AppServerConfig) -> Arc<Shared> {
        let clock = SystemClock::new();
        let shared = Shared {
            subs: Mutex::new(Table::new(config.subscribe_retry_interval)),
            last_heartbeat: AtomicU64::new(clock.now().micros()),
            clock,
            renewals_performed: AtomicU64::new(0),
            connection_lost: AtomicBool::new(false),
            writes_forwarded: AtomicU64::new(0),
            write_ring: Mutex::new(std::collections::VecDeque::new()),
            last_epoch: AtomicU64::new(0),
            epoch_replays: AtomicU64::new(0),
            reconnect_replays: AtomicU64::new(0),
        };
        Arc::new(shared)
    }

    /// Repairs what the event layer may have lost (a failover epoch bump or
    /// a reconnected link): republishes the recent-write ring — matching
    /// nodes drop the duplicates by version — and queues every subscription
    /// once for renewal, unconfirmed, so the keeper re-executes its
    /// bootstrap query and keeps re-registering until a notification proves
    /// the registration took (a renewal racing a rebuilding cluster or a
    /// session's SUBSCRIBE replay can be lost like any other envelope).
    /// Returns how many writes were replayed and subscriptions queued; a
    /// caller other than the keeper wakes it.
    fn repair(&self, broker: &BrokerHandle) -> (usize, usize) {
        let ring: Vec<bytes::Bytes> = self.write_ring.lock().iter().cloned().collect();
        for payload in &ring {
            broker.publish(CLUSTER_TOPIC, payload.clone());
        }
        let marked = self.subs.lock().repair(self.clock.now());
        (ring.len(), marked)
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
    /// The event-layer subscriptions the dispatcher and the epoch watcher
    /// read. Dropping them ends both, and with them the keeper: they hold
    /// the only senders of its wake-up channel.
    inputs: Vec<invalidb_broker::Subscription>,
    threads: Vec<std::thread::JoinHandle<()>>,
    admin: Option<AdminServer>,
}

impl AppServer {
    /// Starts an application server attached to an event layer — an
    /// in-process [`invalidb_broker::Broker`], a [`BrokerHandle`], or any
    /// other [`invalidb_broker::EventLayer`] implementation (e.g.
    /// `invalidb-net`'s TCP-backed `RemoteBroker`).
    ///
    /// Panics with the [`AppServerConfig::validate`] error on an invalid
    /// config.
    pub fn start(
        tenant: impl Into<TenantId>,
        store: Arc<Store>,
        broker: impl Into<BrokerHandle>,
        config: AppServerConfig,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let tenant = tenant.into();
        let broker: BrokerHandle = broker.into();
        let shared = Shared::new(&config);
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
        let mut server =
            Self { tenant, store, broker, config, shared, inputs: vec![], threads: vec![], admin };
        // The keeper's input is its wake-up channel; the dispatcher and the
        // epoch watcher hold its senders.
        let (wake, woken) = unbounded();
        let dispatcher = Dispatcher::new(&server, wake.clone());
        server.spawn_reader(&notify_topic(server.tenant.as_str()), "dispatch", dispatcher);
        let watcher = EpochWatcher::new(&server, wake);
        server.spawn_reader(EPOCH_TOPIC, "epoch", watcher);
        let mut keeper = Keeper::new(&server);
        let clock = server.shared.clock.clone();
        // Its work is counted in `appserver.renewals` and the gauges of its
        // housekeeping; its task series are left unexported.
        let series = task::Series::new(&MetricsRegistry::new(), "keeper");
        server.spawn("keeper", move || task::run(&woken, &mut keeper, &clock, &series));
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
        self.shared.subs.lock().entries.get(&subscription.id()).map(|e| e.slack)
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
        // after-image is the store's own bytes, copied in as they are.
        let trace = self.next_trace();
        let mut payload = WireCodec.writer();
        WriteRef {
            tenant: &self.tenant,
            collection,
            key: &w.key,
            version: w.version,
            doc: w.doc.as_ref().map(|doc| DocRef::Encoded(doc)),
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
        let id = SubscriptionId::generate();
        // Hash from normalized query attributes, memoized for the
        // subscription lifetime (§5.1).
        let normalized = normalize_spec(spec);
        let query_hash = normalized.stable_hash();
        let slack = if spec.needs_sorting_stage() { self.config.default_slack } else { 0 };
        let rows = self.store.find(&spec.rewrite_for_bootstrap(slack))?;
        let (tx, rx) = unbounded();
        let entry = SubEntry {
            spec: spec.clone(),
            query_hash,
            slack,
            tx,
            needs_renewal: false,
            confirmed: false,
            last_register: self.shared.clock.now(),
        };
        let payload = entry.request(&self.tenant, id, self.config.ttl, &rows);
        self.shared.subs.lock().insert(id, entry);
        self.broker.publish(CLUSTER_TOPIC, payload);
        self.config.metrics.flight().record(
            FlightEventKind::Subscribe,
            format!("{} sub={} {}", self.tenant, id.0, spec.collection),
        );
        Ok(Subscription { id, rx, result: crate::LiveResult::new(), last_trace: None })
    }

    /// Cancels a subscription so it stops consuming cluster resources.
    pub fn unsubscribe(&self, subscription: &Subscription) {
        let entry = self.shared.subs.lock().entries.remove(&subscription.id);
        if let Some(entry) = entry {
            cancel(&self.broker, &self.tenant, &self.config.metrics, subscription.id, &entry);
        }
    }

    // ------------------------------------------------------------------
    // Background machinery
    // ------------------------------------------------------------------

    /// Starts one of the server's threads, `appserver-<name>-<tenant>`.
    fn spawn(&mut self, name: &str, body: impl FnOnce() + Send + 'static) {
        let name = format!("appserver-{name}-{}", self.tenant);
        self.threads.push(std::thread::Builder::new().name(name).spawn(body).expect("spawn thread"));
    }

    /// Runs `task` on its own thread over a subscription to `topic`,
    /// reporting its [`task::Series`] under `appserver.<name>`. The server
    /// keeps the subscription: dropping it ends the thread.
    fn spawn_reader(&mut self, topic: &str, name: &str, mut task: impl Task<Bytes> + Send + 'static) {
        let input = self.broker.subscribe(topic);
        let rx = input.receiver().clone();
        let series = task::Series::new(&self.config.metrics, &format!("appserver.{name}"));
        let clock = self.shared.clock.clone();
        self.spawn(name, move || task::run(&rx, &mut task, &clock, &series));
        self.inputs.push(input);
    }
}

/// How often the keeper runs its constant-time checks: the link generation,
/// the cluster's silence and the gauges. It bounds how late a reconnect is
/// repaired and a silent cluster noticed, and how long a registration
/// published while the keeper slept goes unseen (subscribing does not wake
/// the keeper; its retry is half a second away by default).
const HOUSEKEEPING: Duration = Duration::from_millis(50);

/// The app server's task for everything that happens at a time rather than
/// on a message. Its input is a wake-up channel, and every turn of it ends
/// with a tick ([`Task::TICK_AFTER_INPUT`]); otherwise it sleeps until the
/// earliest of its deadlines: the head renewal's token, the head
/// registration's retry, the next TTL refresh, the next housekeeping. The
/// dispatcher wakes it when it queues a renewal into an empty queue, the
/// epoch watcher after a repair.
struct Keeper {
    shared: Arc<Shared>,
    store: Arc<Store>,
    broker: BrokerHandle,
    tenant: TenantId,
    config: AppServerConfig,
    /// The poll-frequency rate limit of §5.2: one token per renewal.
    bucket: TokenBucket,
    next_housekeeping: Timestamp,
    next_ttl_refresh: Timestamp,
    /// The event layer's connection generation at the last housekeeping.
    last_generation: u64,
    /// `appserver.renewals`.
    renewals: Arc<AtomicU64>,
    /// `appserver.renewal_wait_us`: from the request of a renewal (delivery
    /// of the maintenance error, a repair, a due retry) to its publication.
    renewal_wait_us: Arc<Mutex<Histogram>>,
}

impl Keeper {
    fn new(server: &AppServer) -> Self {
        let metrics = &server.config.metrics;
        let now = server.shared.clock.now();
        let config = &server.config;
        Keeper {
            shared: Arc::clone(&server.shared),
            store: Arc::clone(&server.store),
            broker: server.broker.clone(),
            tenant: server.tenant.clone(),
            bucket: TokenBucket::new(config.renewal_burst, config.renewals_per_sec, now),
            next_housekeeping: now,
            next_ttl_refresh: now.after(config.ttl_refresh_interval()),
            last_generation: server.broker.generation(),
            renewals: metrics.counter("appserver.renewals"),
            renewal_wait_us: metrics.histogram("appserver.renewal_wait_us"),
            config: config.clone(),
        }
    }

    /// Publishes queued renewals, oldest first and one token each, until
    /// the queue or the bucket runs dry.
    fn renew(&mut self) {
        loop {
            let now = self.shared.clock.now();
            let (queued, slack, query) = {
                let mut table = self.shared.subs.lock();
                let Some(queued) = table.next_renewal(now, &mut self.bucket) else { return };
                let Some(entry) = table.entries.get(&queued.0) else { continue };
                // Adaptive slack (§5.2 fn. 5): every renewal doubles the
                // slack (capped), so delete-heavy queries stop thrashing the
                // database with re-executions.
                let slack = (entry.slack * 2).clamp(1, self.config.max_slack);
                (queued, slack, entry.spec.rewrite_for_bootstrap(slack))
            };
            let Ok(rows) = self.store.find(&query) else {
                // The renewal stays wanted: back in line, flag still set.
                self.shared.subs.lock().renewals.push_back(queued);
                continue;
            };
            let now = self.shared.clock.now();
            let payload = {
                let mut table = self.shared.subs.lock();
                let Some(entry) = table.renewed(queued.0, slack, now) else { continue };
                entry.request(&self.tenant, queued.0, self.config.ttl, &rows)
            };
            self.broker.publish(CLUSTER_TOPIC, payload);
            self.shared.renewals_performed.fetch_add(1, Ordering::Relaxed);
            self.renewals.fetch_add(1, Ordering::Relaxed);
            self.renewal_wait_us.lock().record(now.since(queued.1).as_micros() as u64);
        }
    }

    /// TTL extensions, one per subscription, published after the table's
    /// lock is released: the dispatcher delivers meanwhile.
    fn refresh_ttls(&self) {
        let live: Vec<(SubscriptionId, QueryHash)> = {
            let table = self.shared.subs.lock();
            table.entries.iter().map(|(id, entry)| (*id, entry.query_hash)).collect()
        };
        for (subscription, query_hash) in live {
            publish(
                &self.broker,
                &ClusterMessage::ExtendTtl {
                    tenant: self.tenant.clone(),
                    subscription,
                    query_hash,
                    ttl_micros: self.config.ttl.as_micros() as u64,
                },
            );
        }
    }

    /// The link-generation watch, the gauges and heartbeat supervision.
    fn housekeeping(&mut self, now: Timestamp) {
        // A remote event layer that reconnected silently dropped everything
        // published against the dying session (at-most-once, §5.3) — writes
        // *and* notifications in flight during the gap are gone and nothing
        // downstream will ever resend them. Repair exactly like a failover
        // epoch bump, so fresh initial results rebuild the client-side live
        // results from the pull truth.
        let generation = self.broker.generation();
        if generation != self.last_generation {
            self.last_generation = generation;
            let (replayed, marked) = self.shared.repair(&self.broker);
            self.shared.reconnect_replays.fetch_add(1, Ordering::Relaxed);
            self.config.metrics.inc("appserver.reconnect_replays");
            self.config.metrics.flight().record(
                FlightEventKind::Reconnect,
                format!(
                    "{}: link generation {generation}: replayed {replayed} writes, \
                     renewing {marked} subscriptions",
                    self.tenant
                ),
            );
        }
        let (subscriptions, pending) = {
            let table = self.shared.subs.lock();
            (table.entries.len(), table.renewals.len())
        };
        let metrics = &self.config.metrics;
        metrics.set_gauge("appserver.active_subscriptions", subscriptions as u64);
        metrics.set_gauge("appserver.renewals_pending", pending as u64);
        // Heartbeat supervision: terminate on cluster silence.
        let silent_for = now.since(Timestamp(self.shared.last_heartbeat.load(Ordering::Relaxed)));
        metrics.set_gauge("appserver.heartbeat_stale_ms", silent_for.as_millis() as u64);
        if silent_for > self.config.heartbeat_timeout
            && !self.shared.connection_lost.swap(true, Ordering::Relaxed)
        {
            metrics.inc("appserver.connection_lost");
            metrics.flight().record(
                FlightEventKind::Disconnect,
                format!("{}: cluster heartbeats stopped", self.tenant),
            );
            let table = self.shared.subs.lock();
            for entry in table.entries.values() {
                let _ = entry.tx.send((ClientEvent::ConnectionLost, None));
            }
        }
    }
}

impl Task<()> for Keeper {
    const TICK_AFTER_INPUT: bool = true;

    /// A wake-up: the tick that ends the turn does the work.
    fn handle(&mut self, (): ()) {}

    /// Does everything due at `now` and returns when the next thing is.
    fn tick(&mut self, now: Timestamp) -> Timestamp {
        if now >= self.next_housekeeping {
            self.housekeeping(now);
            self.next_housekeeping = now.after(HOUSEKEEPING);
        }
        if now >= self.next_ttl_refresh {
            self.refresh_ttls();
            self.next_ttl_refresh = now.after(self.config.ttl_refresh_interval());
        }
        // At-least-once registration: a Subscribe that never produced a
        // baseline was dropped somewhere (e.g. a worker mid-rebuild).
        let retried = self.shared.subs.lock().queue_due_retries(now);
        if retried > 0 {
            self.config.metrics.add("appserver.subscribe_retries", retried);
        }
        // After the housekeeping: what its repair queued is renewed now.
        self.renew();
        let now = self.shared.clock.now();
        let table = self.shared.subs.lock().next_due(now, &self.bucket);
        let next = self.next_housekeeping.min(self.next_ttl_refresh);
        table.map_or(next, |due| due.min(next))
    }
}

/// Publishes one control message to the cluster topic, written straight
/// from its parts.
fn publish(broker: &BrokerHandle, msg: &ClusterMessage) {
    let mut payload = WireCodec.writer();
    msg.write_to(&mut payload);
    broker.publish(CLUSTER_TOPIC, payload.finish());
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

/// The notify-topic consumer of one app server: routes each envelope to the
/// channels of the subscriptions it addresses and flags renewals. Sampled
/// traces get their delivery stamp here and are recorded — complete — into
/// the metrics registry. Everything it cannot deliver is counted, never
/// silently skipped.
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
    /// The address list every change envelope is decoded into, handed back
    /// after delivery.
    addressees: Vec<SubscriptionId>,
    /// Wakes the keeper.
    wake: Sender<()>,
}

impl Dispatcher {
    fn new(server: &AppServer, wake: Sender<()>) -> Self {
        let metrics = &server.config.metrics;
        Self {
            shared: Arc::clone(&server.shared),
            broker: server.broker.clone(),
            metrics: metrics.clone(),
            staleness: metrics.staleness(server.tenant.as_str()),
            tenant: server.tenant.clone(),
            delivered: metrics.counter("appserver.events_delivered"),
            decode_errors: metrics.counter("appserver.notify_decode_errors"),
            unknown_subscription: metrics.counter("appserver.notify_unknown_subscription"),
            channel_closed: metrics.counter("appserver.notify_channel_closed"),
            addressees: Vec::new(),
            wake,
        }
    }

    /// Hands every addressed subscription the one decoded change, under
    /// one acquisition of the subscription table. A maintenance error also
    /// queues the subscription's renewal, and wakes the keeper when its
    /// queue was empty. What is published in turn (the cancellation of an
    /// abandoned subscription) goes out after the table is released.
    fn deliver(&mut self, envelope: NotifyEnvelope, now: Timestamp) {
        let NotifyEnvelope { subscriptions, kind, caused_by_write_at, trace, .. } = envelope;
        // Only baseline-carrying notifications confirm a registration: a
        // stray Change proves the pump is alive but cannot repair a live
        // result whose initial was lost (sorted top-k especially), so it
        // must not cancel the at-least-once re-register.
        let confirms = matches!(kind, NotificationKind::InitialResult { .. });
        let renews = matches!(kind, NotificationKind::Error(_));
        let event = match kind {
            NotificationKind::InitialResult { items } => ClientEvent::Initial(items),
            NotificationKind::Change(change) => ClientEvent::Change(Arc::new(change)),
            NotificationKind::Error(e) => ClientEvent::MaintenanceError(e.reason),
        };
        let mut table = self.shared.subs.lock();
        // Notification-staleness SLO: save → notify, per tenant, for every
        // delivered notification (not just sampled traces); one reading
        // serves every addressee. Skew-guarded inside the registry. Taken
        // before the first hand-off, so a subscriber holding the event
        // finds its sample recorded.
        let live = subscriptions.iter().filter(|id| table.entries.contains_key(id)).count();
        if caused_by_write_at > 0 && live > 0 {
            self.staleness.record(caused_by_write_at, live as u64);
        }
        let mut abandoned = Vec::new();
        let mut wake = false;
        let mut hand = |id: &SubscriptionId, event: ClientEvent| {
            let Some(entry) = table.entries.get_mut(id) else {
                self.unknown_subscription.fetch_add(1, Ordering::Relaxed);
                return;
            };
            entry.confirmed |= confirms;
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
            if renews {
                wake |= table.queue_renewal(*id, now);
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
        let abandoned: Vec<_> =
            abandoned.into_iter().filter_map(|id| Some((id, table.entries.remove(&id)?))).collect();
        drop(table);
        for (id, entry) in abandoned {
            cancel(&self.broker, &self.tenant, &self.metrics, id, &entry);
        }
        self.addressees = subscriptions;
        if wake {
            let _ = self.wake.send(());
        }
    }
}

impl Task<Bytes> for Dispatcher {
    /// Handles one payload from the notify topic.
    fn handle(&mut self, payload: Bytes) {
        let now = self.shared.clock.now();
        match decode_notify_into(&payload, &self.tenant, &mut self.addressees) {
            Some(NotifyPayload::Heartbeat) => {
                self.shared.last_heartbeat.store(now.micros(), Ordering::Relaxed);
                self.shared.connection_lost.store(false, Ordering::Relaxed);
            }
            Some(NotifyPayload::Envelope(envelope)) => {
                // Any cluster traffic proves liveness.
                self.shared.last_heartbeat.store(now.micros(), Ordering::Relaxed);
                self.deliver(envelope, now);
            }
            None => {
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The epoch-topic consumer of one app server. When the cluster coordinator
/// announces a failover (an epoch bump with reassigned cells), it
/// republishes the recent-write ring so replacement workers catch up, and
/// marks every subscription for renewal so the keeper re-executes bootstrap
/// queries against the store (fresh initial results repair client state).
/// Surviving matching nodes drop the replayed duplicates via their per-key
/// version guards.
struct EpochWatcher {
    shared: Arc<Shared>,
    broker: BrokerHandle,
    metrics: MetricsRegistry,
    /// `appserver.epoch_decode_errors`: payloads that are no epoch notice.
    decode_errors: Arc<AtomicU64>,
    /// Wakes the keeper after a repair.
    wake: Sender<()>,
}

impl EpochWatcher {
    fn new(server: &AppServer, wake: Sender<()>) -> Self {
        let metrics = &server.config.metrics;
        Self {
            shared: Arc::clone(&server.shared),
            broker: server.broker.clone(),
            metrics: metrics.clone(),
            decode_errors: metrics.counter("appserver.epoch_decode_errors"),
            wake,
        }
    }
}

impl Task<Bytes> for EpochWatcher {
    fn handle(&mut self, payload: Bytes) {
        let Some(EpochNotice { epoch, reassigned }) = decode_epoch_notice(&payload) else {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let prev = self.shared.last_epoch.swap(epoch, Ordering::Relaxed);
        self.metrics.set_gauge("appserver.cluster_epoch", epoch);
        if epoch <= prev || reassigned == 0 {
            // First sighting of a table that moved nothing, or an
            // out-of-order notice: nothing to repair.
            return;
        }
        // Rebuilt cells see the recent stream again; the keeper re-executes
        // bootstrap queries (rate-limited).
        let (replayed, marked) = self.shared.repair(&self.broker);
        let _ = self.wake.send(());
        self.shared.epoch_replays.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc("appserver.epoch_replays");
        self.metrics.flight().record(
            FlightEventKind::Failover,
            format!("epoch {epoch}: replayed {replayed} writes, renewing {marked} subscriptions"),
        );
    }
}

impl Drop for AppServer {
    /// Closes the dispatcher's and the epoch watcher's subscriptions, which
    /// ends both; the keeper's input closes with them, and it ends too. Joins
    /// all three.
    fn drop(&mut self) {
        self.inputs.clear();
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
    /// yields `None` on timeout; tune with [`Events::timeout`], or switch to
    /// a pure `try_recv` with [`Events::non_blocking`].
    ///
    /// ```ignore
    /// for event in subscription.events().timeout(Duration::from_secs(5)) {
    ///     println!("{event:?}");
    /// }
    /// ```
    pub fn events(&mut self) -> Events<'_> {
        Events { sub: self, timeout: Duration::from_secs(1) }
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
        self.result.apply_event(&event);
        event
    }

    /// The locally maintained result.
    pub fn result(&self) -> &crate::LiveResult {
        &self.result
    }

    /// The stage trace of the most recent sampled event delivered to this
    /// subscription, when tracing is enabled
    /// ([`AppServerConfig::trace_sample_every`]). Its
    /// [`breakdown`](TraceContext::breakdown) shows where the write→
    /// notification latency was spent.
    pub fn last_trace(&self) -> Option<&TraceContext> {
        self.last_trace.as_ref()
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
}

impl Iterator for Events<'_> {
    type Item = ClientEvent;

    fn next(&mut self) -> Option<ClientEvent> {
        if self.timeout.is_zero() {
            self.sub.try_recv_one()
        } else {
            self.sub.recv_one(self.timeout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invalidb_common::doc;

    const RETRY: Duration = Duration::from_millis(500);
    const T0: Timestamp = Timestamp(1_000_000);

    fn entry(published: Timestamp) -> SubEntry {
        SubEntry {
            spec: QuerySpec::filter("t", doc! {}),
            query_hash: QueryHash(7),
            slack: 3,
            tx: unbounded().0,
            needs_renewal: false,
            confirmed: false,
            last_register: published,
        }
    }

    fn table(ids: &[u64]) -> Table {
        let mut table = Table::new(RETRY);
        for &id in ids {
            table.insert(SubscriptionId(id), entry(T0));
        }
        table
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_queued_renewal_is_due_now() {
        let mut table = table(&[1]);
        let mut bucket = TokenBucket::new(4, 10.0, T0);
        assert_eq!(table.next_due(T0, &bucket), Some(T0.after(RETRY)), "only the retry is scheduled");
        let now = T0.after(ms(3));
        assert!(table.queue_renewal(SubscriptionId(1), now), "an empty queue wakes the keeper");
        assert!(!table.queue_renewal(SubscriptionId(1), now.after(ms(1))), "one renewal at a time");
        assert!(!table.queue_renewal(SubscriptionId(9), now), "unknown ids are not queued");
        assert_eq!(table.next_due(now, &bucket), Some(now));
        assert_eq!(table.next_renewal(now, &mut bucket), Some((SubscriptionId(1), now)));
        assert_eq!(table.next_renewal(now, &mut bucket), None);
    }

    #[test]
    fn with_an_empty_bucket_the_next_wake_is_the_token_time() {
        let mut table = table(&[1, 2]);
        let mut bucket = TokenBucket::new(1, 10.0, T0);
        table.queue_renewal(SubscriptionId(1), T0);
        table.queue_renewal(SubscriptionId(2), T0);
        assert_eq!(table.next_renewal(T0, &mut bucket), Some((SubscriptionId(1), T0)));
        // The bucket is empty; its next token comes 100 ms later.
        let due = table.next_due(T0, &bucket).expect("a renewal is queued");
        assert!(due >= T0.after(ms(100)), "not before the token: {due:?}");
        assert!(due <= T0.after(ms(100)).after(Duration::from_micros(1)), "{due:?}");
        let early = Timestamp(T0.after(ms(100)).micros() - 1);
        let again = table.next_due(early, &bucket).expect("still queued");
        assert!(again >= T0.after(ms(100)), "woken early, it waits for the token again: {again:?}");
        assert_eq!(table.next_renewal(early, &mut bucket), None, "no token yet");
        assert_eq!(table.next_renewal(due, &mut bucket), Some((SubscriptionId(2), T0)));
    }

    #[test]
    fn an_unconfirmed_registration_is_retried_when_due_and_a_confirmed_one_never() {
        let mut table = table(&[1, 2]);
        let mut bucket = TokenBucket::new(100, 10.0, T0);
        table.entries.get_mut(&SubscriptionId(2)).unwrap().confirmed = true;
        let due = T0.after(RETRY);
        assert_eq!(table.next_due(T0, &bucket), Some(due));
        assert_eq!(table.queue_due_retries(Timestamp(due.micros() - 1)), 0, "not yet");
        assert_eq!(table.queue_due_retries(due), 1, "the unconfirmed one");
        assert_eq!(table.next_renewal(due, &mut bucket), Some((SubscriptionId(1), due)));
        assert_eq!(table.next_renewal(due, &mut bucket), None, "the confirmed one is not retried");
        assert!(table.registrations.is_empty());

        // The retry is published; still unconfirmed, it is retried again.
        let published = due.after(ms(2));
        let slack = table.renewed(SubscriptionId(1), 6, published).map(|e| e.slack);
        assert_eq!(slack, Some(6));
        assert_eq!(table.next_due(published, &bucket), Some(published.after(RETRY)));
        // Confirmed meanwhile: the due retry is dropped, and nothing is left.
        table.entries.get_mut(&SubscriptionId(1)).unwrap().confirmed = true;
        assert_eq!(table.queue_due_retries(published.after(RETRY)), 0);
        assert_eq!(table.next_due(published.after(RETRY), &bucket), None);
        assert_eq!(table.queue_due_retries(published.after(ms(3_600_000))), 0);
    }

    #[test]
    fn repair_renews_every_subscription_exactly_once() {
        let mut table = table(&[1, 2, 3]);
        let mut bucket = TokenBucket::new(100, 10.0, T0);
        for entry in table.entries.values_mut() {
            entry.confirmed = true;
        }
        table.queue_renewal(SubscriptionId(2), T0);
        let now = T0.after(ms(10));
        assert_eq!(table.repair(now), 3);
        assert_eq!(table.repair(now.after(ms(1))), 3);
        assert!(table.entries.values().all(|e| !e.confirmed && e.needs_renewal));
        let mut renewed = Vec::new();
        while let Some((id, _)) = table.next_renewal(now, &mut bucket) {
            renewed.push(id.0);
        }
        renewed.sort_unstable();
        assert_eq!(renewed, vec![1, 2, 3]);
    }

    /// After a burst of registrations, the confirmed ones leave the retry
    /// queue at the keeper's next turn, due or not: it does not wake once
    /// for each of them.
    #[test]
    fn confirmed_registrations_leave_the_retry_queue_before_they_are_due() {
        let mut table = table(&(0..100).collect::<Vec<_>>());
        let bucket = TokenBucket::new(4, 10.0, T0);
        for entry in table.entries.values_mut() {
            entry.confirmed = true;
        }
        let now = T0.after(ms(10));
        assert_eq!(table.queue_due_retries(now), 0);
        assert_eq!(table.next_due(now, &bucket), None);
        assert!(table.registrations.is_empty());
        // An unconfirmed head still waits for its retry, and keeps the ones
        // behind it in the queue.
        table.insert(SubscriptionId(200), entry(now));
        table.insert(SubscriptionId(201), entry(now));
        table.entries.get_mut(&SubscriptionId(201)).unwrap().confirmed = true;
        assert_eq!(table.queue_due_retries(now.after(ms(1))), 0);
        assert_eq!(table.next_due(now, &bucket), Some(now.after(RETRY)));
        assert_eq!(table.queue_due_retries(now.after(RETRY)), 1);
        assert_eq!(table.next_due(now.after(RETRY), &bucket), Some(now.after(RETRY)), "its renewal");
        assert!(table.registrations.is_empty());
    }

    /// An event layer that fails the test when a payload is published while
    /// the subscription table is locked.
    struct LockCheck {
        shared: Arc<Shared>,
        published: Arc<AtomicU64>,
        broker: invalidb_broker::Broker,
    }

    impl invalidb_broker::EventLayer for LockCheck {
        fn publish(&self, topic: &str, payload: bytes::Bytes) -> usize {
            assert!(
                self.shared.subs.try_lock().is_some(),
                "published to {topic} under the table's lock"
            );
            self.published.fetch_add(1, Ordering::Relaxed);
            self.broker.publish(topic, payload)
        }

        fn subscribe(&self, topic: &str) -> invalidb_broker::Subscription {
            self.broker.subscribe(topic)
        }

        fn subscriber_count(&self, topic: &str) -> usize {
            self.broker.subscriber_count(topic)
        }
    }

    /// What a subscription's holder receives.
    type Inbox = Receiver<(ClientEvent, Option<TraceContext>)>;

    /// An app server without its threads, over a [`LockCheck`], with `n`
    /// registered subscriptions whose receivers are returned, and the
    /// count of what it publishes.
    fn server(n: u64) -> (AppServer, Vec<Inbox>, Arc<AtomicU64>) {
        let config = AppServerConfig::default();
        let shared = Shared::new(&config);
        let published = Arc::new(AtomicU64::new(0));
        let layer = LockCheck {
            shared: Arc::clone(&shared),
            published: Arc::clone(&published),
            broker: invalidb_broker::Broker::new(),
        };
        let mut receivers = Vec::new();
        for id in 0..n {
            let (tx, rx) = unbounded();
            shared.subs.lock().insert(SubscriptionId(id), SubEntry { tx, ..entry(T0) });
            receivers.push(rx);
        }
        let server = AppServer {
            tenant: TenantId::new("app"),
            store: Arc::new(Store::new()),
            broker: BrokerHandle::new(layer),
            config,
            shared,
            inputs: Vec::new(),
            threads: Vec::new(),
            admin: None,
        };
        (server, receivers, published)
    }

    fn change_to(ids: &[u64], caused_by_write_at: u64) -> NotifyEnvelope {
        let item = ResultItem::new(Key::of("k"), 1, doc! { "n" => 1i64 });
        NotifyEnvelope {
            tenant: TenantId::new("app"),
            subscriptions: ids.iter().copied().map(SubscriptionId).collect(),
            kind: NotificationKind::Change(ChangeItem {
                match_type: invalidb_common::MatchType::Add,
                item,
                old_index: None,
            }),
            caused_by_write_at,
            trace: None,
        }
    }

    /// TTL refreshes, an unsubscribe and the cancellation of an abandoned
    /// subscription all publish with the subscription table released.
    #[test]
    fn nothing_is_published_under_the_subscription_table_lock() {
        let (server, mut receivers, published) = server(3);
        Keeper::new(&server).refresh_ttls();
        assert_eq!(published.load(Ordering::Relaxed), 3, "one extension per subscription");
        let (tx, rx) = unbounded();
        let subscription = Subscription {
            id: SubscriptionId(0),
            rx,
            result: crate::LiveResult::new(),
            last_trace: None,
        };
        drop(tx);
        server.unsubscribe(&subscription);
        assert_eq!(published.load(Ordering::Relaxed), 4);
        // The holder of subscription 1 dropped it: delivering cancels it.
        receivers.remove(1);
        let mut dispatcher = Dispatcher::new(&server, unbounded().0);
        dispatcher.deliver(change_to(&[1, 2], 0), T0);
        assert_eq!(published.load(Ordering::Relaxed), 5, "the cancellation");
        assert_eq!(server.shared.subs.lock().entries.len(), 1);
    }

    /// The dispatcher without its thread: a change envelope handed to it
    /// reaches the addressed subscription's channel.
    #[test]
    fn a_dispatcher_delivers_a_change_through_handle() {
        let (server, receivers, _) = server(1);
        let mut dispatcher = Dispatcher::new(&server, unbounded().0);
        let mut payload = WireCodec.writer();
        change_to(&[0], 0).as_ref().write_to(&mut payload);
        dispatcher.handle(payload.finish());
        let (event, _) = receivers[0].try_recv().expect("the change is delivered");
        assert!(matches!(event, ClientEvent::Change(c) if c.item.key == Key::of("k")));
    }

    /// The epoch watcher without its thread: a payload that is no notice,
    /// one without an epoch included, is counted; a notice that moved
    /// nothing records the epoch, and a bump that moved cells queues every
    /// subscription for renewal.
    #[test]
    fn the_epoch_watcher_counts_what_is_no_notice_and_repairs_on_a_bump() {
        let (server, _receivers, _) = server(2);
        let metrics = &server.config.metrics;
        let mut watcher = EpochWatcher::new(&server, unbounded().0);
        let notice = |epoch, reassigned| {
            let mut payload = WireCodec.writer();
            EpochNotice { epoch, reassigned }.write_to(&mut payload);
            payload.finish()
        };
        watcher.handle(Bytes::from_static(b"no notice"));
        watcher.handle(WireCodec.encode(&doc! { "reassigned" => 1i64 }));
        assert_eq!(metrics.snapshot().counters["appserver.epoch_decode_errors"], 2);
        watcher.handle(notice(1, 0));
        assert_eq!(metrics.snapshot().gauges["appserver.cluster_epoch"], 1);
        assert!(server.shared.subs.lock().renewals.is_empty(), "nothing moved");
        watcher.handle(notice(2, 3));
        assert_eq!(server.shared.epoch_replays.load(Ordering::Relaxed), 1);
        assert_eq!(server.shared.subs.lock().renewals.len(), 2, "each subscription once");
    }

    /// Every addressee of an envelope is one staleness sample, however
    /// many share the envelope.
    #[test]
    fn an_envelope_to_n_live_subscriptions_is_n_staleness_samples() {
        let (server, _receivers, _) = server(5);
        let metrics = &server.config.metrics;
        let mut dispatcher = Dispatcher::new(&server, unbounded().0);
        let written_at = now_micros();
        dispatcher.deliver(change_to(&[0, 1, 2, 3, 99], written_at), T0);
        let samples = metrics.histogram("slo.app.staleness_us").lock().count();
        assert_eq!(samples, 4, "four live addressees, one unknown");
        dispatcher.deliver(change_to(&[4], written_at), T0);
        assert_eq!(metrics.histogram("slo.app.staleness_us").lock().count(), 5);
    }

    #[test]
    fn a_cancelled_subscription_takes_no_token() {
        let mut table = table(&[1, 2]);
        let mut bucket = TokenBucket::new(1, 10.0, T0);
        table.queue_renewal(SubscriptionId(1), T0);
        table.queue_renewal(SubscriptionId(2), T0);
        table.entries.remove(&SubscriptionId(1));
        assert_eq!(table.next_renewal(T0, &mut bucket), Some((SubscriptionId(2), T0)));
        assert_eq!(table.next_due(T0, &bucket), Some(T0.after(RETRY)), "queue drained");
    }
}
