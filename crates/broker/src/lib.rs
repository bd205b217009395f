//! The event layer (§5, §5.3).
//!
//! InvaliDB's real-time cluster can only be reached through an asynchronous
//! message broker carrying *entirely opaque payloads* — the paper's
//! production deployment uses Redis pub/sub. This crate provides the
//! in-process equivalent: named topics, fire-and-forget publishing, and
//! per-subscriber FIFO queues.
//!
//! Design points mirroring the paper:
//!
//! * **Opaque payloads.** The broker transports [`Bytes`]; routing never
//!   inspects content. (Partition routing happens in the cluster's stateless
//!   ingestion nodes, not here.)
//! * **No retention.** Like Redis pub/sub, messages published while nobody
//!   subscribes are dropped; durable replay is *not* an event-layer
//!   property — InvaliDB compensates with write-stream retention inside the
//!   matching nodes (§5.1).
//! * **Failure isolation.** If every consumer disappears (e.g. the cluster
//!   is taken down), publishes still succeed — "requests sent against the
//!   event layer remain unanswered" and the OLTP side keeps running.
//!
//! For testing the paper's two race conditions (write-query and
//! write-subscription, §5.1), the broker supports **chaos injection**:
//! random per-message delivery delays (which cause reordering) and drops.

mod chaos;

pub use chaos::{ChaosConfig, ChaosScope};
// Payloads are opaque `Bytes`; re-exported so downstream crates can publish
// without depending on the `bytes` crate themselves.
pub use bytes::Bytes;

use chaos::DelayScheduler;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Well-known topic carrying all messages *into* an InvaliDB cluster.
pub const CLUSTER_TOPIC: &str = "invalidb.cluster";

/// Well-known topic on which the cluster coordinator announces epoch
/// changes (worker failover / reassignment) to application servers.
pub const EPOCH_TOPIC: &str = "invalidb.cluster.epoch";

/// Topic carrying notifications for one tenant's application servers.
pub fn notify_topic(tenant: &str) -> String {
    format!("invalidb.notify.{tenant}")
}

/// Topic carrying staged (sorted) partial results for one query partition
/// row: matching cells hosted on a worker that does *not* own the row
/// publish their `FilterChange`s here, and the row owner folds them into
/// its sorting stage.
pub fn shuffle_topic(query_partition: usize) -> String {
    format!("invalidb.shuffle.q{query_partition}")
}

struct TopicState {
    subscribers: Vec<(u64, Sender<Bytes>)>,
}

struct BrokerInner {
    topics: RwLock<HashMap<String, TopicState>>,
    next_subscriber: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    chaos: Option<ChaosState>,
    scheduler: DelayScheduler,
}

struct ChaosState {
    config: ChaosConfig,
    rng: parking_lot::Mutex<StdRng>,
}

/// An asynchronous pub/sub message broker.
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

impl Broker {
    /// A well-behaved broker (no chaos).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A broker that delays/drops messages per `config` — used by tests to
    /// provoke the races the paper's retention scheme defends against.
    pub fn with_chaos(config: ChaosConfig) -> Self {
        Self::build(Some(config))
    }

    fn build(chaos: Option<ChaosConfig>) -> Self {
        let chaos = chaos.map(|config| ChaosState {
            rng: parking_lot::Mutex::new(StdRng::seed_from_u64(config.seed)),
            config,
        });
        Self {
            inner: Arc::new(BrokerInner {
                topics: RwLock::new(HashMap::new()),
                next_subscriber: AtomicU64::new(1),
                published: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                chaos,
                scheduler: DelayScheduler::new(),
            }),
        }
    }

    /// Subscribes to a topic; messages published from now on are delivered
    /// in FIFO order (unless chaos delays reorder them).
    pub fn subscribe(&self, topic: &str) -> Subscription {
        let (tx, rx) = unbounded();
        let id = self.inner.next_subscriber.fetch_add(1, Ordering::Relaxed);
        let mut topics = self.inner.topics.write();
        topics
            .entry(topic.to_owned())
            .or_insert_with(|| TopicState { subscribers: Vec::new() })
            .subscribers
            .push((id, tx));
        Subscription { inner: Arc::clone(&self.inner), topic: topic.to_owned(), id, rx }
    }

    /// Publishes a payload to all current subscribers of a topic.
    /// Returns the number of subscribers the message was (scheduled to be)
    /// delivered to. Publishing to a topic without subscribers is not an
    /// error — the message simply vanishes, like Redis pub/sub.
    pub fn publish(&self, topic: &str, payload: Bytes) -> usize {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        let topics = self.inner.topics.read();
        let state = match topics.get(topic) {
            Some(s) => s,
            None => return 0,
        };
        let mut count = 0;
        for (_, tx) in &state.subscribers {
            match self.plan_delivery(topic) {
                Delivery::Drop => {
                    self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Delivery::Now => {
                    if tx.send(payload.clone()).is_ok() {
                        self.inner.delivered.fetch_add(1, Ordering::Relaxed);
                        count += 1;
                    }
                }
                Delivery::Delayed(delay) => {
                    self.inner.scheduler.schedule(delay, tx.clone(), payload.clone());
                    self.inner.delivered.fetch_add(1, Ordering::Relaxed);
                    count += 1;
                }
            }
        }
        count
    }

    fn plan_delivery(&self, topic: &str) -> Delivery {
        let chaos = match &self.inner.chaos {
            None => return Delivery::Now,
            Some(c) => c,
        };
        if let chaos::ChaosScope::TopicPrefix(prefix) = &chaos.config.scope {
            if !topic.starts_with(prefix.as_str()) {
                return Delivery::Now;
            }
        }
        let mut rng = chaos.rng.lock();
        if chaos.config.drop_probability > 0.0 && rng.gen::<f64>() < chaos.config.drop_probability {
            return Delivery::Drop;
        }
        match chaos.config.delay {
            None => Delivery::Now,
            Some((min, max)) => {
                let span = max.saturating_sub(min);
                let extra = if span.is_zero() {
                    Duration::ZERO
                } else {
                    Duration::from_micros(rng.gen_range(0..=span.as_micros() as u64))
                };
                Delivery::Delayed(min + extra)
            }
        }
    }

    /// Number of active subscribers on a topic.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner.topics.read().get(topic).map(|s| s.subscribers.len()).unwrap_or(0)
    }

    /// `(published, delivered, dropped)` message counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.inner.published.load(Ordering::Relaxed),
            self.inner.delivered.load(Ordering::Relaxed),
            self.inner.dropped.load(Ordering::Relaxed),
        )
    }
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

/// The event-layer abstraction (§5): everything the cluster and the
/// application servers need from the message broker. The in-process
/// [`Broker`] implements it directly; `invalidb-net`'s `RemoteBroker`
/// implements it over TCP — both sides of the system are written against
/// [`BrokerHandle`] and never notice which transport is underneath.
pub trait EventLayer: Send + Sync {
    /// Publishes a payload to all current subscribers of a topic. Returns
    /// the number of *local* deliveries scheduled (remote transports may
    /// report 0 even though the server forwards further).
    fn publish(&self, topic: &str, payload: Bytes) -> usize;

    /// Subscribes to a topic with FIFO delivery from now on.
    fn subscribe(&self, topic: &str) -> Subscription;

    /// Number of active local subscribers on a topic.
    fn subscriber_count(&self, topic: &str) -> usize;

    /// Connection generation of this layer: `0` forever for transports
    /// that cannot lose messages between publisher and broker (the
    /// in-process [`Broker`]), incremented on every (re)established
    /// session for remote transports. Publishers that need at-least-once
    /// delivery across the at-most-once event layer (§5.3) watch this to
    /// learn that a gap may have opened — anything published while the
    /// previous generation was dying can be silently gone.
    fn generation(&self) -> u64 {
        0
    }
}

impl EventLayer for Broker {
    fn publish(&self, topic: &str, payload: Bytes) -> usize {
        Broker::publish(self, topic, payload)
    }

    fn subscribe(&self, topic: &str) -> Subscription {
        Broker::subscribe(self, topic)
    }

    fn subscriber_count(&self, topic: &str) -> usize {
        Broker::subscriber_count(self, topic)
    }
}

/// A cheaply cloneable, type-erased handle to an event layer.
///
/// `AppServer::start` and `Cluster::start` accept `impl Into<BrokerHandle>`,
/// so existing call sites passing a [`Broker`] compile unchanged while a
/// remote transport plugs in with the same one-liner.
#[derive(Clone)]
pub struct BrokerHandle {
    inner: Arc<dyn EventLayer>,
}

impl BrokerHandle {
    /// Wraps any event layer implementation.
    pub fn new(layer: impl EventLayer + 'static) -> Self {
        Self { inner: Arc::new(layer) }
    }

    /// See [`EventLayer::publish`].
    pub fn publish(&self, topic: &str, payload: Bytes) -> usize {
        self.inner.publish(topic, payload)
    }

    /// See [`EventLayer::subscribe`].
    pub fn subscribe(&self, topic: &str) -> Subscription {
        self.inner.subscribe(topic)
    }

    /// See [`EventLayer::subscriber_count`].
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner.subscriber_count(topic)
    }

    /// See [`EventLayer::generation`].
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

impl std::fmt::Debug for BrokerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerHandle").finish_non_exhaustive()
    }
}

impl From<Broker> for BrokerHandle {
    fn from(broker: Broker) -> Self {
        Self::new(broker)
    }
}

impl From<Arc<dyn EventLayer>> for BrokerHandle {
    fn from(inner: Arc<dyn EventLayer>) -> Self {
        Self { inner }
    }
}

enum Delivery {
    Now,
    Delayed(Duration),
    Drop,
}

/// A live subscription. Dropping it unsubscribes.
pub struct Subscription {
    inner: Arc<BrokerInner>,
    topic: String,
    id: u64,
    rx: Receiver<Bytes>,
}

impl Subscription {
    /// Topic this subscription listens on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Blocking receive.
    pub fn recv(&self) -> Option<Bytes> {
        self.rx.recv().ok()
    }

    /// Receive with timeout; `None` on timeout or closed topic.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Bytes> {
        match self.rx.recv_timeout(timeout) {
            Ok(b) => Some(b),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Bytes> {
        self.rx.try_recv().ok()
    }

    /// Number of messages waiting in this subscription's queue.
    pub fn queued(&self) -> usize {
        self.rx.len()
    }

    /// The raw receiver. A task that reads the topic runs on a clone of
    /// it; dropping the subscription disconnects the clone once it has
    /// drained.
    pub fn receiver(&self) -> &Receiver<Bytes> {
        &self.rx
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut topics = self.inner.topics.write();
        if let Some(state) = topics.get_mut(&self.topic) {
            state.subscribers.retain(|(id, _)| *id != self.id);
            if state.subscribers.is_empty() {
                topics.remove(&self.topic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn fifo_delivery_to_all_subscribers() {
        let broker = Broker::new();
        let s1 = broker.subscribe("t");
        let s2 = broker.subscribe("t");
        broker.publish("t", b("1"));
        broker.publish("t", b("2"));
        for s in [&s1, &s2] {
            assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b("1"));
            assert_eq!(s.recv_timeout(Duration::from_secs(1)).unwrap(), b("2"));
        }
    }

    #[test]
    fn publish_without_subscribers_vanishes() {
        let broker = Broker::new();
        assert_eq!(broker.publish("ghost", b("x")), 0);
        let s = broker.subscribe("ghost");
        assert_eq!(s.try_recv(), None, "no retention");
    }

    #[test]
    fn topics_are_isolated() {
        let broker = Broker::new();
        let a = broker.subscribe("a");
        let bsub = broker.subscribe("b");
        broker.publish("a", b("for-a"));
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b("for-a"));
        assert_eq!(bsub.try_recv(), None);
    }

    #[test]
    fn drop_unsubscribes() {
        let broker = Broker::new();
        let s = broker.subscribe("t");
        assert_eq!(broker.subscriber_count("t"), 1);
        drop(s);
        assert_eq!(broker.subscriber_count("t"), 0);
        assert_eq!(broker.publish("t", b("x")), 0);
    }

    #[test]
    fn chaos_delay_reorders_but_delivers() {
        let broker = Broker::with_chaos(ChaosConfig {
            seed: 7,
            delay: Some((Duration::ZERO, Duration::from_millis(10))),
            ..ChaosConfig::default()
        });
        let s = broker.subscribe("t");
        let n = 50;
        for i in 0..n {
            broker.publish("t", b(&format!("{i}")));
        }
        let mut got = Vec::new();
        for _ in 0..n {
            got.push(s.recv_timeout(Duration::from_secs(5)).expect("delivered"));
        }
        let mut sorted = got.clone();
        sorted.sort_by_key(|x| String::from_utf8_lossy(x).parse::<u32>().unwrap());
        assert_eq!(sorted.len(), n as usize, "everything arrives");
        // With 50 messages and 0-10ms random delays, reordering is
        // overwhelmingly likely; tolerate the rare fully ordered run by
        // only asserting delivery completeness above and recording order.
        let reordered = got != sorted;
        let _ = reordered;
    }

    #[test]
    fn chaos_drops_messages() {
        let broker = Broker::with_chaos(ChaosConfig {
            seed: 42,
            drop_probability: 0.5,
            ..ChaosConfig::default()
        });
        let s = broker.subscribe("t");
        for i in 0..200 {
            broker.publish("t", b(&format!("{i}")));
        }
        std::thread::sleep(Duration::from_millis(50));
        let received = s.queued();
        assert!(received < 180, "some messages must be dropped, got {received}");
        assert!(received > 20, "not everything may be dropped, got {received}");
        let (published, _, dropped) = broker.stats();
        assert_eq!(published, 200);
        assert!(dropped > 0);
    }

    #[test]
    fn publish_survives_dead_cluster() {
        // The worst-case scenario of §5: the cluster is gone; requests
        // against the event layer remain unanswered but never error.
        let broker = Broker::new();
        let cluster = broker.subscribe(CLUSTER_TOPIC);
        drop(cluster); // "cluster taken down"
        for i in 0..10 {
            broker.publish(CLUSTER_TOPIC, b(&format!("write-{i}")));
        }
        assert_eq!(broker.subscriber_count(CLUSTER_TOPIC), 0);
    }

    #[test]
    fn notify_topic_naming() {
        assert_eq!(notify_topic("app1"), "invalidb.notify.app1");
    }

    #[test]
    fn shuffle_topic_naming() {
        assert_eq!(shuffle_topic(0), "invalidb.shuffle.q0");
        assert_eq!(shuffle_topic(7), "invalidb.shuffle.q7");
    }
}
