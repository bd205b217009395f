//! The shared publisher: the way out of the cluster (§5.1).
//!
//! Whoever produces a notification — a grid cell, a sorting or aggregation
//! partition, the ingress for initial results — serializes it from borrowed
//! parts and puts it on the tenant's notify topic itself, on its own
//! thread. The publisher is the state those callers share: the event-layer
//! handle, the `notifier.*` counters, and one entry per tenant
//! with its topic name and heartbeat state.
//!
//! The first notification for any real-time query is the initial result; it
//! is emitted directly from the subscription request (trimmed to the
//! original offset/limit window, since the request carries the *rewritten*
//! bootstrap result). In the absence of heartbeat messages an application
//! server terminates affected subscriptions with an error, so every tenant
//! topic the publisher has seen is pinged periodically.

use crate::config::ClusterConfig;
use invalidb_broker::{notify_topic, BrokerHandle, Bytes};
use invalidb_common::{doc, Clock, EnvelopeRef, ItemRef, KindRef, Stage, SubscriptionRequest, TenantId};
use invalidb_json::WireCodec;
use invalidb_obs::MetricsRegistry;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the publisher keeps per tenant, resolved once on first sight.
struct Tenant {
    /// `invalidb.notify.<tenant>`.
    topic: String,
    /// The tenant's heartbeat message, encoded once.
    heartbeat: Bytes,
    /// Clock reading (µs) of the last heartbeat.
    last_heartbeat: AtomicU64,
}

struct Inner {
    broker: BrokerHandle,
    clock: Arc<dyn Clock>,
    heartbeat_interval: Duration,
    metrics: MetricsRegistry,
    /// `notifier.published`: notifications, i.e. addressed subscriptions.
    published: Arc<AtomicU64>,
    /// `notifier.envelopes`: messages put on the event layer for them.
    envelopes: Arc<AtomicU64>,
    tenants: RwLock<HashMap<TenantId, Arc<Tenant>>>,
}

/// Cheaply cloneable handle to the cluster's one publisher.
#[derive(Clone)]
pub struct Publisher {
    inner: Arc<Inner>,
}

impl Publisher {
    /// Creates the publisher of a cluster.
    pub fn new(broker: BrokerHandle, config: &ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(Inner {
                broker,
                clock,
                heartbeat_interval: config.heartbeat_interval,
                metrics: config.metrics.clone(),
                published: config.metrics.counter("notifier.published"),
                envelopes: config.metrics.counter("notifier.envelopes"),
                tenants: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// The tenant's entry; first sight adds it to the heartbeat round.
    fn tenant(&self, tenant: &TenantId) -> Arc<Tenant> {
        if let Some(entry) = self.inner.tenants.read().get(tenant) {
            return Arc::clone(entry);
        }
        let entry = Arc::new(Tenant {
            topic: notify_topic(tenant.as_str()),
            heartbeat: WireCodec.encode(&doc! {
                "type" => "heartbeat",
                "tenant" => tenant.as_str(),
            }),
            last_heartbeat: AtomicU64::new(self.inner.clock.now().micros()),
        });
        Arc::clone(self.inner.tenants.write().entry(tenant.clone()).or_insert(entry))
    }

    /// Serializes one envelope straight from its borrowed parts and
    /// publishes it once, whatever the number of addressees.
    pub fn publish(&self, envelope: EnvelopeRef<'_>) {
        let tenant = self.tenant(envelope.tenant);
        self.inner.published.fetch_add(envelope.subscriptions.len() as u64, Ordering::Relaxed);
        self.inner.envelopes.fetch_add(1, Ordering::Relaxed);
        // Traced notifications get the notifier stamp right before they are
        // serialized onto the event layer; only the trace is copied for it,
        // and only for sampled writes.
        let stamped = envelope.trace.cloned().map(|mut trace| {
            trace.stamp(Stage::Notifier);
            trace
        });
        let envelope = EnvelopeRef { trace: stamped.as_ref(), ..envelope };
        let mut payload = WireCodec.writer();
        envelope.write_to(&mut payload);
        self.inner.broker.publish(&tenant.topic, payload.finish());
    }

    /// Publishes the initial result of a subscription. The ingress calls
    /// this *before* it hands the request to any cell or stage, so no
    /// change notification can overtake it on the notify topic.
    pub fn initial_result(&self, req: &SubscriptionRequest) {
        // The tenant joins the heartbeat round even if nothing is published.
        self.tenant(&req.tenant);
        if req.renewal {
            // Silent re-registration (failover replay): the client already
            // holds a live result, so re-emitting the cached bootstrap
            // snapshot would clobber it with stale state.
            self.inner.metrics.inc("notifier.silent_renewals");
            return;
        }
        if req.spec.needs_aggregation_stage() {
            // Aggregate queries: the aggregation stage emits the initial
            // aggregate value instead of an item list.
            return;
        }
        // Trim the bootstrap result to the client-visible window.
        let skip = req.spec.offset as usize;
        let take = req.spec.limit.map(|l| l as usize).unwrap_or(usize::MAX);
        let sorted = !req.spec.sort.is_empty();
        let items = req
            .initial
            .iter()
            .skip(skip)
            .take(take)
            .enumerate()
            .map(|(i, item)| ItemRef { index: sorted.then_some(i as u64), ..ItemRef::from(item) })
            .collect();
        self.publish(EnvelopeRef {
            tenant: &req.tenant,
            subscriptions: &[req.subscription],
            kind: KindRef::Initial(items),
            caused_by_write_at: 0,
            trace: None,
        });
    }

    /// Pings every known tenant whose last heartbeat is an interval old.
    /// Driven by the ingress thread on its own deadline, so the cadence
    /// holds whatever the cells are busy with.
    pub fn heartbeat(&self) {
        let now = self.inner.clock.now().micros();
        let interval = self.inner.heartbeat_interval.as_micros() as u64;
        for tenant in self.inner.tenants.read().values() {
            if now.saturating_sub(tenant.last_heartbeat.load(Ordering::Relaxed)) >= interval {
                tenant.last_heartbeat.store(now, Ordering::Relaxed);
                self.inner.broker.publish(&tenant.topic, tenant.heartbeat.clone());
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A publisher over an in-process broker whose notify topic the test
    //! reads back, so stage unit tests assert on what would reach the wire.

    use super::*;
    use invalidb_broker::{Broker, Bytes, Subscription};
    use invalidb_common::{MockClock, Notification, NotifyEnvelope};

    /// Tenant used by the stage unit tests.
    pub(crate) const TENANT: &str = "app";

    pub(crate) struct Wire {
        pub(crate) publisher: Publisher,
        broker: Broker,
        notify: Subscription,
    }

    impl Wire {
        pub(crate) fn new(config: &ClusterConfig, clock: &MockClock) -> Self {
            let broker = Broker::new();
            let notify = broker.subscribe(&notify_topic(TENANT));
            let publisher = Publisher::new(broker.clone().into(), config, Arc::new(clock.clone()));
            Self { publisher, broker, notify }
        }

        /// The same wire, read on another tenant's notify topic.
        pub(crate) fn of_tenant(&self, tenant: &str) -> Self {
            Self {
                publisher: self.publisher.clone(),
                broker: self.broker.clone(),
                notify: self.broker.subscribe(&notify_topic(tenant)),
            }
        }

        /// Every envelope published since the last call, with its payload.
        pub(crate) fn payloads(&self) -> Vec<(NotifyEnvelope, Bytes)> {
            std::iter::from_fn(|| self.notify.try_recv())
                .filter_map(|payload| {
                    let d = invalidb_json::payload_to_document(&payload).expect("decodable payload");
                    // Heartbeats are no envelopes.
                    NotifyEnvelope::from_document(d).ok().map(|envelope| (envelope, payload))
                })
                .collect()
        }

        /// Every envelope published since the last call.
        pub(crate) fn envelopes(&self) -> Vec<NotifyEnvelope> {
            self.payloads().into_iter().map(|(envelope, _)| envelope).collect()
        }

        /// The same, as each addressee sees it.
        pub(crate) fn notifications(&self) -> Vec<Notification> {
            self.envelopes().into_iter().flat_map(NotifyEnvelope::into_notifications).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{Wire, TENANT};
    use super::*;
    use invalidb_broker::Broker;
    use invalidb_common::{MockClock, NotificationKind, QuerySpec, ResultItem, SubscriptionId};

    fn request(spec: QuerySpec, initial: Vec<ResultItem>, renewal: bool) -> SubscriptionRequest {
        SubscriptionRequest {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(7),
            query_hash: spec.stable_hash(),
            spec,
            initial,
            slack: 1,
            ttl_micros: 1,
            renewal,
        }
    }

    #[test]
    fn initial_result_is_trimmed_to_the_visible_window_and_counted() {
        let config = ClusterConfig::new(1, 1);
        let wire = Wire::new(&config, &MockClock::new());
        let spec = QuerySpec::filter("t", doc! {})
            .sorted_by("n", invalidb_common::SortDirection::Asc)
            .with_limit(2);
        let initial = (0..3i64)
            .map(|i| ResultItem::new(invalidb_common::Key::of(i), 1, doc! { "n" => i }))
            .collect();
        wire.publisher.initial_result(&request(spec, initial, false));
        let notes = wire.notifications();
        assert_eq!(notes.len(), 1);
        match &notes[0].kind {
            NotificationKind::InitialResult { items } => {
                assert_eq!(items.len(), 2, "slack is not client-visible");
                assert_eq!(items[1].index, Some(1));
            }
            other => panic!("expected initial result, got {other:?}"),
        }
        let snap = config.metrics.snapshot();
        assert_eq!(snap.counters["notifier.published"], 1);
        assert_eq!(snap.counters["notifier.envelopes"], 1);
    }

    #[test]
    fn silent_renewals_publish_nothing_but_join_the_heartbeat_round() {
        let config = ClusterConfig::new(1, 1);
        let clock = MockClock::new();
        let broker = Broker::new();
        let notify = broker.subscribe(&notify_topic(TENANT));
        let publisher = Publisher::new(broker.into(), &config, Arc::new(clock.clone()));
        publisher.initial_result(&request(QuerySpec::filter("t", doc! {}), vec![], true));
        assert!(notify.try_recv().is_none());
        assert_eq!(config.metrics.snapshot().counters["notifier.silent_renewals"], 1);

        publisher.heartbeat();
        assert!(notify.try_recv().is_none(), "not due yet");
        clock.advance(config.heartbeat_interval);
        publisher.heartbeat();
        publisher.heartbeat();
        let beat = notify.try_recv().expect("one heartbeat per interval");
        let d = invalidb_json::payload_to_document(&beat).unwrap();
        assert_eq!(d.get("type").and_then(|v| v.as_str()), Some("heartbeat"));
        assert_eq!(d.get("tenant").and_then(|v| v.as_str()), Some(TENANT));
        assert!(notify.try_recv().is_none());
    }
}
