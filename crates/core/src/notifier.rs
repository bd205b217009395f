//! The notification sink: serializes outbound messages and publishes them
//! to the event layer, plus heartbeat emission (§5.1).
//!
//! The first notification for any real-time query is the initial result; it
//! is emitted here directly from the subscription request (trimmed to the
//! original offset/limit window, since the request carries the *rewritten*
//! bootstrap result). In the absence of heartbeat messages an application
//! server terminates affected subscriptions with an error, so the notifier
//! periodically pings every tenant topic it has seen.

use crate::config::ClusterConfig;
use crate::event::{Event, OutMsg};
use invalidb_broker::{notify_topic, BrokerHandle};
use invalidb_common::{
    doc, Clock, EnvelopeRef, ItemRef, KindRef, Stage, SubscriptionRequest, TenantId, Timestamp,
};
use invalidb_stream::{Bolt, BoltContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The notifier bolt.
pub struct Notifier {
    broker: BrokerHandle,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    /// Tenants seen, with the time of their last heartbeat.
    tenants: HashMap<TenantId, Timestamp>,
    /// `notifier.published`: notifications, i.e. addressed subscriptions.
    published: Arc<AtomicU64>,
    /// `notifier.envelopes`: messages put on the event layer for them.
    envelopes: Arc<AtomicU64>,
}

impl Notifier {
    /// Creates the notifier.
    pub fn new(broker: BrokerHandle, config: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let published = config.metrics.counter("notifier.published");
        let envelopes = config.metrics.counter("notifier.envelopes");
        Self { broker, config, clock, tenants: HashMap::new(), published, envelopes }
    }

    /// Serializes one envelope straight from its borrowed parts and
    /// publishes it once, whatever the number of addressees.
    fn publish(&mut self, envelope: EnvelopeRef<'_>) {
        self.remember(envelope.tenant);
        self.published.fetch_add(envelope.subscriptions.len() as u64, Ordering::Relaxed);
        self.envelopes.fetch_add(1, Ordering::Relaxed);
        // Traced notifications get the notifier stamp right before they are
        // serialized onto the event layer; only the trace is copied for it,
        // and only for sampled writes.
        let stamped = envelope.trace.cloned().map(|mut trace| {
            trace.stamp(Stage::Notifier);
            trace
        });
        let envelope = EnvelopeRef { trace: stamped.as_ref(), ..envelope };
        let mut payload = self.config.wire_codec.writer();
        envelope.write_to(&mut payload);
        self.broker.publish(&notify_topic(&envelope.tenant.0), payload.finish());
    }

    fn initial_result(&mut self, req: &SubscriptionRequest) {
        self.remember(&req.tenant);
        if req.renewal {
            // Silent re-registration (failover replay): the client already
            // holds a live result, so re-emitting the cached bootstrap
            // snapshot would clobber it with stale state.
            self.config.metrics.inc("notifier.silent_renewals");
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

    /// Adds the tenant to the heartbeat round on first sight.
    fn remember(&mut self, tenant: &TenantId) {
        if !self.tenants.contains_key(tenant) {
            self.tenants.insert(tenant.clone(), self.clock.now());
        }
    }

    fn heartbeat(&mut self) {
        let now = self.clock.now();
        let interval = self.config.heartbeat_interval;
        for (tenant, last) in self.tenants.iter_mut() {
            if now.since(*last) >= interval {
                *last = now;
                let payload = self.config.wire_codec.encode(&doc! {
                    "type" => "heartbeat",
                    "tenant" => tenant.0.clone(),
                });
                self.broker.publish(&notify_topic(&tenant.0), payload);
            }
        }
    }
}

impl Bolt<Event> for Notifier {
    fn execute(&mut self, input: Event, _ctx: &mut BoltContext<'_, Event>) {
        match input {
            Event::Subscribe(req) => self.initial_result(&req),
            Event::Out(msg) => match &*msg {
                OutMsg::Notify(n) => self.publish(n.envelope()),
                OutMsg::Heartbeat { tenant } => {
                    let payload = self.config.wire_codec.encode(&doc! {
                        "type" => "heartbeat",
                        "tenant" => tenant.0.clone(),
                    });
                    self.broker.publish(&notify_topic(&tenant.0), payload);
                }
            },
            _ => {}
        }
    }

    fn tick(&mut self, _ctx: &mut BoltContext<'_, Event>) {
        self.heartbeat();
    }
}
