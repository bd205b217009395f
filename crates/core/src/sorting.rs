//! The sorting stage (§5.2).
//!
//! Sorting nodes receive filtering-stage output *partitioned by query* —
//! each sorted query is owned by exactly one sorting task (the partition
//! of its query hash), which therefore holds the query's full
//! offset+result+slack window and can detect positional changes
//! (`changeIndex`), boundary crossings, and maintenance errors. A task
//! encodes and publishes the notifications for its windows itself.

use crate::config::ClusterConfig;
use crate::event::{Event, FilterChange};
use crate::notifier::Publisher;
use crate::subscribers::Subscribers;
use crate::window::{apply_events, SortedWindow, VisibleEvent, WindowItem};
use invalidb_common::{
    Clock, EnvelopeRef, ItemRef, KindRef, MatchType, QueryHash, Stage, SubscriptionId,
    SubscriptionRequest, TenantId, TraceContext,
};
use invalidb_obs::SlowQueryScratch;
use invalidb_query::PreparedQuery;
use invalidb_stream::Task;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct SortGroup {
    /// Human-readable rendering of the query spec, captured at subscribe
    /// time for the slow-query log.
    spec_display: String,
    prepared: Arc<dyn PreparedQuery>,
    window: SortedWindow,
    /// What subscribed clients currently hold (maintained by applying the
    /// same edit scripts that are sent out).
    client_state: Vec<WindowItem>,
    /// False after a maintenance error, until renewal re-activates.
    active: bool,
    /// Filter changes that arrived while deactivated, in arrival order.
    /// The renewal's fresh snapshot is read from the store *before* the
    /// Subscribe is published, so a change generated from a later write
    /// can still reach this task first. Discarding it would freeze its key
    /// at the snapshot's state forever; instead it is replayed —
    /// version-guarded — right after the reseed.
    pending: Vec<Arc<FilterChange>>,
    subscriptions: Subscribers,
}

/// Bound on buffered filter changes per deactivated query. On overflow
/// the oldest buffered change is shed: the next renewal's snapshot is
/// read later than anything shed, so it covers the loss.
const PENDING_CAP: usize = 4096;

/// One partition of the sorting stage: a [`Task`] on its own thread.
pub struct SortingNode {
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    publisher: Publisher,
    groups: HashMap<(TenantId, QueryHash), SortGroup>,
    /// Observability: maintenance errors raised.
    maintenance_errors: u64,
    /// Locally accumulated slow-query charges, flushed to the shared log
    /// on tick so the per-filter-change hot path never takes its lock.
    slow_scratch: SlowQueryScratch,
    /// Cluster-shared gauge of sort windows serving more than one
    /// subscription (shared sort windows: normalization collapses
    /// equivalent specs onto one query hash, so their subscriptions attach
    /// to one maintained window). Published as a tick delta, like the
    /// matching stage's `matching.index.*` gauges.
    metric_shared: Arc<AtomicU64>,
    last_shared: u64,
    /// `sorting.maintenance_errors`, `sorting.pending_shed` and this
    /// task's `sorting.<task>.active_queries`, resolved once.
    metric_errors: Arc<AtomicU64>,
    metric_pending_shed: Arc<AtomicU64>,
    gauge_active_queries: Arc<AtomicU64>,
}

impl SortingNode {
    /// Creates the sorting node for task index `task`.
    pub fn new(task: usize, config: ClusterConfig, clock: Arc<dyn Clock>, publisher: Publisher) -> Self {
        let metrics = &config.metrics;
        Self {
            metric_shared: metrics.gauge("matching.index.shared_windows"),
            metric_errors: metrics.counter("sorting.maintenance_errors"),
            metric_pending_shed: metrics.counter("sorting.pending_shed"),
            gauge_active_queries: metrics.gauge(&format!("sorting.{task}.active_queries")),
            config,
            clock,
            publisher,
            groups: HashMap::new(),
            maintenance_errors: 0,
            slow_scratch: SlowQueryScratch::new(),
            last_shared: 0,
        }
    }

    /// Number of sorted queries owned by this node.
    pub fn active_queries(&self) -> usize {
        self.groups.len()
    }

    /// Maintenance errors raised so far.
    pub fn maintenance_errors(&self) -> u64 {
        self.maintenance_errors
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        if !req.spec.needs_sorting_stage() {
            return; // unsorted queries live entirely in the filtering stage
        }
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let group_key = (req.tenant.clone(), req.query_hash);
        if let Some(group) = self.groups.get_mut(&group_key) {
            group.subscriptions.insert(req.subscription, expires_at);
            if group.active {
                // Late joiner: its initial result (fresh from the database)
                // may differ from the group's maintained window. Send the
                // correction delta to this subscription only.
                let fresh = SortedWindow::new(Arc::clone(&group.prepared), req.slack, &req.initial);
                for ev in crate::window::diff_visible(fresh.visible(), &group.client_state) {
                    publish_edit(&self.publisher, &req.tenant, &[req.subscription], &ev, 0, None);
                }
            } else {
                // Renewal: re-seed from the fresh result. On the wire a
                // renewal is indistinguishable from a fresh subscribe, so
                // the ingress has already re-sent the initial result and
                // the client's list is reset wholesale — emitting a delta
                // from the pre-error state on top of that replacement
                // would corrupt the client's list.
                let _ = group.window.reseed(req.slack, &req.initial, &group.client_state);
                group.active = true;
                group.client_state = group.window.snapshot_visible();
                // Replay changes buffered while deactivated. Per-key FIFO
                // order is preserved, and the window's version guard drops
                // whatever the fresh snapshot already reflects. A nested
                // maintenance error mid-replay re-buffers the remainder
                // for the next renewal.
                let pending = std::mem::take(&mut group.pending);
                for fc in pending {
                    if group.active {
                        self.maintenance_errors += u64::from(Self::apply_filter_change(
                            group,
                            &fc,
                            &self.publisher,
                            &self.metric_errors,
                            &mut self.slow_scratch,
                        ));
                    } else {
                        group.pending.push(fc);
                    }
                }
            }
            return;
        }
        let prepared = match self.config.engine.prepare(&req.spec) {
            Ok(p) => p,
            Err(_) => return, // the filtering stage already reported this
        };
        let window = SortedWindow::new(Arc::clone(&prepared), req.slack, &req.initial);
        let client_state = window.snapshot_visible();
        self.groups.insert(
            group_key,
            SortGroup {
                spec_display: req.spec.to_string(),
                prepared,
                window,
                client_state,
                active: true,
                pending: Vec::new(),
                subscriptions: Subscribers::of(req.subscription, expires_at),
            },
        );
    }

    fn handle_filter_change(&mut self, fc: &Arc<FilterChange>) {
        let group = match self.groups.get_mut(&(fc.tenant.clone(), fc.query_hash)) {
            Some(g) => g,
            None => return, // unknown query
        };
        if !group.active {
            // Awaiting renewal: buffer instead of discarding — the
            // renewal's snapshot may have been read before the write that
            // produced this change (see the `pending` field).
            if group.pending.len() >= PENDING_CAP {
                group.pending.remove(0);
                self.metric_pending_shed.fetch_add(1, Ordering::Relaxed);
            }
            group.pending.push(Arc::clone(fc));
            return;
        }
        self.maintenance_errors += u64::from(Self::apply_filter_change(
            group,
            fc,
            &self.publisher,
            &self.metric_errors,
            &mut self.slow_scratch,
        ));
    }

    /// Applies one filter change to an active group's window, publishing
    /// the visible edit script — or a maintenance error, which deactivates
    /// the group; returns whether that happened.
    fn apply_filter_change(
        group: &mut SortGroup,
        fc: &FilterChange,
        publisher: &Publisher,
        metric_errors: &AtomicU64,
        slow_scratch: &mut SlowQueryScratch,
    ) -> bool {
        // Slow-query accounting: the window maintenance below is the
        // sorting stage's per-query cost.
        let started = std::time::Instant::now();
        let outcome = group.window.apply(&fc.key, fc.version, fc.doc.as_ref());
        // Stamp the sorting stage once per filter change on sampled traces.
        let trace: Option<TraceContext> = fc.trace.clone().map(|mut t| {
            t.stamp(Stage::Sorting);
            t
        });
        let failed = outcome.error.is_some();
        if let Some(reason) = &outcome.error {
            // Query maintenance error: deactivate and ask for renewal. The
            // client's list stays at the last valid state (client_state).
            group.active = false;
            metric_errors.fetch_add(1, Ordering::Relaxed);
            publisher.publish(EnvelopeRef {
                tenant: &fc.tenant,
                subscriptions: group.subscriptions.ids(),
                kind: KindRef::Error(reason),
                caused_by_write_at: fc.written_at,
                trace: trace.as_ref(),
            });
        } else {
            apply_events(&mut group.client_state, &outcome.events);
            // One message per edit for the whole group: every member holds
            // the same list, so every member gets the same script.
            for ev in &outcome.events {
                let to = group.subscriptions.ids();
                publish_edit(publisher, &fc.tenant, to, ev, fc.written_at, trace.as_ref());
            }
        }
        slow_scratch.charge(
            fc.tenant.as_str(),
            fc.query_hash.0,
            || group.spec_display.clone(),
            started.elapsed().as_micros() as u64,
        );
        failed
    }

    fn handle_unsubscribe(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
    ) {
        if let Some(group) = self.groups.get_mut(&(tenant.clone(), query_hash)) {
            group.subscriptions.remove(subscription);
            if group.subscriptions.is_empty() {
                self.groups.remove(&(tenant.clone(), query_hash));
            }
        }
    }

    fn handle_extend_ttl(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
        ttl_micros: u64,
    ) {
        let now = self.clock.now();
        if let Some(group) = self.groups.get_mut(&(tenant.clone(), query_hash)) {
            group.subscriptions.extend_ttl(subscription, now, ttl_micros);
        }
    }

    fn expire(&mut self) {
        let now = self.clock.now();
        self.groups.retain(|_, group| {
            group.subscriptions.expire(now);
            !group.subscriptions.is_empty()
        });
    }
}

/// Publishes the notification announcing one window edit to
/// `subscriptions`, serialized straight from the edit.
fn publish_edit(
    publisher: &Publisher,
    tenant: &TenantId,
    subscriptions: &[SubscriptionId],
    ev: &VisibleEvent,
    written_at: u64,
    trace: Option<&TraceContext>,
) {
    fn indexed(item: &WindowItem, index: usize) -> ItemRef<'_> {
        ItemRef {
            key: &item.key,
            version: item.version,
            doc: Some(&item.doc),
            index: Some(index as u64),
        }
    }
    let (match_type, item, old_index) = match ev {
        VisibleEvent::Add { item, index } => (MatchType::Add, indexed(item, *index), None),
        VisibleEvent::Change { item, index } => (MatchType::Change, indexed(item, *index), None),
        VisibleEvent::ChangeIndex { item, old_index, index } => {
            (MatchType::ChangeIndex, indexed(item, *index), Some(*old_index as u64))
        }
        VisibleEvent::Remove { key, version, old_index } => (
            MatchType::Remove,
            ItemRef { key, version: *version, doc: None, index: None },
            Some(*old_index as u64),
        ),
    };
    publisher.publish(EnvelopeRef {
        tenant,
        subscriptions,
        kind: KindRef::Change { match_type, item, old_index },
        caused_by_write_at: written_at,
        trace,
    });
}

impl Task<Event> for SortingNode {
    fn handle(&mut self, input: Event) {
        match input {
            Event::Subscribe(req) => self.handle_subscribe(&req),
            Event::FilterChange(fc) => self.handle_filter_change(&fc),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            Event::Write(_) => {}
        }
    }

    fn tick(&mut self) {
        self.expire();
        self.slow_scratch.flush(&self.config.metrics.slow_queries());
        // Per-task gauge, refreshed once per tick like the matching grid's.
        self.gauge_active_queries.store(self.groups.len() as u64, Ordering::Relaxed);
        let shared = self.groups.values().filter(|g| g.subscriptions.len() >= 2).count() as u64;
        crate::matching::publish_gauge_delta(&self.metric_shared, &mut self.last_shared, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FilterChangeKind;
    use crate::notifier::testing::{Wire, TENANT};
    use invalidb_common::{
        doc, Document, Key, MatchType, MockClock, Notification, NotificationKind, QuerySpec, ResultItem,
        SortDirection,
    };

    /// One sorting task driven synchronously; what it publishes is read
    /// back off the notify topic.
    struct Harness {
        node: SortingNode,
        wire: Wire,
        /// Everything published so far, as the addressees see it.
        seen: Vec<Notification>,
    }

    fn harness(config: ClusterConfig) -> Harness {
        let clock = MockClock::new();
        let wire = Wire::new(&config, &clock);
        let node = SortingNode::new(0, config, Arc::new(clock), wire.publisher.clone());
        Harness { node, wire, seen: Vec::new() }
    }

    impl Harness {
        fn send(&mut self, event: Event) {
            self.node.handle(event);
        }

        fn notifications(&mut self) -> &[Notification] {
            self.seen.extend(self.wire.notifications());
            &self.seen
        }

        fn shared_windows(&mut self) -> Option<u64> {
            self.node.tick();
            self.node.config.metrics.snapshot().gauges.get("matching.index.shared_windows").copied()
        }
    }

    fn subscribe_event(spec: &QuerySpec, slack: u64, initial: Vec<ResultItem>) -> Event {
        subscribe_as(spec, 1, slack, initial)
    }

    fn subscribe_as(spec: &QuerySpec, sub: u64, slack: u64, initial: Vec<ResultItem>) -> Event {
        Event::Subscribe(Arc::new(SubscriptionRequest {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec: spec.clone(),
            initial,
            slack,
            ttl_micros: 60_000_000,
            renewal: false,
        }))
    }

    fn change_event(
        spec: &QuerySpec,
        kind: FilterChangeKind,
        key: &str,
        version: u64,
        doc: Option<Document>,
    ) -> Event {
        Event::FilterChange(Arc::new(FilterChange {
            tenant: TenantId::new(TENANT),
            query_hash: spec.stable_hash(),
            kind,
            key: Key::of(key),
            version,
            doc,
            written_at: 7,
            trace: None,
        }))
    }

    fn item(key: &str, version: u64, n: i64) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: Some(doc! { "n" => n }), index: None }
    }

    /// Regression test for the inactive-discard race: a filter change that
    /// reaches the sorting task while its query awaits renewal must be
    /// buffered and replayed after the reseed — the renewal's snapshot is
    /// read from the store before the Subscribe is published, so the change
    /// may postdate the snapshot and be the key's only chance to surface.
    #[test]
    fn changes_buffered_while_awaiting_renewal_replay_after_reseed() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec =
            QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Asc).with_limit(2);

        // Seed with zero slack and a full (hence incomplete) window: the
        // first remove exhausts the window and raises a maintenance error.
        h.send(subscribe_event(&spec, 0, vec![item("k1", 1, 1), item("k2", 1, 2)]));
        h.send(change_event(&spec, FilterChangeKind::Remove, "k1", 2, None));
        let notes = h.notifications().to_vec();
        assert_eq!(notes.len(), 1, "remove on an exhausted window must error: {notes:?}");
        assert!(
            matches!(notes[0].kind, NotificationKind::Error(_)),
            "expected maintenance error, got {:?}",
            notes[0].kind
        );

        // While the query is deactivated, two changes race the renewal:
        // one already covered by the upcoming snapshot (k2@1, stale) and
        // one that postdates it (k3). Both were silently discarded before.
        h.send(change_event(&spec, FilterChangeKind::Change, "k2", 1, Some(doc! { "n" => 2i64 })));
        h.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })));

        // Renewal: fresh snapshot read before k3's write reached the store.
        // Ample slack, window complete (1 item < cap).
        h.send(subscribe_event(&spec, 2, vec![item("k2", 1, 2)]));

        let notes = h.notifications().to_vec();
        assert_eq!(notes.len(), 2, "exactly the buffered fresh change must surface: {notes:?}");
        match &notes[1].kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1));
            }
            other => panic!("expected buffered add to replay, got {other:?}"),
        }
    }

    /// Shared-sort-window churn: two subscriptions share one window (same
    /// normalized query hash). One member leaves while the window is
    /// deactivated awaiting renewal; the survivor's renewal must re-seed
    /// the window, replay the `pending` buffer, and keep delivering
    /// ordered notifications — the window dies only with its last member.
    #[test]
    fn shared_window_survives_member_churn_mid_renewal() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec =
            QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Asc).with_limit(2);

        // Two subscribers, one shared window.
        h.send(subscribe_as(&spec, 1, 0, vec![item("k1", 1, 1), item("k2", 1, 2)]));
        h.send(subscribe_as(&spec, 2, 0, vec![item("k1", 1, 1), item("k2", 1, 2)]));
        // The shared-windows gauge sees the group once both are attached.
        assert_eq!(h.shared_windows(), Some(1));

        // Exhaust the zero-slack window: maintenance error deactivates the
        // group and notifies both members.
        h.send(change_event(&spec, FilterChangeKind::Remove, "k1", 2, None));
        let notes = h.notifications().to_vec();
        assert_eq!(notes.len(), 2, "both members get the maintenance error: {notes:?}");
        assert!(notes.iter().all(|n| matches!(n.kind, NotificationKind::Error(_))));
        let erred: std::collections::HashSet<u64> = notes.iter().map(|n| n.subscription.0).collect();
        assert_eq!(erred, std::collections::HashSet::from([1, 2]));

        // While deactivated: a change postdating the upcoming snapshot is
        // buffered, and member 1 leaves mid-renewal.
        h.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })));
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            query_hash: spec.stable_hash(),
            subscription: SubscriptionId(1),
        });

        // The survivor renews: reseed + pending replay must still work.
        h.send(subscribe_as(&spec, 2, 2, vec![item("k2", 1, 2)]));
        let notes = h.notifications().to_vec();
        assert_eq!(notes.len(), 3, "replay reaches only the survivor: {notes:?}");
        let replayed = &notes[2];
        assert_eq!(replayed.subscription, SubscriptionId(2), "departed member gets nothing");
        match &replayed.kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1), "ordered position maintained");
            }
            other => panic!("expected buffered add to replay, got {other:?}"),
        }

        // Ordered maintenance continues for the survivor after churn.
        h.send(change_event(&spec, FilterChangeKind::Add, "k0", 1, Some(doc! { "n" => 0i64 })));
        let notes = h.notifications().to_vec();
        let last = notes.last().unwrap();
        assert_eq!(last.subscription, SubscriptionId(2));
        match &last.kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.item.key, Key::of("k0"));
                assert_eq!(change.item.index, Some(0), "sorts ahead of the window");
            }
            other => panic!("expected ordered add, got {other:?}"),
        }

        // With one member left the window no longer counts as shared.
        assert_eq!(h.shared_windows(), Some(0));
    }
}
