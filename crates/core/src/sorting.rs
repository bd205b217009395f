//! The sorting stage (§5.2).
//!
//! Sorting nodes receive filtering-stage output *partitioned by query* —
//! each sorted query is owned by exactly one sorting task (the partition
//! of its query hash), which therefore holds the query's full
//! offset+result+slack window and can detect positional changes
//! (`changeIndex`), boundary crossings, and maintenance errors. A task
//! encodes and publishes the notifications for its windows itself, a
//! subscription's initial result included.
//!
//! One rule for every subscription handed an initial result — a first
//! subscriber, a joiner or a renewer: it gets a window of its own, seeded
//! from that result and caught up with the query's filter changes of the
//! last `retention`, each edit addressed to it alone. The window then joins
//! a group of the query whose visible slice (keys, versions, order) is the
//! same, or forms a group of its own: a group's members hold one list, so
//! one window and one edit script serve them all (SharedDB's rule: share
//! only over identical state). Groups whose slices have become equal merge
//! on tick. A maintenance error deactivates a group until each member has
//! renewed; a renewal reseeds only the subscription that renewed.

use crate::config::ClusterConfig;
use crate::event::{Event, FilterChange};
use crate::notifier::Publisher;
use crate::subscribers::Subscribers;
use crate::window::{SortedWindow, VisibleEvent, WindowItem};
use invalidb_common::{
    Clock, DocRef, EnvelopeRef, ItemRef, Key, KindRef, MatchType, QueryHash, Stage, SubscriptionId,
    SubscriptionRequest, TenantId, Timestamp, TraceContext,
};
use invalidb_query::PreparedQuery;
use invalidb_stream::Task;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Subscriptions of one query that hold the same list, and the window that
/// maintains it.
struct SortGroup {
    window: SortedWindow,
    /// False after a maintenance error: every member awaits its renewal.
    active: bool,
    subscriptions: Subscribers,
}

/// What a sorting task keeps of one sorted query.
#[derive(Default)]
struct SortedQuery {
    /// The prepared query; set by the first subscription.
    prepared: Option<Arc<dyn PreparedQuery>>,
    /// The query's filter changes of the last `retention`, in arrival
    /// order: what a new window is caught up with. A change shares its
    /// write's payload with the cell that retains the write.
    retained: VecDeque<(Timestamp, FilterChange)>,
    groups: Vec<SortGroup>,
}

impl SortedQuery {
    /// Takes `subscription` out of its group, if it has one; a group goes
    /// with its last member.
    fn leave(&mut self, subscription: SubscriptionId) {
        for group in &mut self.groups {
            group.subscriptions.remove(subscription);
        }
        self.groups.retain(|group| !group.subscriptions.is_empty());
    }

    /// The retained changes a new window is caught up with: of each key,
    /// the newest version only, in arrival order. The others are older than
    /// what the newest leaves, and replaying them would only move the
    /// window through states its subscriber never needs.
    fn newest_per_key(&self) -> Vec<&FilterChange> {
        let mut newest: HashMap<&Key, usize> = HashMap::new();
        for (at, (_, change)) in self.retained.iter().enumerate() {
            let slot = newest.entry(&change.header.key).or_insert(at);
            if self.retained[*slot].1.header.version <= change.header.version {
                *slot = at;
            }
        }
        let mut picked: Vec<usize> = newest.into_values().collect();
        picked.sort_unstable();
        picked.into_iter().map(|at| &self.retained[at].1).collect()
    }

    /// Merges the active groups whose visible slices are equal: their
    /// members hold the same list. The window with more items is kept.
    fn merge_equal_groups(&mut self) {
        if self.groups.len() < 2 {
            return;
        }
        let mut merged: Vec<SortGroup> = Vec::with_capacity(self.groups.len());
        for SortGroup { window, active, subscriptions } in self.groups.drain(..) {
            let same = |g: &&mut SortGroup| {
                active && g.active && same_list(g.window.visible(), window.visible())
            };
            match merged.iter_mut().find(same) {
                Some(group) => {
                    if window.len() > group.window.len() {
                        group.window = window;
                    }
                    group.subscriptions.absorb(subscriptions);
                }
                None => merged.push(SortGroup { window, active, subscriptions }),
            }
        }
        self.groups = merged;
    }
}

/// Whether two visible slices are one list: the same keys at the same
/// versions in the same order.
fn same_list(a: &[WindowItem], b: &[WindowItem]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.key == b.key && a.version == b.version)
}

/// One partition of the sorting stage: a [`Task`] on its own thread.
pub struct SortingNode {
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    publisher: Publisher,
    queries: HashMap<(TenantId, QueryHash), SortedQuery>,
    /// Cluster-shared gauge of sort windows serving more than one
    /// subscription. Published as a tick delta, like the matching stage's
    /// `matching.index.*` gauges.
    metric_shared: Arc<AtomicU64>,
    last_shared: u64,
    /// `sorting.maintenance_errors`, `sorting.replayed` and this task's
    /// `sorting.<task>.active_queries`, resolved once.
    metric_errors: Arc<AtomicU64>,
    metric_replayed: Arc<AtomicU64>,
    gauge_active_queries: Arc<AtomicU64>,
}

impl SortingNode {
    /// Creates the sorting node for task index `task`.
    pub fn new(task: usize, config: ClusterConfig, clock: Arc<dyn Clock>, publisher: Publisher) -> Self {
        let metrics = &config.metrics;
        // Nothing is shed here any more; the series stays, at 0, for the
        // readers that report it.
        metrics.counter("sorting.pending_shed");
        Self {
            metric_shared: metrics.gauge("matching.index.shared_windows"),
            metric_errors: metrics.counter("sorting.maintenance_errors"),
            metric_replayed: metrics.counter("sorting.replayed"),
            gauge_active_queries: metrics.gauge(&format!("sorting.{task}.active_queries")),
            config,
            clock,
            publisher,
            queries: HashMap::new(),
            last_shared: 0,
        }
    }

    /// Number of sorted queries with a subscription on this node.
    pub fn active_queries(&self) -> usize {
        self.queries.values().filter(|query| !query.groups.is_empty()).count()
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        if !req.spec.needs_sorting_stage() {
            return; // unsorted queries live entirely in the filtering stage
        }
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        // The client's list is reset to the initial result here, on the
        // thread that publishes every edit of the query: an edit of the
        // window a renewer leaves can no longer reach it after this.
        self.publisher.initial_result(req);
        let query = self.queries.entry((req.tenant.clone(), req.query_hash)).or_default();
        // A silent re-registration was handed no initial result: its
        // client holds what its group addresses to it.
        if req.renewal {
            let member =
                |g: &&mut SortGroup| g.subscriptions.ids().binary_search(&req.subscription).is_ok();
            let group = query.groups.iter_mut().find(member);
            if let Some(group) = group {
                group.subscriptions.insert(req.subscription, expires_at);
                return;
            }
        }
        query.leave(req.subscription);
        let prepared = match &query.prepared {
            Some(prepared) => Arc::clone(prepared),
            None => match self.config.engine.prepare(&req.spec) {
                Ok(prepared) => {
                    query.prepared = Some(Arc::clone(&prepared));
                    prepared
                }
                Err(e) => {
                    // The filtering stage prepares the filter alone and
                    // reports a filter it rejects; what only the whole query
                    // fails on (a sort the engine cannot do) is reported
                    // here.
                    if self.config.engine.prepare_filter(&req.spec.filter).is_ok() {
                        let reason = format!("query rejected: {e}");
                        publish_error(
                            &self.publisher,
                            &req.tenant,
                            &[req.subscription],
                            &reason,
                            0,
                            None,
                        );
                    }
                    return;
                }
            },
        };
        // The subscription's own window, caught up with what the query's
        // retained changes hold beyond its initial result, each edit
        // addressed to it alone. The window's version guard skips what the
        // initial result already reflects.
        let mut window = SortedWindow::new(prepared, req.slack, &req.initial);
        let to = std::slice::from_ref(&req.subscription);
        let mut active = true;
        for change in query.newest_per_key() {
            self.metric_replayed.fetch_add(1, Ordering::Relaxed);
            let written_at = change.header.written_at;
            match window.apply_change(change) {
                Ok(script) => {
                    for ev in script {
                        publish_edit(&self.publisher, &req.tenant, to, ev, written_at, None);
                    }
                }
                Err(reason) => {
                    self.metric_errors.fetch_add(1, Ordering::Relaxed);
                    publish_error(&self.publisher, &req.tenant, to, &reason, written_at, None);
                    active = false;
                    break;
                }
            }
        }
        // Join the group that holds the same list, or start one.
        let subscriptions = Subscribers::of(req.subscription, expires_at);
        query.groups.push(SortGroup { window, active, subscriptions });
        query.merge_equal_groups();
    }

    /// Applies one filter change to every active window of its query,
    /// publishing each window's edit script to the window's group — or a
    /// maintenance error, which deactivates the group — and retains it. A
    /// change of a query this task no longer knows (one still in flight when
    /// the query lapsed) is ignored.
    fn handle_filter_change(&mut self, change: FilterChange) {
        let now = self.clock.now();
        let header = &change.header;
        let Some(query) = self.queries.get_mut(&(header.tenant.clone(), change.query_hash)) else {
            return;
        };
        // Stamp the sorting stage once per filter change on sampled traces.
        let trace: Option<TraceContext> = change.trace.clone().map(|mut t| {
            t.stamp(Stage::Sorting);
            t
        });
        for SortGroup { window, active, subscriptions } in &mut query.groups {
            if !*active {
                continue; // its members renew, and their windows replay this
            }
            let to = subscriptions.ids();
            match window.apply_change(&change) {
                Ok(script) => {
                    // One message per edit for the whole group: every member
                    // holds the same list, so every member gets the same
                    // script.
                    for ev in script {
                        publish_edit(
                            &self.publisher,
                            &header.tenant,
                            to,
                            ev,
                            header.written_at,
                            trace.as_ref(),
                        );
                    }
                }
                Err(reason) => {
                    // Query maintenance error: deactivate and ask for
                    // renewal. The clients' lists stay at the last valid
                    // state.
                    *active = false;
                    self.metric_errors.fetch_add(1, Ordering::Relaxed);
                    publish_error(
                        &self.publisher,
                        &header.tenant,
                        to,
                        &reason,
                        header.written_at,
                        trace.as_ref(),
                    );
                }
            }
        }
        query.retained.push_back((now, change));
    }

    fn handle_unsubscribe(
        &mut self,
        tenant: &TenantId,
        query_hash: QueryHash,
        subscription: SubscriptionId,
    ) {
        if let Some(query) = self.queries.get_mut(&(tenant.clone(), query_hash)) {
            query.leave(subscription);
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
        if let Some(query) = self.queries.get_mut(&(tenant.clone(), query_hash)) {
            for group in &mut query.groups {
                group.subscriptions.extend_ttl(subscription, now, ttl_micros);
            }
        }
    }

    /// TTL enforcement and retention: expired subscriptions leave, changes
    /// older than the retention horizon are dropped, and a query goes with
    /// its last group and its last retained change.
    fn expire(&mut self) {
        let now = self.clock.now();
        let horizon = self.config.retention;
        self.queries.retain(|_, query| {
            for group in &mut query.groups {
                group.subscriptions.expire(now);
            }
            query.groups.retain(|group| !group.subscriptions.is_empty());
            while query.retained.pop_front_if(|(at, _)| now.since(*at) > horizon).is_some() {}
            !query.groups.is_empty() || !query.retained.is_empty()
        });
    }
}

/// Publishes a maintenance error or a rejection to `subscriptions`.
fn publish_error(
    publisher: &Publisher,
    tenant: &TenantId,
    subscriptions: &[SubscriptionId],
    reason: &str,
    written_at: u64,
    trace: Option<&TraceContext>,
) {
    publisher.publish(EnvelopeRef {
        tenant,
        subscriptions,
        kind: KindRef::Error(reason),
        caused_by_write_at: written_at,
        trace,
    });
}

/// Publishes the notification announcing one window edit to
/// `subscriptions`, serialized straight from the edit: an entering record's
/// bytes are copied in as they arrived.
fn publish_edit(
    publisher: &Publisher,
    tenant: &TenantId,
    subscriptions: &[SubscriptionId],
    ev: &VisibleEvent,
    written_at: u64,
    trace: Option<&TraceContext>,
) {
    let (match_type, item, index, old_index) = match ev {
        VisibleEvent::Add { item, index } => (MatchType::Add, item, *index, None),
        VisibleEvent::Change { item, index } => (MatchType::Change, item, *index, None),
        VisibleEvent::ChangeIndex { item, old_index, index } => {
            (MatchType::ChangeIndex, item, *index, Some(*old_index as u64))
        }
        VisibleEvent::Remove { key, version, old_index } => {
            let item = ItemRef { key, version: *version, doc: None, index: None };
            let kind = KindRef::Change {
                match_type: MatchType::Remove,
                item,
                old_index: Some(*old_index as u64),
            };
            publisher.publish(EnvelopeRef {
                tenant,
                subscriptions,
                kind,
                caused_by_write_at: written_at,
                trace,
            });
            return;
        }
    };
    let record = item.record();
    let item = ItemRef {
        key: &item.key,
        version: item.version,
        doc: Some(DocRef::Encoded(&record)),
        index: Some(index as u64),
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
            Event::FilterChange(change) => self.handle_filter_change(change),
            Event::Unsubscribe { tenant, query_hash, subscription } => {
                self.handle_unsubscribe(&tenant, query_hash, subscription)
            }
            Event::ExtendTtl { tenant, query_hash, subscription, ttl_micros } => {
                self.handle_extend_ttl(&tenant, query_hash, subscription, ttl_micros)
            }
            Event::Write(_) => {}
        }
    }

    fn tick(&mut self, now: Timestamp) -> Timestamp {
        self.expire();
        for query in self.queries.values_mut() {
            query.merge_equal_groups();
        }
        // Per-task gauge, refreshed once per tick like the matching grid's.
        self.gauge_active_queries.store(self.active_queries() as u64, Ordering::Relaxed);
        let groups = self.queries.values().flat_map(|query| &query.groups);
        let shared = groups.filter(|g| g.subscriptions.len() >= 2).count() as u64;
        crate::matching::publish_gauge_delta(&self.metric_shared, &mut self.last_shared, shared);
        now.after(self.config.tick_interval)
    }
}

#[cfg(test)]
mod exhaustive;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{CellSet, Ingress};
    use crate::event::{FilterChangeKind, WriteHeader};
    use crate::links::StageLinks;
    use crate::matching::MatchingNode;
    use crate::notifier::testing::{Wire, TENANT};
    use crossbeam::channel::{unbounded, Receiver};
    use invalidb_common::{
        doc, AfterImage, ClusterMessage, Document, GridShape, MockClock, Notification, NotificationKind,
        QuerySpec, ResultItem, SortDirection, Version,
    };
    use invalidb_json::WireCodec;
    use std::collections::BTreeMap;

    /// One sorting task driven synchronously behind the cluster's real
    /// ingress: a subscription goes through the ingress, which answers it
    /// as the cluster does and queues it for the task; a filter change is
    /// queued as a cell queues it. The queue reaches the task only on
    /// `deliver`, so a test chooses how events interleave. What is published
    /// is read back off the notify topic and folded per subscription as a
    /// client folds it. The grid's one cell gets what the ingress routes to
    /// it, writes included, when `run_cell` says; what it stages for the
    /// task waits in `in_flight` until `arrive`.
    pub(super) struct Harness {
        pub(super) node: SortingNode,
        ingress: Ingress,
        queue: Receiver<Event>,
        to_node: crossbeam::channel::Sender<Event>,
        pub(super) wire: Wire,
        /// Every notification so far, as the addressees see it.
        seen: Vec<Notification>,
        pub(super) clock: MockClock,
        pub(super) cell: MatchingNode,
        to_cell: Receiver<Event>,
        staged: Receiver<Event>,
        pub(super) in_flight: Vec<Event>,
    }

    pub(super) fn harness(config: ClusterConfig) -> Harness {
        let clock = MockClock::new();
        let wire = Wire::new(&config, &clock);
        let (to_node, queue) = unbounded();
        let links = StageLinks { sorting: vec![to_node.clone()] };
        let grid = GridShape::new(1, 1);
        let errors = Arc::new(AtomicU64::new(0));
        let (cell_link, to_cell) = unbounded();
        let ingress = Ingress::new(
            CellSet::all(grid),
            vec![Some(cell_link)],
            links,
            wire.publisher.clone(),
            &config,
            &errors,
        );
        let (cell, staged) =
            MatchingNode::solo(config.clone(), Arc::new(clock.clone()), wire.publisher.clone());
        let node = SortingNode::new(0, config, Arc::new(clock.clone()), wire.publisher.clone());
        let in_flight = Vec::new();
        Harness {
            node,
            ingress,
            queue,
            to_node,
            wire,
            seen: Vec::new(),
            clock,
            cell,
            to_cell,
            staged,
            in_flight,
        }
    }

    impl Harness {
        /// A subscription through the ingress, queued for the task.
        pub(super) fn subscribe(&mut self, request: SubscriptionRequest) {
            let mut w = WireCodec.writer();
            ClusterMessage::Subscribe(request).write_to(&mut w);
            self.ingress.handle(w.finish());
        }

        /// A write of `key`'s record `{n}`, or its delete, through the
        /// ingress to the cell, which runs.
        pub(super) fn write(&mut self, key: &str, version: Version, n: Option<i64>) {
            let image = AfterImage {
                tenant: TenantId::new(TENANT),
                collection: "t".into(),
                key: Key::of(key),
                version,
                doc: n.map(|n| doc! { "n" => n }),
                written_at: 7,
                trace: None,
            };
            let mut w = WireCodec.writer();
            image.as_ref().write_to(&mut w);
            self.ingress.handle(w.finish());
            self.run_cell();
        }

        /// Hands the cell what the ingress routed to it; what it stages
        /// for the task is in flight.
        pub(super) fn run_cell(&mut self) {
            while let Ok(event) = self.to_cell.try_recv() {
                self.cell.handle(event);
            }
            self.in_flight.extend(self.staged.try_iter());
        }

        /// Hands the task everything in flight, then everything queued.
        pub(super) fn arrive(&mut self) {
            for event in std::mem::take(&mut self.in_flight) {
                self.to_node.send(event).unwrap();
            }
            self.deliver();
        }

        /// An event queued for the task, as a cell or the ingress queues it.
        fn queue(&mut self, event: Event) {
            self.to_node.send(event).unwrap();
        }

        /// Hands the task everything queued.
        pub(super) fn deliver(&mut self) {
            while let Ok(event) = self.queue.try_recv() {
                self.node.handle(event);
            }
        }

        /// Delivers, then reads what was published.
        pub(super) fn send(&mut self, event: Event) {
            self.queue(event);
            self.deliver();
        }

        fn notifications(&mut self) -> &[Notification] {
            self.seen.extend(self.wire.notifications());
            &self.seen
        }

        /// Everything but initial results.
        fn edits(&mut self) -> Vec<Notification> {
            let notes = self.notifications().iter();
            notes
                .filter(|n| !matches!(n.kind, NotificationKind::InitialResult { .. }))
                .cloned()
                .collect()
        }

        /// Each subscription's list as a client folds it from its
        /// notifications, in order: an initial result resets it and an edit
        /// moves it by index.
        fn folded(&mut self) -> BTreeMap<u64, Vec<(Key, Version)>> {
            let mut lists: BTreeMap<u64, Vec<(Key, Version)>> = BTreeMap::new();
            for note in self.notifications() {
                let list = lists.entry(note.subscription.0).or_default();
                match &note.kind {
                    NotificationKind::InitialResult { items } => {
                        *list = items.iter().map(|i| (i.key.clone(), i.version)).collect();
                    }
                    NotificationKind::Change(c) => {
                        let entry = (c.item.key.clone(), c.item.version);
                        let index = c.item.index.map(|i| i as usize);
                        let old = c.old_index.map(|i| i as usize);
                        match (c.match_type, index, old) {
                            (MatchType::Add, Some(i), _) => list.insert(i.min(list.len()), entry),
                            (MatchType::Change, Some(i), _) if i < list.len() => list[i] = entry,
                            (MatchType::ChangeIndex, Some(i), Some(o)) if o < list.len() => {
                                list.remove(o);
                                list.insert(i.min(list.len()), entry);
                            }
                            (MatchType::Remove, _, Some(o)) if o < list.len() => {
                                list.remove(o);
                            }
                            other => panic!("edit off the list: {other:?} on {list:?}"),
                        }
                    }
                    NotificationKind::Error(_) => {}
                }
            }
            lists
        }

        fn shared_windows(&mut self) -> Option<u64> {
            self.node.tick(self.clock.now());
            self.node.config.metrics.snapshot().gauges.get("matching.index.shared_windows").copied()
        }
    }

    /// The store the tests' initial results are read from: key → (version,
    /// `n`), and the pull query on it.
    #[derive(Default)]
    struct Model(BTreeMap<&'static str, (Version, i64)>);

    impl Model {
        /// Saves `key` with `n`; returns the change a cell would stage for
        /// the query (`Add` for a record it did not hold).
        fn save(&mut self, spec: &QuerySpec, key: &'static str, n: i64) -> Event {
            let (version, kind) = match self.0.get(key) {
                Some((v, _)) => (v + 1, FilterChangeKind::Change),
                None => (1, FilterChangeKind::Add),
            };
            self.0.insert(key, (version, n));
            change_event(spec, kind, key, version, Some(doc! { "n" => n }))
        }

        fn delete(&mut self, spec: &QuerySpec, key: &'static str) -> Event {
            let (version, _) = self.0.remove(key).expect("a saved key");
            change_event(spec, FilterChangeKind::Remove, key, version + 1, None)
        }

        /// The spec's result (its filter matches everything), `extra`
        /// items beyond its limit included.
        fn pull(&self, spec: &QuerySpec, extra: usize) -> Vec<ResultItem> {
            let mut items: Vec<ResultItem> = self
                .0
                .iter()
                .map(|(k, (v, n))| ResultItem::new(Key::of(*k), *v, doc! { "n" => *n }))
                .collect();
            let prepared =
                invalidb_query::QueryEngine::prepare(&invalidb_query::MongoQueryEngine, spec).unwrap();
            items.sort_by(|a, b| {
                prepared.cmp_items((&a.key, a.doc.as_ref().unwrap()), (&b.key, b.doc.as_ref().unwrap()))
            });
            items.truncate(spec.limit.unwrap() as usize + extra);
            items
        }

        fn visible(&self, spec: &QuerySpec) -> Vec<(Key, Version)> {
            self.pull(spec, 0).into_iter().map(|i| (i.key, i.version)).collect()
        }
    }

    /// Every folded list is the pull result, order included, and holds no
    /// key twice.
    fn assert_folded_equal_pull(h: &mut Harness, model: &Model, spec: &QuerySpec, subs: &[u64]) {
        let lists = h.folded();
        for sub in subs {
            let list = &lists[sub];
            let mut keys: Vec<&Key> = list.iter().map(|(k, _)| k).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), list.len(), "subscription {sub} holds a key twice: {list:?}");
            assert_eq!(list, &model.visible(spec), "subscription {sub}");
        }
    }

    pub(super) fn request(
        spec: &QuerySpec,
        sub: u64,
        slack: u64,
        initial: Vec<ResultItem>,
    ) -> SubscriptionRequest {
        SubscriptionRequest {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(sub),
            query_hash: spec.stable_hash(),
            spec: spec.clone(),
            initial,
            slack,
            ttl_micros: 60_000_000,
            renewal: false,
        }
    }

    fn subscribe_as(spec: &QuerySpec, sub: u64, slack: u64, initial: Vec<ResultItem>) -> Event {
        Event::Subscribe(Arc::new(request(spec, sub, slack, initial)))
    }

    pub(super) fn change_event(
        spec: &QuerySpec,
        kind: FilterChangeKind,
        key: &str,
        version: u64,
        doc: Option<Document>,
    ) -> Event {
        let header =
            WriteHeader { tenant: TenantId::new(TENANT), key: Key::of(key), version, written_at: 7 };
        Event::FilterChange(FilterChange::of_document(
            spec.stable_hash(),
            kind,
            header,
            doc.as_ref(),
            None,
        ))
    }

    fn item(key: &str, version: u64, n: i64) -> ResultItem {
        ResultItem { key: Key::of(key), version, doc: Some(doc! { "n" => n }), index: None }
    }

    pub(super) fn top(limit: u64) -> QuerySpec {
        QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Desc).with_limit(limit)
    }

    /// ROADMAP item 1, first interleaving: a member renews while its group
    /// is active. The renewal's initial result was read after a write whose
    /// change reaches the task before the renewal does; the group's edit
    /// for that change must not land on the renewer's fresh list.
    #[test]
    fn a_member_that_renews_while_its_group_is_active_folds_the_pull_result() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = top(2);
        let mut model = Model::default();
        for (key, n) in [("k1", 10), ("k2", 20), ("k3", 30), ("k4", 40)] {
            model.save(&spec, key, n);
        }
        h.subscribe(request(&spec, 1, 2, model.pull(&spec, 2)));
        h.subscribe(request(&spec, 2, 2, model.pull(&spec, 2)));
        h.deliver();
        assert_eq!(h.shared_windows(), Some(1), "one group");

        // A write moves k1 to the top; its change is queued ahead of the
        // renewal, whose initial result already reflects it.
        let change = model.save(&spec, "k1", 50);
        h.queue(change);
        h.subscribe(request(&spec, 2, 2, model.pull(&spec, 2)));
        h.deliver();
        assert_folded_equal_pull(&mut h, &model, &spec, &[1, 2]);

        for (key, n) in [("k2", 60), ("k4", 5), ("k3", 55)] {
            let change = model.save(&spec, key, n);
            h.send(change);
            assert_folded_equal_pull(&mut h, &model, &spec, &[1, 2]);
        }
        assert_eq!(h.shared_windows(), Some(1), "the renewer rejoined its group");
    }

    /// ROADMAP item 1, second interleaving: a new joiner reaches a group
    /// that awaits renewal, with an initial result read before changes the
    /// group's window had already applied. The joiner must not reseed the
    /// group from it; every member ends on the pull result.
    #[test]
    fn a_joiner_that_reaches_a_group_awaiting_renewal_folds_the_pull_result() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = top(2);
        let mut model = Model::default();
        for (key, n) in [("k1", 10), ("k2", 20), ("k3", 30), ("k4", 40)] {
            model.save(&spec, key, n);
        }
        // Zero slack: the window runs out at the first removal it cannot
        // refill.
        h.subscribe(request(&spec, 1, 0, model.pull(&spec, 0)));
        h.deliver();
        // The joiner's initial result is read now, before the two writes.
        let stale = model.pull(&spec, 1);
        let change = model.save(&spec, "k5", 35);
        h.send(change);
        let change = model.delete(&spec, "k4");
        h.send(change);
        assert!(
            h.notifications().iter().any(|n| matches!(n.kind, NotificationKind::Error(_))),
            "the group awaits renewal"
        );
        h.subscribe(request(&spec, 3, 1, stale));
        h.deliver();
        assert_folded_equal_pull(&mut h, &model, &spec, &[3]);

        // The member renews from the store as it is now.
        h.subscribe(request(&spec, 1, 1, model.pull(&spec, 1)));
        h.deliver();
        assert_folded_equal_pull(&mut h, &model, &spec, &[1, 3]);
        for (key, n) in [("k1", 70), ("k2", 36), ("k3", 5)] {
            let change = model.save(&spec, key, n);
            h.send(change);
            assert_folded_equal_pull(&mut h, &model, &spec, &[1, 3]);
        }
        assert_eq!(h.shared_windows(), Some(1), "both hold one list in one group");
    }

    /// A filter change that reaches the task while its query awaits
    /// renewal is retained and replayed into the renewal's window — the
    /// renewal's snapshot is read from the store before the Subscribe is
    /// published, so the change may postdate the snapshot and be the key's
    /// only chance to surface. One the snapshot covers is skipped by the
    /// window's version guard.
    #[test]
    fn changes_retained_while_awaiting_renewal_replay_after_reseed() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec =
            QuerySpec::filter("t", Document::new()).sorted_by("n", SortDirection::Asc).with_limit(2);

        // Seed with zero slack and a full (hence incomplete) window: the
        // first remove exhausts the window and raises a maintenance error.
        h.send(subscribe_as(&spec, 1, 0, vec![item("k1", 1, 1), item("k2", 1, 2)]));
        h.send(change_event(&spec, FilterChangeKind::Remove, "k1", 2, None));
        let notes = h.edits();
        assert_eq!(notes.len(), 1, "remove on an exhausted window must error: {notes:?}");
        assert!(
            matches!(notes[0].kind, NotificationKind::Error(_)),
            "expected maintenance error, got {:?}",
            notes[0].kind
        );

        // While the query is deactivated, two changes race the renewal:
        // one already covered by the upcoming snapshot (k2@1, stale) and
        // one that postdates it (k3).
        h.send(change_event(&spec, FilterChangeKind::Change, "k2", 1, Some(doc! { "n" => 2i64 })));
        h.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })));

        // Renewal: fresh snapshot read before k3's write reached the store.
        // Ample slack, window complete (1 item < cap).
        h.send(subscribe_as(&spec, 1, 2, vec![item("k2", 1, 2)]));

        let notes = h.edits();
        assert_eq!(notes.len(), 2, "exactly the retained fresh change must surface: {notes:?}");
        match &notes[1].kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1));
            }
            other => panic!("expected the retained add to replay, got {other:?}"),
        }
        assert_eq!(h.node.config.metrics.snapshot().counters["sorting.replayed"], 3);
    }

    /// An engine that compiles the filter but not the sort: the filtering
    /// stage, which prepares filters only, accepts the query, so the
    /// sorting stage is the one that rejects it, once, to its subscriber.
    #[test]
    fn a_sort_the_engine_cannot_do_is_rejected_here() {
        let kv = ClusterConfig {
            engine: Arc::new(invalidb_query::KvQueryEngine),
            ..ClusterConfig::new(1, 1)
        };
        let mut h = harness(kv);
        let spec = QuerySpec::filter("t", doc! { "c" => "x" }).sorted_by("n", SortDirection::Asc);
        h.send(subscribe_as(&spec, 1, 0, Vec::new()));
        let notes = h.edits();
        assert_eq!(notes.len(), 1, "{notes:?}");
        match &notes[0].kind {
            NotificationKind::Error(e) => assert!(e.reason.contains("sort"), "{e:?}"),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(h.node.active_queries(), 0);
        // A filter the engine rejects was reported by the filtering stage.
        let bad = QuerySpec::filter("t", doc! { "c" => doc! { "$gt" => 1i64 } })
            .sorted_by("n", SortDirection::Asc);
        h.send(subscribe_as(&bad, 1, 0, Vec::new()));
        assert_eq!(h.edits().len(), 1, "not reported twice");
    }

    /// Shared-sort-window churn: two subscriptions share one window (same
    /// normalized query hash). One member leaves while the window is
    /// deactivated awaiting renewal; the survivor's renewal seeds its own
    /// window, replays the retained change, and keeps delivering ordered
    /// notifications.
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
        let notes = h.edits();
        assert_eq!(notes.len(), 2, "both members get the maintenance error: {notes:?}");
        assert!(notes.iter().all(|n| matches!(n.kind, NotificationKind::Error(_))));
        let erred: std::collections::HashSet<u64> = notes.iter().map(|n| n.subscription.0).collect();
        assert_eq!(erred, std::collections::HashSet::from([1, 2]));

        // While deactivated: a change postdating the upcoming snapshot is
        // retained, and member 1 leaves mid-renewal.
        h.send(change_event(&spec, FilterChangeKind::Add, "k3", 1, Some(doc! { "n" => 3i64 })));
        h.send(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            query_hash: spec.stable_hash(),
            subscription: SubscriptionId(1),
        });

        // The survivor renews: its window replays the retained change.
        h.send(subscribe_as(&spec, 2, 2, vec![item("k2", 1, 2)]));
        let notes = h.edits();
        assert_eq!(notes.len(), 3, "replay reaches only the survivor: {notes:?}");
        let replayed = &notes[2];
        assert_eq!(replayed.subscription, SubscriptionId(2), "departed member gets nothing");
        match &replayed.kind {
            NotificationKind::Change(change) => {
                assert_eq!(change.match_type, MatchType::Add);
                assert_eq!(change.item.key, Key::of("k3"));
                assert_eq!(change.item.index, Some(1), "ordered position maintained");
            }
            other => panic!("expected the retained add to replay, got {other:?}"),
        }

        // Ordered maintenance continues for the survivor after churn.
        h.send(change_event(&spec, FilterChangeKind::Add, "k0", 1, Some(doc! { "n" => 0i64 })));
        let notes = h.edits();
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

    /// Found by `exhaustive`: a joiner whose store read predates a write the
    /// query's first subscription read. The partition never retained a
    /// change for that write, the first subscription's initial result
    /// holding it; the cell replays a sorted joiner the newest retained
    /// write of each key from before the group formed, which the joiner's
    /// window catches up from and every other window ignores.
    #[test]
    fn a_joiner_whose_read_predates_the_first_subscription_folds_the_pull_result() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = top(2);
        let stale = Vec::new(); // 1. B reads the store: nothing.
        h.write("k0", 1, Some(10)); // 2.
        h.subscribe(request(&spec, 1, 1, vec![item("k0", 1, 10)])); // 3. A.
        h.deliver();
        h.run_cell();
        h.subscribe(request(&spec, 2, 0, stale)); // 4. B.
        h.deliver();
        h.run_cell();
        h.arrive();
        let held = vec![(Key::of("k0"), 1)];
        assert_eq!(h.folded(), BTreeMap::from([(1, held.clone()), (2, held)]));
        assert_eq!(h.shared_windows(), Some(1), "one list, one group");
    }

    /// Two subscriptions whose initial results differ start two groups; once
    /// the changes that separated them have reached both windows, the tick
    /// merges them, and one script serves both.
    #[test]
    fn groups_holding_the_same_list_merge_on_tick() {
        let mut h = harness(ClusterConfig::new(1, 1));
        let spec = top(2);
        let mut model = Model::default();
        for (key, n) in [("k1", 10), ("k2", 20), ("k3", 30)] {
            model.save(&spec, key, n);
        }
        let before = model.pull(&spec, 2);
        let change = model.save(&spec, "k1", 50);
        // Subscription 2 read the store after the write, 1 before it; the
        // change reaches the task after both.
        h.send(subscribe_as(&spec, 1, 2, before));
        h.send(subscribe_as(&spec, 2, 2, model.pull(&spec, 2)));
        assert_eq!(h.shared_windows(), Some(0), "two lists, two groups");
        h.send(change);
        assert_folded_equal_pull(&mut h, &model, &spec, &[1, 2]);
        assert_eq!(h.shared_windows(), Some(1), "one list, one group");
        let change = model.save(&spec, "k2", 60);
        let seen = h.notifications().len();
        h.send(change);
        let envelopes = h.notifications()[seen..].iter().filter(|n| n.subscription.0 == 1).count();
        assert_eq!(h.notifications().len() - seen, 2 * envelopes, "one script for both");
        assert_folded_equal_pull(&mut h, &model, &spec, &[1, 2]);
    }
}
