//! The aggregation stage — an *extension* implementing the paper's future
//! work (§8.1: "additional query types (e.g. aggregation ...) through
//! additional processing stages", cf. the SEDA stage design of §5.2).
//!
//! Like the sorting stage, aggregation nodes sit downstream of the
//! filtering stage and receive its output partitioned by query: each
//! aggregate query is owned by exactly one task, which maintains the
//! per-record contributions of the *entire* matching set and emits a new
//! [`invalidb_common::NotificationKind::Aggregate`] whenever the aggregate value changes.
//!
//! Because the filtering stage only forwards matching/ceased-matching
//! writes, the aggregation node's input throughput is bounded by the
//! query's selectivity, not by the raw write stream — the same load
//! reduction the paper describes for the sorting stage.
//!
//! Memory is proportional to the number of matching records (like an
//! unbounded sorted query). `count`/`sum`/`avg` maintain O(1) running
//! state plus the per-key version map; `min`/`max` additionally keep an
//! ordered multiset so removals are exact.

use crate::event::{Event, FilterChange, FilterChangeKind};
use crate::notifier::Publisher;
use crate::subscribers::Subscribers;
use invalidb_common::{
    canonical_eq, AggregateOp, Attributes, Clock, EnvelopeRef, Key, KindRef, QueryHash, Stage,
    SubscriptionId, SubscriptionRequest, TenantId, TraceContext, Value, Version,
};
use invalidb_stream::Task;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

struct AggGroup {
    op: AggregateOp,
    field: Option<String>,
    /// Per matching record: its version and its field contribution.
    contributions: HashMap<Key, (Version, Value)>,
    /// Ordered multiset of contributions (for min/max).
    ordered: BTreeMap<Key, usize>,
    /// Running sum over numeric contributions and their count (sum/avg).
    sum: f64,
    numeric: u64,
    last_emitted: Option<(Value, u64)>,
    subscriptions: Subscribers,
}

impl AggGroup {
    fn add_contribution(&mut self, value: &Value) {
        *self.ordered.entry(Key(value.clone())).or_insert(0) += 1;
        if let Some(n) = value.as_f64() {
            self.sum += n;
            self.numeric += 1;
        }
    }

    fn remove_contribution(&mut self, value: &Value) {
        if let Some(count) = self.ordered.get_mut(&Key(value.clone())) {
            *count -= 1;
            if *count == 0 {
                self.ordered.remove(&Key(value.clone()));
            }
        }
        if let Some(n) = value.as_f64() {
            self.sum -= n;
            self.numeric -= 1;
        }
    }

    fn current(&self) -> (Value, u64) {
        let count = self.contributions.len() as u64;
        let value = match self.op {
            AggregateOp::Count => Value::Int(count as i64),
            AggregateOp::Sum => number(self.sum),
            AggregateOp::Avg => {
                if self.numeric == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.numeric as f64)
                }
            }
            AggregateOp::Min => self.ordered.keys().next().map(|k| k.0.clone()).unwrap_or(Value::Null),
            AggregateOp::Max => {
                self.ordered.keys().next_back().map(|k| k.0.clone()).unwrap_or(Value::Null)
            }
        };
        (value, count)
    }
}

/// Renders a running float sum as an `Int` when it is integral, so pure
/// integer workloads keep integer aggregates on the wire.
fn number(sum: f64) -> Value {
    if sum.fract() == 0.0 && sum.abs() < 9_007_199_254_740_992.0 {
        Value::Int(sum as i64)
    } else {
        Value::Float(sum)
    }
}

/// One partition of the aggregation stage: a [`Task`] on its own thread.
pub struct AggregationNode {
    clock: Arc<dyn Clock>,
    publisher: Publisher,
    groups: HashMap<(TenantId, QueryHash), AggGroup>,
}

impl AggregationNode {
    /// Creates an aggregation node.
    pub fn new(clock: Arc<dyn Clock>, publisher: Publisher) -> Self {
        Self { clock, publisher, groups: HashMap::new() }
    }

    /// Number of aggregate queries owned by this node.
    pub fn active_queries(&self) -> usize {
        self.groups.len()
    }

    fn handle_subscribe(&mut self, req: &SubscriptionRequest) {
        let agg = match &req.spec.aggregate {
            Some(a) => a.clone(),
            None => return,
        };
        let now = self.clock.now();
        let expires_at = now.after(std::time::Duration::from_micros(req.ttl_micros));
        let group_key = (req.tenant.clone(), req.query_hash);
        let group = self.groups.entry(group_key).or_insert_with(|| AggGroup {
            op: agg.op,
            field: agg.field.clone(),
            contributions: HashMap::new(),
            ordered: BTreeMap::new(),
            sum: 0.0,
            numeric: 0,
            last_emitted: None,
            subscriptions: Subscribers::default(),
        });
        let fresh_group = group.subscriptions.is_empty() && group.contributions.is_empty();
        group.subscriptions.insert(req.subscription, expires_at);
        if fresh_group {
            // Seed from the initial (un-aggregated) result.
            for item in &req.initial {
                if let Some(doc) = &item.doc {
                    let value = contribution(doc, &group.field);
                    group.contributions.insert(item.key.clone(), (item.version, value.clone()));
                    group.add_contribution(&value);
                }
            }
        }
        // The first notification for the new subscription is the current
        // aggregate value.
        let (value, count) = group.current();
        self.publisher.publish(EnvelopeRef {
            tenant: &req.tenant,
            subscriptions: &[req.subscription],
            kind: KindRef::Aggregate { value: &value, count },
            caused_by_write_at: 0,
            trace: None,
        });
        group.last_emitted = Some((value, count));
    }

    fn handle_filter_change(&mut self, fc: &FilterChange) {
        let img = &fc.header;
        let group = match self.groups.get_mut(&(img.tenant.clone(), fc.query_hash)) {
            Some(g) => g,
            None => return,
        };
        // Version guard (replay/renewal crossings).
        if let Some((seen, _)) = group.contributions.get(&img.key) {
            if img.version <= *seen {
                return;
            }
        }
        match fc.kind {
            FilterChangeKind::Add | FilterChangeKind::Change => {
                let Some(record) = fc.record() else { return };
                let new_value = contribution(&record, &group.field);
                let old = group.contributions.insert(img.key.clone(), (img.version, new_value.clone()));
                if let Some((_, old_value)) = &old {
                    if canonical_eq(old_value, &new_value) {
                        // Contribution unchanged; only the version moved.
                        return;
                    }
                    let old_value = old_value.clone();
                    group.remove_contribution(&old_value);
                }
                group.add_contribution(&new_value);
            }
            FilterChangeKind::Remove => {
                if let Some((_, old_value)) = group.contributions.remove(&img.key) {
                    group.remove_contribution(&old_value);
                } else {
                    return;
                }
            }
        }
        let (value, count) = group.current();
        let changed = match &group.last_emitted {
            Some((v, c)) => !canonical_eq(v, &value) || *c != count,
            None => true,
        };
        if changed {
            // Stamp the aggregation stage once on sampled traces.
            let trace: Option<TraceContext> = fc.trace.clone().map(|mut t| {
                t.stamp(Stage::Aggregation);
                t
            });
            self.publisher.publish(EnvelopeRef {
                tenant: &img.tenant,
                subscriptions: group.subscriptions.ids(),
                kind: KindRef::Aggregate { value: &value, count },
                caused_by_write_at: img.written_at,
                trace: trace.as_ref(),
            });
            group.last_emitted = Some((value, count));
        }
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

/// A record's contribution to the aggregate: its (first) value at the
/// field path, read where the record is held, or `Null` when missing
/// (counted, but numerically inert).
fn contribution(record: &impl Attributes, field: &Option<String>) -> Value {
    match field {
        None => Value::Int(1),
        Some(path) => record.attr_path(path).map_or(Value::Null, Cow::into_owned),
    }
}

impl Task<Event> for AggregationNode {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::event::WriteHeader;
    use crate::notifier::testing::{Wire, TENANT};
    use invalidb_common::{doc, Document, MockClock, NotificationKind, QuerySpec, ResultItem};

    /// Drives the node directly; what it publishes is read back off the
    /// notify topic.
    struct Probe {
        node: AggregationNode,
        wire: Wire,
        out: Vec<(Value, u64)>,
    }

    impl Probe {
        fn new() -> Self {
            let clock = MockClock::new();
            let wire = Wire::new(&ClusterConfig::new(1, 1), &clock);
            Self {
                node: AggregationNode::new(Arc::new(clock), wire.publisher.clone()),
                wire,
                out: Vec::new(),
            }
        }

        fn subscribe(&mut self, spec: &QuerySpec, initial: Vec<ResultItem>) {
            let req = SubscriptionRequest {
                tenant: TenantId::new(TENANT),
                subscription: SubscriptionId(1),
                query_hash: spec.stable_hash(),
                spec: spec.clone(),
                initial,
                slack: 0,
                ttl_micros: u64::MAX / 2,
                renewal: false,
            };
            self.drive(Event::Subscribe(Arc::new(req)));
        }

        fn change(
            &mut self,
            spec: &QuerySpec,
            kind: FilterChangeKind,
            key: i64,
            version: u64,
            doc: Option<Document>,
        ) {
            let header =
                WriteHeader { tenant: TenantId::new(TENANT), key: Key::of(key), version, written_at: 0 };
            let change = FilterChange::of_document(spec.stable_hash(), kind, header, doc.as_ref(), None);
            self.drive(Event::FilterChange(change));
        }

        fn drive(&mut self, event: Event) {
            self.node.handle(event);
            for envelope in self.wire.envelopes() {
                if let NotificationKind::Aggregate { value, count } = envelope.kind {
                    self.out.push((value, count));
                }
            }
        }

        fn last(&self) -> &(Value, u64) {
            self.out.last().expect("an aggregate notification")
        }
    }

    fn count_spec() -> QuerySpec {
        QuerySpec::filter("t", doc! {}).aggregated(AggregateOp::Count, None)
    }

    fn spec_of(op: AggregateOp) -> QuerySpec {
        QuerySpec::filter("t", doc! {}).aggregated(op, Some("n"))
    }

    #[test]
    fn count_tracks_membership() {
        let spec = count_spec();
        let mut p = Probe::new();
        p.subscribe(&spec, vec![ResultItem::new(Key::of(0i64), 1, doc! { "n" => 1i64 })]);
        assert_eq!(p.last(), &(Value::Int(1), 1));
        p.change(&spec, FilterChangeKind::Add, 1, 1, Some(doc! { "n" => 5i64 }));
        assert_eq!(p.last(), &(Value::Int(2), 2));
        p.change(&spec, FilterChangeKind::Remove, 0, 2, None);
        assert_eq!(p.last(), &(Value::Int(1), 1));
        // Content change without membership change: count stays silent.
        let before = p.out.len();
        p.change(&spec, FilterChangeKind::Change, 1, 2, Some(doc! { "n" => 6i64 }));
        assert_eq!(p.out.len(), before, "count unchanged -> no notification");
    }

    #[test]
    fn sum_and_avg() {
        let spec = spec_of(AggregateOp::Sum);
        let mut p = Probe::new();
        p.subscribe(&spec, vec![]);
        assert_eq!(p.last(), &(Value::Int(0), 0));
        p.change(&spec, FilterChangeKind::Add, 1, 1, Some(doc! { "n" => 10i64 }));
        p.change(&spec, FilterChangeKind::Add, 2, 1, Some(doc! { "n" => 2.5f64 }));
        assert_eq!(p.last(), &(Value::Float(12.5), 2));
        p.change(&spec, FilterChangeKind::Change, 1, 2, Some(doc! { "n" => 20i64 }));
        assert_eq!(p.last(), &(Value::Float(22.5), 2));
        p.change(&spec, FilterChangeKind::Remove, 2, 2, None);
        assert_eq!(p.last(), &(Value::Int(20), 1));

        let spec = spec_of(AggregateOp::Avg);
        let mut p = Probe::new();
        p.subscribe(&spec, vec![]);
        assert_eq!(p.last(), &(Value::Null, 0), "avg of empty set is null");
        p.change(&spec, FilterChangeKind::Add, 1, 1, Some(doc! { "n" => 10i64 }));
        p.change(&spec, FilterChangeKind::Add, 2, 1, Some(doc! { "n" => 20i64 }));
        assert_eq!(p.last(), &(Value::Float(15.0), 2));
        // A record without the field counts for membership, not the mean.
        p.change(&spec, FilterChangeKind::Add, 3, 1, Some(doc! { "other" => 1i64 }));
        assert_eq!(p.last(), &(Value::Float(15.0), 3));
    }

    #[test]
    fn min_max_with_duplicates() {
        let spec = spec_of(AggregateOp::Min);
        let mut p = Probe::new();
        p.subscribe(&spec, vec![]);
        p.change(&spec, FilterChangeKind::Add, 1, 1, Some(doc! { "n" => 5i64 }));
        p.change(&spec, FilterChangeKind::Add, 2, 1, Some(doc! { "n" => 5i64 }));
        p.change(&spec, FilterChangeKind::Add, 3, 1, Some(doc! { "n" => 9i64 }));
        assert_eq!(p.last(), &(Value::Int(5), 3));
        // Removing ONE of the duplicate minima must not change the min.
        p.change(&spec, FilterChangeKind::Remove, 1, 2, None);
        assert_eq!(p.last(), &(Value::Int(5), 2));
        p.change(&spec, FilterChangeKind::Remove, 2, 2, None);
        assert_eq!(p.last(), &(Value::Int(9), 1));

        let spec = spec_of(AggregateOp::Max);
        let mut p = Probe::new();
        p.subscribe(
            &spec,
            vec![
                ResultItem::new(Key::of(1i64), 1, doc! { "n" => 3i64 }),
                ResultItem::new(Key::of(2i64), 1, doc! { "n" => 7i64 }),
            ],
        );
        assert_eq!(p.last(), &(Value::Int(7), 2));
        p.change(&spec, FilterChangeKind::Remove, 2, 2, None);
        assert_eq!(p.last(), &(Value::Int(3), 1));
    }

    #[test]
    fn stale_versions_ignored() {
        let spec = count_spec();
        let mut p = Probe::new();
        p.subscribe(&spec, vec![]);
        p.change(&spec, FilterChangeKind::Add, 1, 5, Some(doc! { "n" => 1i64 }));
        let before = p.out.len();
        p.change(&spec, FilterChangeKind::Remove, 1, 4, None);
        assert_eq!(p.out.len(), before, "stale remove dropped");
        assert_eq!(p.last(), &(Value::Int(1), 1));
    }

    #[test]
    fn unsubscribe_frees_group() {
        let spec = count_spec();
        let mut p = Probe::new();
        p.subscribe(&spec, vec![]);
        assert_eq!(p.node.active_queries(), 1);
        p.drive(Event::Unsubscribe {
            tenant: TenantId::new(TENANT),
            subscription: SubscriptionId(1),
            query_hash: spec.stable_hash(),
        });
        assert_eq!(p.node.active_queries(), 0);
    }
}
