//! Ablation — write-stream retention (§5.1).
//!
//! The paper's design keeps received after-images buffered at the matching
//! nodes and replays them on subscription, closing the write-subscription
//! race; versioned writes additionally defeat event-layer reordering
//! (staleness avoidance). This ablation drives the *live* cluster through a
//! chaotic event layer (random per-message delays → reordering) while
//! racing writes against subscriptions, with retention enabled vs. disabled,
//! and reports the missed-notification rate.
//!
//! Expectation: with retention ≈ 0, races lose notifications; with the
//! paper's few-seconds retention, delivery is complete.

use invalidb_bench::table;
use invalidb_broker::{notify_topic, Broker, ChaosConfig, CLUSTER_TOPIC};
use invalidb_common::{
    doc, AfterImage, ClusterMessage, Key, NotificationKind, NotifyEnvelope, QuerySpec, SubscriptionId,
    SubscriptionRequest, TenantId,
};
use invalidb_core::{Cluster, ClusterConfig};
use std::time::Duration;

const TENANT: &str = "bench";
const TRIALS: usize = 60;

fn main() {
    table::banner("Ablation", "Write-stream retention vs. the write-subscription race");
    let mut rows = Vec::new();
    for (label, retention) in
        [("retention disabled", Duration::ZERO), ("retention 2 s (paper)", Duration::from_secs(2))]
    {
        let missed = run_trials(retention);
        rows.push(vec![
            label.to_string(),
            format!("{TRIALS}"),
            format!("{missed}"),
            format!("{:.0}%", missed as f64 / TRIALS as f64 * 100.0),
        ]);
    }
    table::table(&["configuration", "raced subscriptions", "missed notifications", "miss rate"], &rows);
    println!(
        "expectation: disabling retention loses racing writes; the paper's retention closes the race"
    );
}

/// Runs raced write/subscribe trials against a chaotic broker; returns how
/// many notifications were missed.
fn run_trials(retention: Duration) -> usize {
    let mut missed = 0;
    for seed in 0..TRIALS as u64 {
        let broker = Broker::with_chaos(ChaosConfig {
            seed,
            delay: Some((Duration::ZERO, Duration::from_millis(15))),
            drop_probability: 0.0,
            scope: Default::default(),
        });
        let notify = broker.subscribe(&notify_topic(TENANT));
        let mut cfg = ClusterConfig::new(1, 1);
        cfg.retention = retention;
        cfg.tick_interval = Duration::from_millis(5);
        let cluster = Cluster::start(broker.clone(), cfg);

        let spec = QuerySpec::filter("t", doc! { "n" => doc! { "$gte" => 0i64 } });
        // The write races the subscription through the delayed event layer;
        // the initial result does not contain it (write-query race resolved
        // query-first).
        publish(
            &broker,
            &ClusterMessage::Write(AfterImage {
                tenant: TenantId::new(TENANT),
                collection: "t".into(),
                key: Key::of(seed as i64),
                version: 1,
                doc: Some(doc! { "n" => 1i64 }),
                written_at: 1,
                trace: None,
            }),
        );
        publish(
            &broker,
            &ClusterMessage::Subscribe(SubscriptionRequest {
                tenant: TenantId::new(TENANT),
                subscription: SubscriptionId(seed + 1),
                query_hash: spec.stable_hash(),
                spec: spec.clone(),
                initial: vec![],
                slack: 0,
                ttl_micros: 60_000_000,
                renewal: false,
            }),
        );
        // Await the add notification (or give up).
        let deadline = std::time::Instant::now() + Duration::from_millis(600);
        let mut got_add = false;
        while std::time::Instant::now() < deadline && !got_add {
            if let Some(p) = notify.recv_timeout(Duration::from_millis(50)) {
                if let Ok(d) = invalidb_json::payload_to_document(&p) {
                    if let Ok(envelope) = NotifyEnvelope::from_document(d) {
                        if matches!(envelope.kind, NotificationKind::Change(_)) {
                            got_add = true;
                        }
                    }
                }
            }
        }
        if !got_add {
            missed += 1;
        }
        cluster.shutdown();
    }
    missed
}

fn publish(broker: &Broker, msg: &ClusterMessage) {
    broker.publish(CLUSTER_TOPIC, invalidb_json::WireCodec.encode(&msg.to_document()));
}
