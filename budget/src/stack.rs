//! The system under test: a fresh `Store → AppServer → event layer →
//! Cluster` stack per set-up, in-process or over loopback TCP.

use crate::model::{Workload, COLLECTION, TENANT};
use invalidb_broker::{notify_topic, Broker, CLUSTER_TOPIC};
use invalidb_client::{AppServer, AppServerConfig};
use invalidb_core::{Cluster, ClusterConfig};
use invalidb_net::{BrokerServer, BrokerServerConfig, RemoteBroker, RemoteBrokerConfig};
use invalidb_store::Store;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One running deployment. Dropping it stops every thread it started.
pub struct Stack {
    pub store: Arc<Store>,
    /// The event layer's broker: in-process it is the event layer, over
    /// TCP it sits behind `server`.
    pub broker: Broker,
    pub app: AppServer,
    cluster: Option<Cluster>,
    links: Vec<RemoteBroker>,
    server: Option<BrokerServer>,
}

/// Send-queue capacity of the TCP links, in frames. The default (1024,
/// drop-oldest) is below this deployment's own bursts: every 10 s the app
/// server's keeper publishes one `ExtendTtl` per subscription, 5 016 frames
/// at once, and the overflow sheds whatever writes are queued beside them.
const LINK_QUEUE_FRAMES: usize = 1 << 16;

fn connect(addr: &str, name: &str) -> Result<RemoteBroker, String> {
    let config = RemoteBrokerConfig {
        client_name: name.into(),
        queue_capacity: LINK_QUEUE_FRAMES,
        ..Default::default()
    };
    let link = RemoteBroker::connect(addr, config);
    if link.wait_connected(Duration::from_secs(10)) {
        Ok(link)
    } else {
        link.shutdown();
        Err(format!("{name}: no connection to the loopback event layer"))
    }
}

impl Stack {
    /// Starts the deployment a workload asks for.
    pub fn start(w: &Workload) -> Result<Stack, String> {
        let store = Arc::new(Store::new());
        // A deployment serving these pull queries indexes the attribute
        // they select on; `Store::save` then pays the index maintenance.
        store.collection(COLLECTION).create_index(w.index_field()).map_err(|e| e.to_string())?;
        let broker = Broker::new();
        let cluster_config = ClusterConfig::new(w.grid.0, w.grid.1);
        // The default bucket (20 renewals/s) would make the sorted workload
        // measure the bucket constant instead of the pipeline. Slack is
        // pinned: adaptive growth (x2 per renewal, up to 64) would let every
        // window swallow its whole 20-document category within a few
        // renewals, after which the workload never renews again.
        let app_config = AppServerConfig {
            renewal_burst: 1_000_000,
            renewals_per_sec: 1_000_000.0,
            max_slack: AppServerConfig::default().default_slack,
            ..AppServerConfig::default()
        };
        let (cluster, app, links, server) = if w.tcp {
            let server_config = BrokerServerConfig {
                queue_capacity: LINK_QUEUE_FRAMES,
                ..BrokerServerConfig::default()
            };
            let server = BrokerServer::bind("127.0.0.1:0", broker.clone(), server_config)
                .map_err(|e| format!("bind loopback event layer: {e}"))?;
            let addr = server.local_addr().to_string();
            let cluster_link = connect(&addr, "budget-cluster")?;
            let cluster = Cluster::start(cluster_link.clone(), cluster_config);
            let app_link = connect(&addr, "budget-app")?;
            let app = AppServer::start(TENANT, Arc::clone(&store), app_link.clone(), app_config);
            (cluster, app, vec![cluster_link, app_link], Some(server))
        } else {
            let cluster = Cluster::start(broker.clone(), cluster_config);
            let app = AppServer::start(TENANT, Arc::clone(&store), broker.clone(), app_config);
            (cluster, app, Vec::new(), None)
        };
        let stack = Stack { store, broker, app, cluster: Some(cluster), links, server };
        // Over TCP a topic subscription is live only once the server has
        // seen it; a write published earlier would be lost, not late.
        let deadline = Instant::now() + Duration::from_secs(10);
        while stack.broker.subscriber_count(CLUSTER_TOPIC) == 0
            || stack.broker.subscriber_count(&notify_topic(TENANT)) == 0
        {
            if Instant::now() > deadline {
                return Err("event-layer subscriptions never became live".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(stack)
    }

    /// Metrics of the cluster side (`matching.*`, `sorting.*`, `notifier.*`).
    pub fn cluster_metrics(&self) -> invalidb_obs::MetricsSnapshot {
        self.cluster.as_ref().expect("running until drop").metrics()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(cluster) = self.cluster.take() {
            cluster.shutdown();
        }
        for link in &self.links {
            link.shutdown();
        }
        if let Some(server) = self.server.as_mut() {
            server.shutdown();
        }
        // `app` drops after this body and joins its own threads.
    }
}
