//! Sustained subscribe-and-write workload against an already-running
//! cluster event layer — the probe half of the CI cluster-smoke job.
//!
//! ```text
//! cluster_workload <event-addr> <seconds>
//! ```
//!
//! Connects an application server to the event layer at `<event-addr>`,
//! subscribes to one real-time query, then writes matching documents at a
//! steady rate for `<seconds>` while counting change notifications pushed
//! back by the remote matching grid. Exits nonzero if no notification
//! arrives — which is exactly what happens when the grid has no live
//! worker — so CI can assert "the cluster matched something" and, around
//! a worker SIGKILL, "the cluster kept matching".

use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::net::{RemoteBroker, RemoteBrokerConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(event_addr), Some(seconds)) = (args.next(), args.next()) else {
        eprintln!("usage: cluster_workload <event-addr> <seconds>");
        std::process::exit(2);
    };
    let seconds: u64 = seconds.parse().expect("seconds must be a number");

    let store = Arc::new(Store::new());
    let remote = RemoteBroker::connect(
        event_addr.clone(),
        RemoteBrokerConfig { client_name: "cluster-workload".into(), ..Default::default() },
    );
    if !remote.wait_connected(Duration::from_secs(10)) {
        eprintln!("event layer at {event_addr} unreachable");
        std::process::exit(1);
    }
    let app = AppServer::start("smoke", Arc::clone(&store), remote, AppServerConfig::default());

    let spec = QuerySpec::filter("readings", doc! { "hot" => true });
    let mut sub = app.subscribe(&spec).unwrap();
    match sub.events().timeout(Duration::from_secs(10)).next() {
        Some(ClientEvent::Initial(_)) => {}
        other => {
            eprintln!("no initial result from the grid (got {other:?})");
            std::process::exit(1);
        }
    }

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut written = 0u64;
    let mut notified = 0u64;
    while Instant::now() < deadline {
        written += 1;
        app.insert(
            "readings",
            Key::of(format!("r{written}")),
            doc! { "hot" => true, "seq" => written as i64 },
        )
        .unwrap();
        // Drain whatever the grid pushed back since the last write.
        while let Some(event) = sub.events().non_blocking().next() {
            if matches!(event, ClientEvent::Change(_)) {
                notified += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Grace period for in-flight notifications.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < drain_deadline {
        match sub.events().timeout(Duration::from_millis(200)).next() {
            Some(ClientEvent::Change(_)) => notified += 1,
            Some(_) => {}
            None => break,
        }
    }

    println!("wrote {written} documents, received {notified} change notifications");
    if notified == 0 {
        eprintln!("the matching grid pushed back nothing — no live worker?");
        std::process::exit(1);
    }
}
