//! Multi-process deployment: coordinator, two remote matching workers, and
//! an application server — four OS processes wired over loopback TCP.
//!
//! The paper's deployment (§5.3) separates three independently scalable
//! services: the pull-based store, the InvaliDB cluster, and the event
//! layer connecting them to application servers. This example runs that
//! topology for real, as separate processes:
//!
//! ```text
//!   invalidb-coordinatord          invalidb-workerd ×2
//!   ├─ coordinator (membership,    ├─ control conn → coordinator
//!   │  heartbeats, Assign)         └─ hosts assigned grid cells,
//!   └─ event layer (BrokerServer)     fed through a RemoteBroker
//!              ║
//!         TCP  ║  (event layer)
//!              ║
//!   this process: Store + AppServer over a RemoteBroker
//! ```
//!
//! The two workers split the 2×2 matching grid between them; the
//! coordinator prints the assignment table whenever the epoch changes,
//! and this example forwards those lines so you can watch placement
//! happen.
//!
//! Run with: `cargo run --release --example distributed`
//! (builds the daemons first: `cargo build --release --bins`)

use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::net::{RemoteBroker, RemoteBrokerConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, MetricsRegistry, QuerySpec};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// The sibling daemon binaries live next to this example's own binary:
/// `target/<profile>/examples/distributed` → `target/<profile>/<name>`.
fn daemon(name: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let profile_dir =
        exe.parent().and_then(|examples| examples.parent()).expect("target profile directory");
    let path = profile_dir.join(name);
    assert!(
        path.exists(),
        "{} not built — run `cargo build --bins` (same profile) first",
        path.display()
    );
    path
}

struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn main() {
    // ----- process 1: coordinator + event layer -----------------------
    let mut coordinatord = Command::new(daemon("invalidb-coordinatord"))
        .args(["--qp", "2", "--wp", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn invalidb-coordinatord");
    let mut coord_out = std::io::BufReader::new(coordinatord.stdout.take().expect("piped stdout"));
    let mut read_addr = |prefix: &str| -> String {
        let mut line = String::new();
        coord_out.read_line(&mut line).expect("coordinatord output");
        print!("[coordinatord] {line}");
        line.strip_prefix(prefix)
            .unwrap_or_else(|| panic!("expected `{prefix}…`, got `{line}`"))
            .trim()
            .to_string()
    };
    let coord_addr = read_addr("coordinator listening at ");
    let event_addr = read_addr("event layer at ");
    // Forward the coordinator's operator console (assignment tables).
    std::thread::spawn(move || {
        let mut line = String::new();
        while coord_out.read_line(&mut line).is_ok_and(|n| n > 0) {
            print!("[coordinatord] {line}");
            line.clear();
        }
    });

    // ----- processes 2 and 3: remote matching workers ------------------
    let workers: Vec<Child> = ["alpha", "beta"]
        .iter()
        .map(|name| {
            Command::new(daemon("invalidb-workerd"))
                .args(["--coordinator", &coord_addr, "--event", &event_addr, "--name", name])
                .stdout(Stdio::inherit())
                .spawn()
                .expect("spawn invalidb-workerd")
        })
        .collect();
    let mut children = vec![coordinatord];
    children.extend(workers);
    let _reaper = Reaper(children);

    // ----- process 4 (this one): store + application server ------------
    let store = Arc::new(Store::new());
    let metrics = MetricsRegistry::new();
    let remote = RemoteBroker::connect(
        event_addr.clone(),
        RemoteBrokerConfig {
            client_name: "distributed-example".into(),
            metrics: metrics.clone(),
            ..Default::default()
        },
    );
    assert!(remote.wait_connected(Duration::from_secs(5)), "event layer reachable");
    let app = AppServer::start(
        "distributed",
        Arc::clone(&store),
        remote.clone(),
        AppServerConfig::builder().build().expect("valid config"),
    );

    for (name, age) in [("ada", 36i64), ("grace", 45), ("edsger", 28)] {
        app.insert("users", Key::of(name), doc! { "name" => name, "age" => age }).unwrap();
    }

    let adults = QuerySpec::filter("users", doc! { "age" => doc! { "$gte" => 30i64 } });
    let mut sub = app.subscribe(&adults).unwrap();
    match sub.events().timeout(Duration::from_secs(10)).next().expect("initial result") {
        ClientEvent::Initial(items) => {
            println!("initial result from the remote grid: {} adults", items.len())
        }
        other => panic!("unexpected event: {other:?}"),
    }

    app.insert("users", Key::of("barbara"), doc! { "name" => "barbara", "age" => 33i64 }).unwrap();
    loop {
        match sub.events().timeout(Duration::from_secs(10)).next().expect("change notification") {
            ClientEvent::Change(c) if c.item.key == Key::of("barbara") => {
                println!("notification matched by a remote worker: {} {}", c.match_type, c.item.key);
                break;
            }
            other => println!("event: {other:?}"),
        }
    }

    let counters = metrics.snapshot().counters;
    let link = |name: &str| counters[&format!("net.client.distributed-example.{name}")];
    let (frames_in, frames_out) = (link("frames_in"), link("frames_out"));
    let (dropped, reconnects) = (link("dropped"), link("reconnects"));
    println!(
        "link metrics: {frames_in} frames in, {frames_out} frames out, \
         {dropped} dropped, {reconnects} (re)connects"
    );

    drop(sub);
    remote.shutdown();
    println!("done");
}
