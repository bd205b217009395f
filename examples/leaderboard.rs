//! Leaderboard: a sorted real-time query with limit *and* offset — the
//! hard case of §5.2 (Figure 3's auxiliary-data machinery).
//!
//! Maintains "ranks 3–7" of a game leaderboard (`ORDER BY score DESC
//! OFFSET 2 LIMIT 5`) while players' scores churn. Demonstrates:
//!
//! * positional change notifications (`changeIndex`),
//! * items sliding between offset, result and beyond-limit regions,
//! * query maintenance errors and automatic, rate-limited renewal.
//!
//! Run with: `cargo run --release --example leaderboard`

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::{Store, UpdateSpec};
use invalidb::{doc, Key, QuerySpec, SortDirection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app = AppServer::start("game", Arc::clone(&store), broker.clone(), AppServerConfig::default());

    let mut rng = StdRng::seed_from_u64(42);
    let players = ["ada", "bob", "cyd", "dee", "eli", "fay", "gus", "hal", "ivy", "joe"];
    for p in players {
        app.insert("players", Key::of(p), doc! { "name" => p, "score" => rng.gen_range(0..1_000i64) })
            .unwrap();
    }

    // Ranks 3-7: ORDER BY score DESC OFFSET 2 LIMIT 5.
    let spec = QuerySpec::filter("players", doc! {})
        .sorted_by("score", SortDirection::Desc)
        .with_offset(2)
        .with_limit(5);
    println!("subscribing: {spec}");
    let mut sub = app.subscribe(&spec).unwrap();
    sub.events().timeout(Duration::from_secs(5)).next().expect("initial");
    print_board(&sub);

    // Churn scores and show the incremental notifications.
    for round in 1..=15 {
        let p = players[rng.gen_range(0..players.len())];
        let delta = rng.gen_range(-300..400i64);
        app.update(
            "players",
            Key::of(p),
            &UpdateSpec::from_document(&doc! { "$inc" => doc! { "score" => delta } }).unwrap(),
        )
        .unwrap();
        print!("round {round:>2}: {p} {delta:+} ");
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_millis(400);
        while std::time::Instant::now() < deadline {
            if let Some(ev) = sub.events().timeout(Duration::from_millis(50)).next() {
                events.push(ev);
            }
        }
        if events.is_empty() {
            println!("(no visible change)");
        } else {
            let shown: Vec<String> = events
                .iter()
                .map(|e| match e {
                    ClientEvent::Change(c) => format!("{} {}", c.match_type, c.item.key),
                    ClientEvent::MaintenanceError(_) => "maintenance-error -> renewal".to_string(),
                    other => format!("{other:?}"),
                })
                .collect();
            println!("{}", shown.join(", "));
        }
    }
    println!("\nfinal board (ranks 3-7):");
    print_board(&sub);

    // Verify against a fresh pull query — push and pull agree.
    let pulled = app.find(&spec).unwrap();
    let pulled_names: Vec<String> =
        pulled.iter().map(|r| r.doc.as_ref().unwrap().get("name").unwrap().to_string()).collect();
    let live_names: Vec<String> =
        sub.result().entries().iter().map(|e| e.doc.get("name").unwrap().to_string()).collect();
    println!("\npull said:  {pulled_names:?}");
    println!("push holds: {live_names:?}");
    assert_eq!(pulled_names, live_names, "push-maintained result equals pull result");
    println!("push == pull ✓  (renewals performed: {})", app.renewals_performed());
    cluster.shutdown();
}

fn print_board(sub: &invalidb::client::Subscription) {
    for (i, entry) in sub.result().entries().iter().enumerate() {
        println!(
            "  #{:<2} {:<4} {:>5}",
            i + 3,
            entry.doc.get("name").unwrap().as_str().unwrap(),
            entry.doc.get("score").unwrap().as_i64().unwrap()
        );
    }
}
