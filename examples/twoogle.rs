//! Twoogle — "searching Twitter with MongoDB queries" (the authors' demo,
//! BTW'19 [75]): expressive *content-based* real-time queries over a stream
//! of short messages, exercising the query features that commercial
//! real-time databases lack (Table 2): `$text` search, `$regex`, `$or`
//! composition, array membership and nested fields.
//!
//! Run with: `cargo run --release --example twoogle`

use invalidb::broker::Broker;
use invalidb::client::{AppServer, AppServerConfig, ClientEvent, Subscription};
use invalidb::core::{Cluster, ClusterConfig};
use invalidb::store::Store;
use invalidb::{doc, Key, QuerySpec, Value};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let store = Arc::new(Store::new());
    let broker = Broker::new();
    let cluster = Cluster::start(broker.clone(), ClusterConfig::new(2, 2));
    let app =
        AppServer::start("twoogle", Arc::clone(&store), broker.clone(), AppServerConfig::default());

    // Three live searches, each far beyond Firebase/Firestore expressiveness.
    let searches: Vec<(&str, QuerySpec)> = vec![
        (
            "full-text: rust -java",
            QuerySpec::filter("tweets", doc! { "$text" => doc! { "$search" => "rust -java" } }),
        ),
        (
            "regex on author + verified OR >1k followers",
            QuerySpec::filter(
                "tweets",
                doc! {
                    "author.handle" => doc! { "$regex" => "^db_", "$options" => "i" },
                    "$or" => vec![
                        Value::Object(doc! { "author.verified" => true }),
                        Value::Object(doc! { "author.followers" => doc! { "$gt" => 1_000i64 } }),
                    ],
                },
            ),
        ),
        (
            "hashtag membership + geo box over Hamburg",
            QuerySpec::filter(
                "tweets",
                doc! {
                    "tags" => "realtime",
                    "loc" => doc! { "$geoWithin" => doc! { "$box" => vec![
                        Value::from(vec![9.7f64, 53.3]),
                        Value::from(vec![10.3f64, 53.7]),
                    ]}},
                },
            ),
        ),
    ];

    let mut subs: Vec<(&str, Subscription)> = searches
        .iter()
        .map(|(name, spec)| {
            let mut s = app.subscribe(spec).expect("subscribe");
            s.events().timeout(Duration::from_secs(5)).next().expect("initial");
            (*name, s)
        })
        .collect();

    // The tweet firehose.
    let tweets = [
        (
            "t1",
            doc! {
                "text" => "Rust makes systems programming fun!",
                "author" => doc! { "handle" => "db_wolle", "verified" => true, "followers" => 500i64 },
                "tags" => vec!["rust", "systems"],
                "loc" => vec![9.99f64, 53.55],
            },
        ),
        (
            "t2",
            doc! {
                "text" => "Java and Rust walk into a bar",
                "author" => doc! { "handle" => "polyglot", "verified" => false, "followers" => 99i64 },
                "tags" => vec!["rust", "java"],
                "loc" => vec![13.4f64, 52.5],
            },
        ),
        (
            "t3",
            doc! {
                "text" => "Push-based realtime queries on pull-based databases",
                "author" => doc! { "handle" => "DB_felix", "verified" => false, "followers" => 5_000i64 },
                "tags" => vec!["realtime", "databases"],
                "loc" => vec![10.0f64, 53.5],
            },
        ),
        (
            "t4",
            doc! {
                "text" => "Nothing relevant here",
                "author" => doc! { "handle" => "rando", "verified" => false, "followers" => 3i64 },
                "tags" => vec!["misc"],
                "loc" => vec![0.0f64, 0.0],
            },
        ),
    ];
    for (id, tweet) in tweets {
        println!("tweet {id}: {}", tweet.get("text").unwrap());
        app.insert("tweets", Key::of(id), tweet).unwrap();
    }
    std::thread::sleep(Duration::from_millis(500));

    println!();
    let mut matched = Vec::new();
    for (name, sub) in subs.iter_mut() {
        let mut hits = Vec::new();
        while let Some(ev) = sub.events().non_blocking().next() {
            if let ClientEvent::Change(c) = ev {
                hits.push(c.item.key.to_string());
            }
        }
        println!("search [{name}] matched: {hits:?}");
        matched.push(hits);
    }
    // t1 matches search 0 (rust, no java); t2 has java -> excluded.
    assert_eq!(matched[0], vec![r#""t1""#]);
    // t1 (db_ + verified) and t3 (DB_ + >1k followers) match search 1.
    assert_eq!(matched[1].len(), 2);
    // t3 matches search 2 (tag + Hamburg box); t1 has the loc but no tag.
    assert_eq!(matched[2], vec![r#""t3""#]);
    println!("\nall content-based live searches matched exactly as expected ✓");
    cluster.shutdown();
}
