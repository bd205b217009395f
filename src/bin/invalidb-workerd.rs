//! `invalidb-workerd` — a remote matching worker.
//!
//! Connects to a coordinator's frame port (`--coordinator`) for
//! membership and to the shared event layer (`--event`) for the actual
//! write/subscription stream, then hosts whatever grid cells the
//! coordinator assigns. Reconnects with backoff if either connection
//! drops; epochs only move forward. Runs until killed.
//!
//! ```text
//! invalidb-workerd --coordinator 127.0.0.1:7000 --event 127.0.0.1:7001 \
//!                  --name w1 --weight 2
//! ```

use invalidb::cluster::{Worker, WorkerConfig};
use invalidb::core::ClusterConfig;
use invalidb::net::{RemoteBroker, RemoteBrokerConfig};
use std::time::Duration;

struct Options {
    coordinator: String,
    event: String,
    name: String,
    weight: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: invalidb-workerd --coordinator ADDR --event ADDR \
         [--name NAME] [--weight N]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut coordinator = None;
    let mut event = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut weight = 1u32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag_name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag_name}");
                usage()
            })
        };
        match flag.as_str() {
            "--coordinator" => coordinator = Some(value("--coordinator")),
            "--event" => event = Some(value("--event")),
            "--name" => name = value("--name"),
            "--weight" => weight = value("--weight").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    let (Some(coordinator), Some(event)) = (coordinator, event) else { usage() };
    Options { coordinator, event, name, weight }
}

fn main() {
    let opts = parse_options();
    let remote = RemoteBroker::connect(
        opts.event.clone(),
        RemoteBrokerConfig {
            client_name: format!("invalidb-workerd/{}", opts.name),
            ..Default::default()
        },
    );
    if !remote.wait_connected(Duration::from_secs(10)) {
        eprintln!("event layer at {} unreachable", opts.event);
        std::process::exit(1);
    }

    // The grid dimensions in the base config are placeholders; every
    // Assign frame carries the authoritative shape.
    let mut config = WorkerConfig::new(opts.name.clone(), ClusterConfig::new(1, 1));
    config.weight = opts.weight;
    let worker = Worker::connect(opts.coordinator.clone(), remote, config);

    println!("worker {} ready (coordinator {}, event {})", opts.name, opts.coordinator, opts.event);
    let _ = std::io::Write::flush(&mut std::io::stdout());

    // Operator console: report the hosted cell set on every change.
    let mut last: Option<(u64, Vec<usize>)> = None;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let current = (worker.epoch(), worker.cells());
        if last.as_ref() != Some(&current) {
            println!("worker {} epoch {} hosts cells {:?}", opts.name, current.0, current.1);
            let _ = std::io::Write::flush(&mut std::io::stdout());
            last = Some(current);
        }
    }
}
