//! Integration tests for the mini stream processor.

use crossbeam::channel::{unbounded, Receiver, Sender};
use invalidb_stream::{Bolt, BoltContext, Grouping, TopologyBuilder, TopologyConfig};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Source pulling from a crossbeam channel (mirrors a broker subscription).
struct ChannelSource(Receiver<u64>);

impl invalidb_stream::Source<u64> for ChannelSource {
    fn poll(&mut self, timeout: Duration) -> Vec<u64> {
        match self.0.recv_timeout(timeout) {
            Ok(v) => {
                let mut out = vec![v];
                out.extend(self.0.try_iter());
                out
            }
            Err(_) => Vec::new(),
        }
    }
}

/// Bolt that records which task saw which messages, optionally re-emitting.
struct Recorder {
    task: usize,
    seen: Arc<Mutex<Vec<(usize, u64)>>>,
    reemit: bool,
}

impl Bolt<u64> for Recorder {
    fn execute(&mut self, input: u64, ctx: &mut BoltContext<'_, u64>) {
        self.seen.lock().push((self.task, input));
        if self.reemit {
            ctx.emit(input * 10);
        }
    }
}

type Seen = Arc<Mutex<Vec<(usize, u64)>>>;

fn build_pipeline(
    grouping: Grouping,
    parallelism: usize,
) -> (Sender<u64>, Seen, invalidb_stream::RunningTopology) {
    let (tx, rx) = unbounded();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = TopologyBuilder::new().with_config(TopologyConfig {
        tick_interval: Duration::from_millis(10),
        ..TopologyConfig::default()
    });
    b.add_source("src", ChannelSource(rx));
    let seen2 = Arc::clone(&seen);
    b.add_bolt("sink", parallelism, move |task| {
        Box::new(Recorder { task, seen: Arc::clone(&seen2), reemit: false })
    });
    b.connect("src", "sink", grouping);
    let topo = b.start();
    (tx, seen, topo)
}

fn drain(seen: &Arc<Mutex<Vec<(usize, u64)>>>, expect: usize) -> Vec<(usize, u64)> {
    for _ in 0..500 {
        if seen.lock().len() >= expect {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    seen.lock().clone()
}

#[test]
fn shuffle_distributes_all_messages() {
    let (tx, seen, topo) = build_pipeline(Grouping::Shuffle, 4);
    for i in 0..100 {
        tx.send(i).unwrap();
    }
    let got = drain(&seen, 100);
    assert_eq!(got.len(), 100);
    let tasks: HashSet<usize> = got.iter().map(|(t, _)| *t).collect();
    assert_eq!(tasks.len(), 4, "round-robin uses every task");
    topo.shutdown();
}

#[test]
fn multi_stage_pipeline_transforms() {
    let (tx, rx) = unbounded();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut b = TopologyBuilder::new();
    b.add_source("src", ChannelSource(rx));
    b.add_bolt("stage1", 2, |task| {
        Box::new(Recorder { task, seen: Arc::new(Mutex::new(Vec::new())), reemit: true })
    });
    let seen2 = Arc::clone(&seen);
    b.add_bolt("stage2", 1, move |task| {
        Box::new(Recorder { task, seen: Arc::clone(&seen2), reemit: false })
    });
    b.connect("src", "stage1", Grouping::Shuffle);
    b.connect("stage1", "stage2", Grouping::Shuffle);
    let topo = b.start();
    for i in 1..=10 {
        tx.send(i).unwrap();
    }
    let got = drain(&seen, 10);
    assert_eq!(got.len(), 10);
    assert!(got.iter().all(|(_, m)| m % 10 == 0), "stage1 multiplied by 10");
    let metrics = topo.metrics().snapshot();
    assert_eq!(metrics.counters["stage1.processed"], 10, "stage1 processed all inputs");
    assert_eq!(metrics.counters["stage1.emitted"], 10, "stage1 emitted all outputs");
    topo.shutdown();
}

#[test]
fn shutdown_drains_in_flight_messages() {
    let (tx, seen, topo) = build_pipeline(Grouping::Shuffle, 2);
    for i in 0..1000 {
        tx.send(i).unwrap();
    }
    // Give sources a moment to ingest, then shut down immediately: every
    // ingested message must still be processed (drain-before-stop).
    std::thread::sleep(Duration::from_millis(50));
    topo.shutdown();
    let got = seen.lock().clone();
    assert_eq!(got.len(), 1000, "no message lost on shutdown");
}

#[test]
fn ticks_reach_bolts() {
    struct TickCounter(Arc<Mutex<u32>>);
    impl Bolt<u64> for TickCounter {
        fn execute(&mut self, _input: u64, _ctx: &mut BoltContext<'_, u64>) {}
        fn tick(&mut self, _ctx: &mut BoltContext<'_, u64>) {
            *self.0.lock() += 1;
        }
    }
    let (_tx, rx) = unbounded::<u64>();
    let ticks = Arc::new(Mutex::new(0));
    let mut b = TopologyBuilder::new().with_config(TopologyConfig {
        tick_interval: Duration::from_millis(5),
        ..TopologyConfig::default()
    });
    b.add_source("src", ChannelSource(rx));
    let t2 = Arc::clone(&ticks);
    b.add_bolt("ticky", 1, move |_| Box::new(TickCounter(Arc::clone(&t2))));
    b.connect("src", "ticky", Grouping::Shuffle);
    let topo = b.start();
    std::thread::sleep(Duration::from_millis(100));
    topo.shutdown();
    assert!(*ticks.lock() >= 5, "bolt received periodic ticks");
}

#[test]
#[should_panic(expected = "must be declared after")]
fn cyclic_connection_rejected() {
    let (_tx, rx) = unbounded::<u64>();
    let mut b = TopologyBuilder::new();
    b.add_source("src", ChannelSource(rx));
    b.add_bolt("a", 1, |_| {
        Box::new(Recorder { task: 0, seen: Arc::new(Mutex::new(Vec::new())), reemit: false })
    });
    b.connect("a", "src", Grouping::Shuffle);
}

#[test]
fn bounded_queues_apply_backpressure_without_loss() {
    // A deliberately slow bolt with a tiny queue: the source must block
    // rather than drop — delivery inside the topology is lossless (the
    // property the paper needed from Storm's at-least-once guarantee).
    let (tx, rx) = unbounded();
    let seen = Arc::new(Mutex::new(Vec::new()));
    struct Slow(Arc<Mutex<Vec<(usize, u64)>>>);
    impl Bolt<u64> for Slow {
        fn execute(&mut self, input: u64, _ctx: &mut BoltContext<'_, u64>) {
            std::thread::sleep(Duration::from_micros(300));
            self.0.lock().push((0, input));
        }
    }
    let mut b = TopologyBuilder::new().with_config(TopologyConfig {
        queue_capacity: 4, // tiny: forces the source to wait
        ..TopologyConfig::default()
    });
    b.add_source("src", ChannelSource(rx));
    let seen2 = Arc::clone(&seen);
    b.add_bolt("slow", 1, move |_| Box::new(Slow(Arc::clone(&seen2))));
    b.connect("src", "slow", Grouping::Shuffle);
    let topo = b.start();
    for i in 0..500u64 {
        tx.send(i).unwrap();
    }
    let got = drain(&seen, 500);
    assert_eq!(got.len(), 500, "every message survived the pressure");
    let values: Vec<u64> = got.iter().map(|(_, v)| *v).collect();
    let mut expect: Vec<u64> = (0..500).collect();
    expect.sort_unstable();
    let mut sorted = values.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expect);
    assert_eq!(values, (0..500).collect::<Vec<u64>>(), "FIFO preserved per channel");
    topo.shutdown();
}
