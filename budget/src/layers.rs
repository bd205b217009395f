//! Layer replay: the first generated writes of a workload, and the
//! notifications the model expects for them, pushed single-threaded
//! through each layer's public entry point. Every number here is a service
//! time or a count measured from outside the layer; nothing waits.

use crate::model::{Model, Shape, Workload, Write, COLLECTION, TENANT};
use crate::trace::Tracer;
use bytes::Bytes;
use invalidb_broker::{Broker, CLUSTER_TOPIC};
use invalidb_client::LiveResult;
use invalidb_common::{
    AfterImage, ChangeItem, ClusterMessage, MatchType, Notification, NotificationKind, QuerySpec,
    ResultItem, SubscriptionId, TenantId,
};
use invalidb_core::ingest::decode_cluster_payload;
use invalidb_core::query_index::QueryIndex;
use invalidb_core::SortedWindow;
use invalidb_json::{payload_to_document, WireCodec};
use invalidb_net::{BrokerServer, BrokerServerConfig, Decoder, Frame, RemoteBroker, RemoteBrokerConfig};
use invalidb_query::{MongoQueryEngine, PreparedQuery, QueryEngine};
use invalidb_store::Store;
use invalidb_stream::{Bolt, BoltContext, Grouping, TopologyBuilder};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most writes replayed.
const REPLAY_WRITES: usize = 20_000;
/// Most notifications replayed (the fan-out workload reaches this first).
const REPLAY_NOTIFICATIONS: usize = 100_000;
/// Messages bounced through each hop measurement.
const HOPS: usize = 5_000;
/// Subscriptions sampled for per-query costs.
const QUERY_SAMPLE: usize = 2_000;
/// Remove + insert pairs timed against the full index.
const INDEX_CHURN: usize = 24;

pub type Metrics = BTreeMap<&'static str, f64>;

struct Replay<'a> {
    tracer: &'a mut Tracer,
    parent: u32,
    out: Metrics,
}

impl Replay<'_> {
    /// Times `n` calls of `f`, records one span, and returns the mean
    /// nanoseconds per call.
    fn time(&mut self, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
        let start = Instant::now();
        for i in 0..n {
            f(i);
        }
        let end = Instant::now();
        self.tracer.span(name, start, end, Some(self.parent), None, Some(n as u64));
        (end - start).as_secs_f64() * 1e9 / n.max(1) as f64
    }
}

fn mean(total: usize, n: usize) -> f64 {
    total as f64 / n.max(1) as f64
}

struct PassThrough;
impl Bolt<Bytes> for PassThrough {
    fn execute(&mut self, input: Bytes, ctx: &mut BoltContext<'_, Bytes>) {
        ctx.emit(input);
    }
}

struct Sink(Arc<AtomicU64>);
impl Bolt<Bytes> for Sink {
    fn execute(&mut self, input: Bytes, _ctx: &mut BoltContext<'_, Bytes>) {
        black_box(input);
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// Runs the replay for one workload and returns its per-layer metrics.
pub fn replay(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Metrics, String> {
    let started = Instant::now();
    let parent = tracer.span("replay", started, started, None, None, None);
    let mut r = Replay { tracer, parent, out: Metrics::new() };

    let mut model = Model::new(*w, seed);
    let preload = model.preload();
    let mut writes: Vec<Write> = Vec::new();
    let mut expected = 0usize;
    while writes.len() < REPLAY_WRITES.min(4 * w.cycle()) && expected < REPLAY_NOTIFICATIONS {
        let next = model.take(1).pop().expect("one write");
        expected += next.expects.len();
        writes.push(next);
    }
    let n = writes.len();
    // The cluster keeps one query per distinct normalized filter, however
    // many subscriptions share it; so does the replay.
    let mut seen = std::collections::HashSet::new();
    let specs: Vec<QuerySpec> =
        model.specs().iter().filter(|s| seen.insert(s.stable_hash())).cloned().collect();
    let sample = &specs[..specs.len().min(QUERY_SAMPLE)];

    // store: save with the pull-query index maintained; execute as
    // `subscribe()` issues it (bootstrap rewrite with the pinned slack).
    let store = Store::new();
    store.collection(COLLECTION).create_index(w.index_field()).map_err(|e| e.to_string())?;
    for (key, doc) in &preload {
        store.save(COLLECTION, key.clone(), doc.clone()).map_err(|e| e.to_string())?;
    }
    let mut versions = Vec::with_capacity(n);
    let save_ns = r.time("store.save", n, |i| {
        let saved = store.save(COLLECTION, writes[i].key.clone(), writes[i].doc.clone()).expect("save");
        versions.push(saved.version);
    });
    r.out.insert("store.save_ns", save_ns);
    let slack = 3;
    let execute_ns = r.time("store.execute", sample.len(), |i| {
        black_box(store.execute(&sample[i].rewrite_for_bootstrap(slack)).expect("execute"));
    });
    r.out.insert("store.execute_us", execute_ns / 1e3);

    // json: the write envelope as `AppServer::forward` builds it.
    let codec = WireCodec::default();
    let images: Vec<AfterImage> = writes
        .iter()
        .zip(&versions)
        .map(|(wr, &version)| AfterImage {
            tenant: TenantId::new(TENANT),
            collection: COLLECTION.to_owned(),
            key: wr.key.clone(),
            version,
            doc: Some(wr.doc.clone()),
            written_at: 1_700_000_000_000_000,
            trace: None,
        })
        .collect();
    let mut envelopes: Vec<Bytes> = Vec::with_capacity(n);
    let encode_write_ns = r.time("json.encode_write", n, |i| {
        envelopes.push(codec.encode(&ClusterMessage::Write(images[i].clone()).to_document()));
    });
    r.out.insert("json.encode_write_ns", encode_write_ns);
    let write_bytes = mean(envelopes.iter().map(|e| e.len()).sum(), n);
    r.out.insert("json.write_envelope_bytes", write_bytes);

    // core.ingest: decode at the cluster's ingress.
    let decode_ns = r.time("ingest.decode", n, |i| {
        black_box(decode_cluster_payload(&envelopes[i]).expect("decodable envelope"));
    });
    r.out.insert("ingest.decode_ns", decode_ns);

    // json + client: the notifications the model expects, encoded as the
    // notifier does, decoded as the app server's dispatcher does, applied
    // as `Subscription` does.
    let notifications: Vec<Notification> = writes
        .iter()
        .zip(&versions)
        .flat_map(|(wr, &version)| {
            wr.expects.iter().map(move |e| Notification {
                tenant: TenantId::new(TENANT),
                subscription: SubscriptionId(e.sub as u64 + 1),
                kind: NotificationKind::Change(ChangeItem {
                    match_type: if e.removal { MatchType::Remove } else { MatchType::Add },
                    item: ResultItem {
                        key: wr.key.clone(),
                        version,
                        doc: (!e.removal).then(|| wr.doc.clone()),
                        index: None,
                    },
                    old_index: None,
                }),
                caused_by_write_at: 1_700_000_000_000_000,
                trace: None,
            })
        })
        .collect();
    let m = notifications.len();
    let mut notify_payloads: Vec<Bytes> = Vec::with_capacity(m);
    let encode_notify_ns = r.time("json.encode_notify", m, |i| {
        notify_payloads.push(codec.encode(&notifications[i].to_document()));
    });
    r.out.insert("json.encode_notify_ns", encode_notify_ns);
    let notify_bytes = mean(notify_payloads.iter().map(|e| e.len()).sum(), m);
    r.out.insert("json.notify_envelope_bytes", notify_bytes);
    let decode_notify_ns = r.time("json.decode_notify", m, |i| {
        let doc = payload_to_document(&notify_payloads[i]).expect("decodable notification");
        black_box(Notification::from_document(&doc).expect("well-formed notification"));
    });
    r.out.insert("json.decode_notify_ns", decode_notify_ns);
    let mut results: HashMap<SubscriptionId, LiveResult> = HashMap::new();
    let apply_ns = r.time("client.apply", m, |i| {
        results.entry(notifications[i].subscription).or_default().apply(&notifications[i]);
    });
    r.out.insert("client.apply_ns", apply_ns);
    drop(results);

    // broker: one envelope bounced between two threads; a hop is half a
    // round trip and includes the receiver's wake-up.
    let hops = HOPS.min(n);
    let broker = Broker::new();
    let (ping, pong) = (broker.subscribe("budget.ping"), broker.subscribe("budget.pong"));
    let hop_ns = std::thread::scope(|scope| {
        let echo = broker.clone();
        scope.spawn(move || {
            for _ in 0..hops {
                let Some(p) = ping.recv_timeout(Duration::from_secs(10)) else { return };
                echo.publish("budget.pong", p);
            }
        });
        r.time("broker.hop", hops, |i| {
            broker.publish("budget.ping", envelopes[i].clone());
            black_box(pong.recv_timeout(Duration::from_secs(10)).expect("echo"));
        }) / 2.0
    });
    r.out.insert("broker.hop_ns", hop_ns);

    // stream: source -> pass-through bolt -> sink, all envelopes streamed;
    // per message and hop.
    {
        let done = Arc::new(AtomicU64::new(0));
        let feed = std::sync::Mutex::new(Some(envelopes.clone()));
        let mut b = TopologyBuilder::<Bytes>::new();
        b.add_source("source", move |timeout: Duration| match feed.lock().expect("feed").take() {
            Some(all) => all,
            None => {
                std::thread::sleep(timeout);
                Vec::new()
            }
        });
        b.add_bolt("forward", 1, |_| Box::new(PassThrough));
        let sink_count = Arc::clone(&done);
        b.add_bolt("sink", 1, move |_| Box::new(Sink(Arc::clone(&sink_count))));
        b.connect("source", "forward", Grouping::Shuffle);
        b.connect("forward", "sink", Grouping::Shuffle);
        let start = Instant::now();
        let topology = b.start();
        let deadline = start + Duration::from_secs(30);
        while (done.load(Ordering::Acquire) as usize) < n && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let end = Instant::now();
        topology.shutdown();
        if (done.load(Ordering::Acquire) as usize) < n {
            return Err("stream replay: messages lost in the pass-through topology".into());
        }
        r.tracer.span("stream.hop", start, end, Some(parent), None, Some(n as u64));
        r.out.insert("stream.hop_ns", (end - start).as_secs_f64() * 1e9 / (2 * n) as f64);
    }

    // net: frame codec on every envelope, then a loopback hop. Only the
    // TCP workload enters this layer; the others report zero.
    for name in ["net.frame_encode_ns", "net.frame_decode_ns", "net.hop_us", "net.bytes_per_write"] {
        r.out.insert(name, 0.0);
    }
    if w.tcp {
        let frames: Vec<Frame> = envelopes
            .iter()
            .map(|p| Frame::Publish { topic: CLUSTER_TOPIC.to_owned(), payload: p.clone(), trace: None })
            .collect();
        let mut wire: Vec<Vec<u8>> = vec![Vec::new(); n];
        let frame_encode_ns = r.time("net.frame_encode", n, |i| frames[i].encode_into(&mut wire[i]));
        r.out.insert("net.frame_encode_ns", frame_encode_ns);
        let mut decoder = Decoder::new();
        let frame_decode_ns = r.time("net.frame_decode", n, |i| {
            decoder.feed(&wire[i]);
            black_box(decoder.next().expect("valid frame").expect("complete frame"));
        });
        r.out.insert("net.frame_decode_ns", frame_decode_ns);
        let frame_overhead = mean(wire.iter().map(Vec::len).sum(), n) - write_bytes;
        // Each envelope crosses the wire twice (producer -> server -> consumer).
        let per_write =
            2.0 * (write_bytes + frame_overhead) + 2.0 * mean(m, n) * (notify_bytes + frame_overhead);
        r.out.insert("net.bytes_per_write", per_write);

        let mut server = BrokerServer::bind("127.0.0.1:0", Broker::new(), BrokerServerConfig::default())
            .map_err(|e| format!("bind replay event layer: {e}"))?;
        let addr = server.local_addr().to_string();
        let link = |name: &str| {
            RemoteBroker::connect(
                addr.clone(),
                RemoteBrokerConfig { client_name: name.into(), ..Default::default() },
            )
        };
        let (near, far) = (link("budget-near"), link("budget-far"));
        let connected =
            near.wait_connected(Duration::from_secs(10)) && far.wait_connected(Duration::from_secs(10));
        let (ping, pong) = (far.subscribe("budget.ping"), near.subscribe("budget.pong"));
        // Both topic subscriptions must be acknowledged before the first publish.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (far.last_acked() == 0 || near.last_acked() == 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let hops = hops.min(2_000);
        let hop_ns = std::thread::scope(|scope| {
            let echo = far.clone();
            scope.spawn(move || {
                for _ in 0..hops {
                    let Some(p) = ping.recv_timeout(Duration::from_secs(10)) else { return };
                    echo.publish("budget.pong", p);
                }
            });
            let mut lost = false;
            let ns = r.time("net.hop", hops, |i| {
                near.publish("budget.ping", envelopes[i].clone());
                lost |= pong.recv_timeout(Duration::from_secs(10)).is_none();
            });
            (!lost).then_some(ns / 2.0)
        });
        near.shutdown();
        far.shutdown();
        server.shutdown();
        match hop_ns {
            Some(ns) if connected => r.out.insert("net.hop_us", ns / 1e3),
            _ => return Err("net replay: loopback echo lost a message".into()),
        };
    }

    // query + core.query_index: prepare, bulk load, probe, evaluate the
    // candidates, and what one subscribe/unsubscribe costs the full index
    // (including the rebuild the next probe pays).
    let engine = MongoQueryEngine;
    let mut prepared: Vec<Arc<dyn PreparedQuery>> = Vec::with_capacity(specs.len());
    let prepare_ns = r.time("query.prepare", specs.len(), |i| {
        prepared.push(engine.prepare(&specs[i]).expect("generated queries are valid"));
    });
    r.out.insert("query.prepare_us", prepare_ns / 1e3);
    let mut index: QueryIndex<u32> = QueryIndex::default();
    for (id, spec) in specs.iter().enumerate() {
        index.insert(id as u32, &spec.filter);
    }
    let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); n];
    index.candidates(&writes[0].doc, &mut Vec::new());
    let probe_ns = r.time("index.probe", n, |i| index.candidates(&writes[i].doc, &mut candidates[i]));
    r.out.insert("index.probe_ns", probe_ns);
    let pairs: Vec<(u32, u32)> =
        candidates.iter().enumerate().flat_map(|(i, c)| c.iter().map(move |&q| (i as u32, q))).collect();
    r.out.insert("index.candidates_per_write", mean(pairs.len(), n));
    let mut matched = 0usize;
    let eval_ns = r.time("query.eval", pairs.len(), |i| {
        let (wr, q) = pairs[i];
        matched += usize::from(prepared[q as usize].matches(&writes[wr as usize].doc));
    });
    r.out.insert("query.eval_ns", eval_ns);
    r.out.insert("index.precision", if pairs.is_empty() { 1.0 } else { mean(matched, pairs.len()) });
    let churn = INDEX_CHURN.min(specs.len());
    let mut scratch = Vec::new();
    let remove_ns = r.time("index.remove", churn, |i| {
        index.remove(i as u32);
        scratch.clear();
        index.candidates(&writes[i % n].doc, &mut scratch);
    });
    let insert_ns = r.time("index.insert", churn, |i| {
        index.insert(i as u32, &specs[i].filter);
        scratch.clear();
        index.candidates(&writes[i % n].doc, &mut scratch);
    });
    // The probe itself is in both; what is left is the index maintenance.
    r.out.insert("index.remove_us", (remove_ns - probe_ns).max(0.0) / 1e3);
    r.out.insert("index.insert_us", (insert_ns - probe_ns).max(0.0) / 1e3);

    // core.window: the sorted workload's windows, fed the writes of their
    // own category; a window that runs out of slack is reseeded (untimed),
    // as a renewal would.
    r.out.insert("window.apply_ns", 0.0);
    r.out.insert("window.events_per_apply", 0.0);
    if w.shape == Shape::Sorted {
        // A second store, stepped write by write, so a reseed sees the
        // collection as a renewal at that moment would.
        let store = Store::new();
        store.collection(COLLECTION).create_index(w.index_field()).map_err(|e| e.to_string())?;
        for (key, doc) in &preload {
            store.save(COLLECTION, key.clone(), doc.clone()).map_err(|e| e.to_string())?;
        }
        let bootstrap = |cat: usize| {
            store.execute(&specs[cat].rewrite_for_bootstrap(slack)).expect("bootstrap query")
        };
        let mut windows: Vec<SortedWindow> = (0..specs.len())
            .map(|cat| SortedWindow::new(Arc::clone(&prepared[cat]), slack, &bootstrap(cat)))
            .collect();
        let (mut busy, mut events) = (Duration::ZERO, 0usize);
        let start = Instant::now();
        for (wr, &version) in writes.iter().zip(&versions) {
            let cat =
                wr.doc.get("cat").and_then(|v| v.as_i64()).expect("sorted documents carry cat") as usize;
            store.save(COLLECTION, wr.key.clone(), wr.doc.clone()).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let outcome = windows[cat].apply(&wr.key, version, Some(&wr.doc));
            busy += t.elapsed();
            events += outcome.events.len();
            if outcome.error.is_some() {
                windows[cat] = SortedWindow::new(Arc::clone(&prepared[cat]), slack, &bootstrap(cat));
            }
        }
        r.tracer.span("window.apply", start, Instant::now(), Some(parent), None, Some(n as u64));
        r.out.insert("window.apply_ns", busy.as_secs_f64() * 1e9 / n as f64);
        r.out.insert("window.events_per_apply", mean(events, n));
    }

    r.tracer.spans[parent as usize].end_us += started.elapsed().as_secs_f64() * 1e6;
    Ok(r.out)
}
