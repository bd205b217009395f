//! Criterion micro-benchmarks for the hot paths of the real-time engine:
//! query matching (the per-(query, write) cost that dominates matching-node
//! capacity), envelope decoding (the per-write event-layer overhead of
//! §6.3), JSON text (de)serialization (the admin output's), sorted-window
//! maintenance, partition hashing, and store CRUD.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use invalidb_bench::workload::{range_query, Workload};
use invalidb_common::{doc, GridShape, Key, QuerySpec, ResultItem, SortDirection};
use invalidb_core::query_index::QueryIndex;
use invalidb_core::window::SortedWindow;
use invalidb_query::{MongoQueryEngine, QueryEngine};
use invalidb_store::Store;
use std::sync::Arc;

fn bench_matching(c: &mut Criterion) {
    let mut w = Workload::new(1, 1_000);
    let queries: Vec<_> =
        w.queries(1_000).iter().map(|q| MongoQueryEngine.prepare(q).unwrap()).collect();
    let docs: Vec<_> = (0..100).map(|_| w.next_document().1).collect();
    let mut group = c.benchmark_group("matching");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("paper_workload_1000_queries_per_write", |b| {
        let mut i = 0;
        b.iter(|| {
            let doc = &docs[i % docs.len()];
            i += 1;
            let mut hits = 0u32;
            for q in &queries {
                if q.matches(black_box(doc)) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();

    let complex = QuerySpec::filter(
        "t",
        doc! {
            "$or" => vec![
                invalidb_common::Value::Object(doc! { "s1" => doc! { "$regex" => "^ab" } }),
                invalidb_common::Value::Object(doc! { "i1" => doc! { "$gte" => 500i64, "$lt" => 800i64 } }),
            ],
            "i2" => doc! { "$mod" => vec![7i64, 3] },
        },
    );
    let prepared = MongoQueryEngine.prepare(&complex).unwrap();
    c.bench_function("matching/complex_or_regex_mod", |b| {
        let mut i = 0;
        b.iter(|| {
            let doc = &docs[i % docs.len()];
            i += 1;
            black_box(prepared.matches(black_box(doc)))
        });
    });

    // The multi-query index (thesis optimization): per write, stab the
    // interval trees and verify only the candidates — compare against the
    // 1000-evaluation scan above.
    let mut w = Workload::new(1, 1_000);
    let specs = w.queries(1_000);
    let mut index: QueryIndex<usize> = QueryIndex::default();
    for (i, spec) in specs.iter().enumerate() {
        index.insert(i, &spec.filter);
    }
    let docs: Vec<_> = (0..100).map(|_| w.next_document().1).collect();
    let mut group = c.benchmark_group("matching");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("indexed_1000_queries_per_write", |b| {
        let mut i = 0;
        let mut cands: Vec<usize> = Vec::new();
        b.iter(|| {
            let doc = &docs[i % docs.len()];
            i += 1;
            let mut hits = 0u32;
            index.candidates(black_box(doc), &mut cands);
            for id in &cands {
                if queries[*id].matches(doc) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    // The ingestion-tier decode of a binary write envelope: the eager path
    // materializes the whole envelope and clones the `doc` subtree again
    // into the after-image; the lazy path skip-scans the IVBD bytes and
    // materializes only the subtrees the message owns.
    use invalidb_common::{AfterImage, ClusterMessage, TenantId};
    let mut w = Workload::new(6, 10);
    let envelope = ClusterMessage::Write(AfterImage {
        tenant: TenantId::new("bench"),
        collection: "t".to_owned(),
        key: Key::of(42),
        version: 7,
        doc: Some(w.next_document().1),
        written_at: 7,
        trace: None,
    })
    .to_document();
    let payload = invalidb_json::WireCodec.encode(&envelope);
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("decode_write_envelope_eager", |b| {
        b.iter(|| {
            let d = invalidb_json::payload_to_document(black_box(&payload)).unwrap();
            black_box(ClusterMessage::from_document(&d).unwrap())
        });
    });
    group.bench_function("decode_write_envelope_lazy", |b| {
        b.iter(|| {
            black_box(invalidb_core::ingest::decode_cluster_payload(black_box(&payload)).unwrap())
        });
    });
    group.finish();
}

fn bench_json(c: &mut Criterion) {
    let mut w = Workload::new(2, 10);
    let doc = w.next_document().1;
    let text = invalidb_json::to_string(&doc);
    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("serialize_after_image", |b| {
        b.iter(|| black_box(invalidb_json::to_string(black_box(&doc))));
    });
    group.bench_function("parse_after_image", |b| {
        b.iter(|| black_box(invalidb_json::parse_document(black_box(&text)).unwrap()));
    });
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let spec = QuerySpec::filter("t", doc! {}).sorted_by("score", SortDirection::Desc).with_limit(10);
    let prepared = MongoQueryEngine.prepare(&spec).unwrap();
    let initial: Vec<ResultItem> =
        (0..15i64).map(|i| ResultItem::new(Key::of(i), 1, doc! { "score" => 1_000 - i })).collect();
    c.bench_function("window/apply_update_stream", |b| {
        let mut window = SortedWindow::new(Arc::clone(&prepared), 5, &initial);
        let mut version = 2u64;
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 1) % 15;
            version += 1;
            let doc = doc! { "score" => 990 + (version as i64 % 30) };
            black_box(window.apply(&Key::of(i), version, Some(&doc)))
        });
    });
}

fn bench_partitioning(c: &mut Criterion) {
    let grid = GridShape::new(4, 4);
    let keys: Vec<Key> = (0..1_000i64).map(Key::of).collect();
    c.bench_function("partition/route_write_to_column", |b| {
        let mut i = 0;
        b.iter(|| {
            let key = &keys[i % keys.len()];
            i += 1;
            black_box(grid.tasks_for_key(black_box(key)))
        });
    });
    let q = range_query(10, 20);
    c.bench_function("partition/query_hash", |b| {
        b.iter(|| black_box(black_box(&q).stable_hash()));
    });
}

fn bench_broker(c: &mut Criterion) {
    // Event-layer throughput (the thesis separately evaluates event-layer
    // scalability; here: single-topic publish+deliver cost).
    use invalidb_broker::Broker;
    let broker = Broker::new();
    let sub = broker.subscribe("bench");
    let mut w = Workload::new(5, 10);
    let payload = invalidb_json::WireCodec.encode(&w.next_document().1);
    let mut group = c.benchmark_group("broker");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("publish_and_receive", |b| {
        b.iter(|| {
            broker.publish("bench", payload.clone());
            black_box(sub.recv().unwrap())
        });
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let store = Store::new();
    let mut w = Workload::new(3, 10);
    let mut i = 0i64;
    c.bench_function("store/save_with_after_image", |b| {
        b.iter(|| {
            i += 1;
            let doc = w.document_with_random(i);
            black_box(store.save("bench", Key::of(i % 10_000), doc).unwrap())
        });
    });
    let store = Store::new();
    for j in 0..10_000i64 {
        store.insert("q", Key::of(j), doc! { "n" => j % 100 }).unwrap();
    }
    let spec = QuerySpec::filter("q", doc! { "n" => doc! { "$gte" => 10i64, "$lt" => 12i64 } });
    c.bench_function("store/range_query_full_scan_10k", |b| {
        b.iter(|| black_box(store.execute(black_box(&spec)).unwrap()));
    });
    store.collection("q").create_index("n").unwrap();
    c.bench_function("store/range_query_indexed_10k", |b| {
        b.iter(|| black_box(store.execute(black_box(&spec)).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matching, bench_ingest, bench_json, bench_window, bench_partitioning, bench_broker, bench_store
}
criterion_main!(benches);
