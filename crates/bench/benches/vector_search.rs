//! Vector retrieval performance: embedding a query and searching the
//! node-description corpus with the exact flat index.

use criterion::{criterion_group, criterion_main, Criterion};
use iyp_data::{describe_all, generate, IypConfig};
use iyp_embed::{DocStore, Embedder, FlatIndex};
use std::hint::black_box;

fn bench_vector(c: &mut Criterion) {
    let d = generate(&IypConfig::default());
    let docs = describe_all(&d.graph);
    let embedder = Embedder::default();

    let mut store = DocStore::new();
    let mut flat = FlatIndex::new();
    for doc in &docs {
        store.add(doc.title.clone(), doc.text.clone(), doc.node.0);
        let v = embedder.embed(&format!("{} {}", doc.title, doc.text));
        flat.add(v);
    }
    let query = "Which Japanese networks serve the largest population share?";
    let qv = embedder.embed(query);

    let mut group = c.benchmark_group("vector_search");
    group.throughput(criterion::Throughput::Elements(docs.len() as u64));
    group.bench_function("embed_query", |b| {
        b.iter(|| black_box(embedder.embed(black_box(query))))
    });
    group.bench_function("flat_top8", |b| {
        b.iter(|| black_box(flat.search(black_box(&qv), 8)))
    });
    group.bench_function("docstore_end_to_end", |b| {
        b.iter(|| black_box(store.search(black_box(query), 8)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_vector
}
criterion_main!(benches);
