//! Measures what keeps the retrieval index fresh after an ingest:
//! incrementally patching the live [`RetrievalIndex`] from the applied
//! batch's `AppliedDelta` (`derive` + clone + `apply_delta`) versus
//! rebuilding the whole index from the new graph (`describe_all` over
//! every node, re-embedding every document, re-deriving the entity
//! catalog).
//!
//! Each round starts from the same base graph and the same warm index,
//! so the two arms patch/rebuild toward identical targets — the bench
//! asserts the incremental result *equals* the rebuild (document count
//! and entity catalog) before trusting the timings. The hard gate: for
//! every batch size up to 100 ops the median incremental refresh must be
//! at least 5x faster than the median full rebuild, because the whole
//! point of delta-driven refresh is to pay for what changed, not for
//! the graph's size.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin index_refresh [-- ROUNDS]
//! ```
//!
//! Results are written to `BENCH_index.json` at the repository root.

use chatiyp_bench::{count_arg, percentile, write_report};
use chatiyp_core::RetrievalIndex;
use iyp_data::{describe_delta, generate, growth_batch, IypConfig};
use iyp_graphdb::Graph;
use iyp_llm::EntityCatalog;
use std::time::Instant;

struct Arm {
    batch_size: usize,
    incremental_ms_median: f64,
    incremental_ms_p99: f64,
    rebuild_ms_median: f64,
    speedup_median: f64,
    docs_patched_median: f64,
}

/// Runs `rounds` independent refreshes of `batch_size` new ASes, timing
/// the incremental patch against a from-scratch rebuild of the same
/// target index.
fn refresh_arm(base: &Graph, warm: &RetrievalIndex, batch_size: usize, rounds: usize) -> Arm {
    let mut incremental = Vec::with_capacity(rounds);
    let mut rebuild = Vec::with_capacity(rounds);
    let mut patched = Vec::with_capacity(rounds);

    for round in 0..rounds {
        let batch = growth_batch(base, 7000 + round as u64, batch_size);
        let mut next_graph = base.clone();
        let applied = batch.apply_tracked(&mut next_graph).expect("batch applies");

        // Incremental: derive the doc/catalog delta from the applied
        // batch, clone the warm index off-lock, patch it — exactly what
        // `ChatIyp::ingest` does between the graph apply and the swap.
        let t0 = Instant::now();
        let delta = describe_delta(&next_graph, &applied);
        let mut inc = warm.clone();
        inc.apply_delta(base, &next_graph, &delta);
        incremental.push(t0.elapsed().as_secs_f64());
        patched.push(delta.upserts.len() as f64);

        // Full rebuild: re-describe and re-embed every node, re-derive
        // the entity catalog — the pre-delta refresh strategy.
        let t0 = Instant::now();
        let full = RetrievalIndex::from_graph_at(&next_graph, 2, 2)
            .with_catalog(EntityCatalog::from_graph(&next_graph));
        rebuild.push(t0.elapsed().as_secs_f64());

        // The timings only count if the shortcut lands on the same
        // index the rebuild produces.
        assert_eq!(
            inc.docs().len(),
            full.docs().len(),
            "incremental patch and rebuild disagree on document count"
        );
        assert_eq!(
            inc.catalog(),
            full.catalog(),
            "incremental patch and rebuild disagree on the entity catalog"
        );
    }

    let inc_median = percentile(&mut incremental, 0.50) * 1e3;
    let reb_median = percentile(&mut rebuild, 0.50) * 1e3;
    Arm {
        batch_size,
        incremental_ms_median: inc_median,
        incremental_ms_p99: percentile(&mut incremental, 0.99) * 1e3,
        rebuild_ms_median: reb_median,
        speedup_median: reb_median / inc_median,
        docs_patched_median: percentile(&mut patched, 0.50),
    }
}

fn main() {
    let rounds = count_arg(20);

    let base = generate(&IypConfig::default()).graph;
    let t0 = Instant::now();
    let warm =
        RetrievalIndex::from_graph_at(&base, 1, 1).with_catalog(EntityCatalog::from_graph(&base));
    let cold_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let arms: Vec<Arm> = [1usize, 10, 100]
        .iter()
        .map(|&size| refresh_arm(&base, &warm, size, rounds))
        .collect();

    println!("rounds per arm:   {rounds}");
    println!(
        "base graph:       {} nodes, {} docs, cold build {cold_build_ms:.1}ms",
        base.node_count(),
        warm.docs().len()
    );
    for a in &arms {
        println!(
            "batch {:>3} ops: incremental median {:.3}ms p99 {:.3}ms | \
             rebuild median {:.1}ms | speedup {:.1}x | ~{:.0} docs patched",
            a.batch_size,
            a.incremental_ms_median,
            a.incremental_ms_p99,
            a.rebuild_ms_median,
            a.speedup_median,
            a.docs_patched_median
        );
    }

    let report = serde_json::json!({
        "bench": "index_refresh",
        "rounds": rounds as u64,
        "base_nodes": base.node_count() as u64,
        "base_docs": warm.docs().len() as u64,
        "cold_build_ms": cold_build_ms,
        "arms": arms.iter().map(|a| serde_json::json!({
            "batch_size": a.batch_size as u64,
            "incremental_ms_median": a.incremental_ms_median,
            "incremental_ms_p99": a.incremental_ms_p99,
            "rebuild_ms_median": a.rebuild_ms_median,
            "speedup_median": a.speedup_median,
            "docs_patched_median": a.docs_patched_median,
        })).collect::<Vec<_>>(),
    });
    write_report("BENCH_index.json", &report);

    for a in &arms {
        assert!(
            a.speedup_median >= 5.0,
            "incremental refresh only {:.1}x faster than a rebuild at batch {} — \
             the delta path must scale with the batch, not the graph",
            a.speedup_median,
            a.batch_size
        );
    }
}
