//! How the executor's plans scale: per-query time and db hits of the
//! parity corpus on the default dataset grown to 1x, 4x and 16x its node
//! count.
//!
//! The graphs grow by [`iyp_data::grow_to`] from the same seed as
//! `iyp-cypher`'s `tests/scale_parity.rs`, so the 4x graph here is the one
//! whose results that test pins. Every query is parsed and compiled once
//! per scale, run once to warm up, then timed `PASSES` times (median).
//! Db hits come from one `PROFILE` run and are exact.
//!
//! One gate, deterministic and independent of the host: the
//! `ORDER BY … LIMIT` queries answered by walking an ordered index
//! (#46, #47, #49) cost at most 64 db hits at every scale, where a label
//! scan plus sort would cost one hit per AS. The measurements go to
//! `BENCH_plan.json` at the repository root before the gate is checked.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin plan_scale [-- PASSES]
//! ```

use chatiyp_bench::{count_arg, ok, percentile, write_report};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::{
    compile_query, execute_prepared_with_limits, parse, profile_with_limits, ExecLimits, Params,
};
use iyp_data::{generate, grow_to, IypConfig};
use std::time::Instant;

const SCALES: [usize; 3] = [1, 4, 16];
/// The seed `tests/scale_parity.rs` grows its 4x graph from.
const GROW_SEED: u64 = 4_000;
/// Corpus indices of the top-k queries an ordered index walk answers.
const WALKED: [usize; 3] = [46, 47, 49];
/// Db-hit ceiling for each walked query at every scale.
const WALK_HITS_MAX: u64 = 64;

fn main() {
    let passes = count_arg(7).max(1);
    let params = Params::new();
    let limits = ExecLimits::none();
    let base = generate(&IypConfig::default()).graph;
    let base_nodes = base.node_count();

    let mut scales = Vec::new();
    let mut walked_hits = Vec::new();
    for scale in SCALES {
        let mut g = base.clone();
        grow_to(&mut g, scale * base_nodes, GROW_SEED);
        println!(
            "scale {scale}x: {} nodes, {} rels",
            g.node_count(),
            g.rel_count()
        );
        let mut queries = Vec::new();
        let mut corpus_ms = 0.0;
        for (i, src) in PARITY_QUERIES.iter().enumerate() {
            let q = parse(src).expect("corpus query parses");
            let c = compile_query(&q).expect("corpus query compiles");
            let run = || {
                execute_prepared_with_limits(&g, &q, Some(&c), &params, limits)
                    .expect("corpus query executes")
            };
            run();
            let mut ms: Vec<f64> = (0..passes)
                .map(|_| {
                    let t0 = Instant::now();
                    run();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let median_ms = percentile(&mut ms, 0.5);
            let (_, prof) = profile_with_limits(&g, src, &params, limits).expect("profiles");
            let db_hits = prof.total_db_hits();
            if WALKED.contains(&i) {
                walked_hits.push((scale, i, db_hits));
            }
            corpus_ms += median_ms;
            queries.push(serde_json::json!({
                "index": i as u64,
                "query": *src,
                "median_ms": median_ms,
                "db_hits": db_hits,
            }));
        }
        println!("  corpus: {corpus_ms:.1}ms (sum of per-query medians)");
        scales.push(serde_json::json!({
            "scale": scale as u64,
            "nodes": g.node_count() as u64,
            "rels": g.rel_count() as u64,
            "corpus_ms": corpus_ms,
            "queries": queries,
        }));
    }

    let gate_ok = walked_hits.iter().all(|&(_, _, h)| h <= WALK_HITS_MAX);
    for &(scale, i, hits) in &walked_hits {
        println!(
            "  #{i} at {scale}x: {hits} db hits (<= {WALK_HITS_MAX}) {}",
            ok(hits <= WALK_HITS_MAX)
        );
    }
    let walked: Vec<u64> = WALKED.iter().map(|&i| i as u64).collect();
    let walk_gate = serde_json::json!({
        "queries": walked,
        "db_hits_max": WALK_HITS_MAX,
        "passed": gate_ok,
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let report = serde_json::json!({
        "bench": "plan_scale",
        "corpus_queries": PARITY_QUERIES.len() as u64,
        "passes": passes as u64,
        "available_parallelism": cores,
        "scales": scales,
        "walk_gate": walk_gate,
    });
    write_report("BENCH_plan.json", &report);
    assert!(
        gate_ok,
        "an ORDER BY … LIMIT query walked more than {WALK_HITS_MAX} db hits: {walked_hits:?}"
    );
}
