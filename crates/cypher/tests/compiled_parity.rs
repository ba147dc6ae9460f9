//! Differential tests for morsel-parallel execution: the full parity
//! corpus must produce byte-identical results at any worker count vs
//! sequential, and PROFILE's per-query db-hit totals must not change with
//! the worker count. (The corpus results themselves are pinned by the
//! goldens in `parity_corpus.rs`.)

use iyp_cypher::corpus::PARITY_QUERIES as QUERIES;
use iyp_cypher::{execute_read_with_limits, parse, profile_with_limits, ExecLimits, Params};
use iyp_data::{generate, IypConfig};
use iyp_graphdb::Graph;

fn dataset_graph() -> Graph {
    generate(&IypConfig::default()).graph
}

fn run_json(g: &Graph, src: &str, limits: ExecLimits) -> String {
    let q = parse(src).unwrap_or_else(|e| panic!("corpus query failed to parse: {src}\n{e}"));
    let r = execute_read_with_limits(g, &q, &Params::new(), limits)
        .unwrap_or_else(|e| panic!("corpus query failed: {src}\n{e}"));
    serde_json::to_string(&r).expect("serialize result")
}

/// Morsel-parallel MATCH merges results in morsel order, so any worker
/// count reproduces the sequential row order exactly.
#[test]
fn corpus_parallel_matches_sequential() {
    let g = dataset_graph();
    for q in QUERIES {
        let seq = run_json(&g, q, ExecLimits::none().with_parallelism(1));
        for workers in [2, 4] {
            let par = run_json(&g, q, ExecLimits::none().with_parallelism(workers));
            assert_eq!(par, seq, "parallelism {workers} diverged on: {q}");
        }
    }
}

/// PROFILE's db-hit accounting is exact under parallelism: worker-thread
/// hits are credited back to the profiled operator, so totals (and the
/// result itself) match sequential execution for every corpus query.
#[test]
fn profile_dbhits_stable_across_parallelism() {
    let g = dataset_graph();
    let params = Params::new();
    for q in QUERIES {
        let (r1, p1) = profile_with_limits(&g, q, &params, ExecLimits::none().with_parallelism(1))
            .unwrap_or_else(|e| panic!("profile failed: {q}\n{e}"));
        let (r4, p4) = profile_with_limits(&g, q, &params, ExecLimits::none().with_parallelism(4))
            .unwrap_or_else(|e| panic!("profile failed: {q}\n{e}"));
        assert_eq!(r1, r4, "parallel PROFILE changed the result of: {q}");
        assert_eq!(
            p1.total_db_hits(),
            p4.total_db_hits(),
            "parallel PROFILE changed db-hit totals of: {q}"
        );
        let per_op_1: Vec<(String, u64, u64)> = p1
            .ops
            .iter()
            .map(|o| (o.name.clone(), o.rows, o.db_hits))
            .collect();
        let per_op_4: Vec<(String, u64, u64)> = p4
            .ops
            .iter()
            .map(|o| (o.name.clone(), o.rows, o.db_hits))
            .collect();
        assert_eq!(per_op_1, per_op_4, "per-operator profile diverged on: {q}");
    }
}
