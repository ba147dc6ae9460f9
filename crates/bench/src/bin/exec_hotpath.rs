//! Measures the executor hot path: the parity corpus run from prepared
//! (parsed and compiled) queries.
//!
//! Every query of the 59-query parity corpus is parsed and slot-compiled
//! exactly once up front, then executed many times — the steady state a
//! plan-cached server lives in. Two arms, median-of-passes and
//! interleaved so drift hits both:
//!
//! 1. **compiled** — 1 worker
//! 2. **parallel** — morsel-parallel `MATCH` on all available cores
//!
//! The gate is the parallel speedup over 1 worker (≥1.1x), enforced only
//! when more than one core is available. Results are asserted
//! byte-identical across the arms before any timing is trusted, and the
//! measured numbers are written to `BENCH_exec.json` at the repository
//! root.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin exec_hotpath [-- PASSES]
//! ```

use chatiyp_bench::{count_arg, percentile, write_report};
use iyp_cypher::ast::Query;
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::{
    compile_query, execute_prepared_with_limits, parse, CompiledQuery, ExecLimits, Params,
};
use iyp_data::{generate, IypConfig};
use iyp_graphdb::Graph;
use std::time::Instant;

/// One timed pass of the prepared corpus under the given limits; seconds.
fn pass(graph: &Graph, prepared: &[(Query, CompiledQuery)], limits: ExecLimits) -> f64 {
    let params = Params::new();
    let t0 = Instant::now();
    for (q, c) in prepared {
        execute_prepared_with_limits(graph, q, Some(c), &params, limits)
            .expect("corpus query executes");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let passes = count_arg(30);

    let graph = generate(&IypConfig::default()).graph;

    // Compile once, up front — this cost is the plan cache's to amortize
    // and is deliberately outside every timed region.
    let prepared: Vec<(Query, CompiledQuery)> = PARITY_QUERIES
        .iter()
        .map(|src| {
            let q = parse(src).expect("corpus query parses");
            let c = compile_query(&q).expect("corpus query compiles");
            (q, c)
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let compiled = ExecLimits::none();
    let parallel = ExecLimits::none().with_parallelism(workers);

    // Correctness before speed: both arms must agree byte-for-byte.
    let params = Params::new();
    for (q, c) in &prepared {
        let b = execute_prepared_with_limits(&graph, q, Some(c), &params, compiled);
        let p = execute_prepared_with_limits(&graph, q, Some(c), &params, parallel);
        assert_eq!(b, p, "parallel result diverged from sequential");
    }

    // Warm both arms (allocator, caches) before measuring.
    pass(&graph, &prepared, compiled);
    pass(&graph, &prepared, parallel);

    let mut t_compiled = Vec::with_capacity(passes);
    let mut t_parallel = Vec::with_capacity(passes);
    for _ in 0..passes {
        t_compiled.push(pass(&graph, &prepared, compiled));
        t_parallel.push(pass(&graph, &prepared, parallel));
    }
    let m_compiled = percentile(&mut t_compiled, 0.5);
    let m_parallel = percentile(&mut t_parallel, 0.5);
    let parallel_speedup = m_compiled / m_parallel;

    println!("corpus queries:        {}", prepared.len());
    println!("passes:                {passes} (median)");
    println!("available cores:       {workers}");
    println!("compiled,    1 worker: {:.3}ms", m_compiled * 1e3);
    println!("compiled, {workers:>2} workers: {:.3}ms", m_parallel * 1e3);
    if workers == 1 {
        println!(
            "parallel speedup:      {parallel_speedup:.2}x — NOT MEANINGFUL: \
             only 1 core available, the parallel arm degenerates to sequential"
        );
    } else {
        println!("parallel speedup:      {parallel_speedup:.2}x over {workers} worker(s)");
    }

    let report = serde_json::json!({
        "bench": "exec_hotpath",
        "corpus_queries": prepared.len() as u64,
        "passes": passes as u64,
        "workers": workers as u64,
        "available_parallelism": workers as u64,
        "compiled_ms": m_compiled * 1e3,
        "parallel_ms": m_parallel * 1e3,
        "parallel_speedup": parallel_speedup,
        // On a 1-core container the parallel arm cannot beat sequential;
        // readers of this file must not treat ~1.0x as a regression.
        "parallel_speedup_meaningful": workers > 1,
    });
    write_report("BENCH_exec.json", &report);

    // The parallel gate only means something with real cores to fan out
    // to; on a 1-core container it is skipped, not silently "passed" at
    // ~1.0x.
    if workers > 1 {
        assert!(
            parallel_speedup >= 1.1,
            "parallel speedup {parallel_speedup:.2}x on {workers} cores is \
             below the 1.1x hard floor"
        );
    } else {
        println!("parallel-speedup gate skipped: available_parallelism == 1");
    }
}
