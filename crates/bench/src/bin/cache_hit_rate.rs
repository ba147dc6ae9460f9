//! Measures the two-tier query cache on the 58-query parity corpus: a
//! cold pass (every query a miss) vs repeated warm passes (every query a
//! hit), plus an uncached baseline and the observed counters.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin cache_hit_rate [-- WARM_PASSES]
//! ```

use chatiyp_bench::count_arg;
use chatiyp_core::cache::{CacheConfig, QueryCache};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::Params;
use iyp_data::{generate, IypConfig};
use iyp_graphdb::{Graph, GraphSnapshot};
use std::time::Instant;

/// One full pass over the corpus through the cache; returns seconds.
fn cached_pass(cache: &QueryCache, snap: &GraphSnapshot) -> f64 {
    let params = Params::new();
    let t0 = Instant::now();
    for q in PARITY_QUERIES {
        cache
            .get_or_execute(snap, q, &params)
            .expect("corpus query executes");
    }
    t0.elapsed().as_secs_f64()
}

/// One full pass executed directly, no cache anywhere.
fn uncached_pass(graph: &Graph) -> f64 {
    let t0 = Instant::now();
    for q in PARITY_QUERIES {
        iyp_cypher::query(graph, q).expect("corpus query executes");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let warm_passes = count_arg(20);

    let snap = GraphSnapshot::new(generate(&IypConfig::default()).graph, 1);
    let cache = QueryCache::new(CacheConfig::default());

    // Uncached baseline, averaged over the same number of passes.
    let mut t_uncached = 0.0;
    for _ in 0..warm_passes {
        t_uncached += uncached_pass(snap.graph());
    }
    t_uncached /= warm_passes as f64;

    let t_cold = cached_pass(&cache, &snap);
    let mut t_warm = 0.0;
    for _ in 0..warm_passes {
        t_warm += cached_pass(&cache, &snap);
    }
    t_warm /= warm_passes as f64;

    let stats = cache.stats();
    let total = stats.hits + stats.misses;
    println!("corpus queries:      {}", PARITY_QUERIES.len());
    println!("uncached pass (avg): {:.3}ms", t_uncached * 1e3);
    println!("cold pass (misses):  {:.3}ms", t_cold * 1e3);
    println!("warm pass (avg):     {:.3}ms", t_warm * 1e3);
    println!(
        "hit speedup:         {:.1}x vs uncached",
        t_uncached / t_warm
    );
    println!(
        "hit rate:            {:.1}% ({} hits / {} lookups)",
        100.0 * stats.hits as f64 / total as f64,
        stats.hits,
        total
    );
    println!(
        "plan cache:          {} hits / {} misses, {} entries",
        stats.plan.hits, stats.plan.misses, stats.plan.len
    );
    println!(
        "evictions: {}  invalidations: {}",
        stats.evictions, stats.invalidations
    );

    assert_eq!(stats.misses as usize, PARITY_QUERIES.len());
    assert_eq!(
        stats.hits as usize,
        PARITY_QUERIES.len() * warm_passes,
        "warm passes must all hit"
    );
    assert!(
        t_warm < t_uncached,
        "cache hits were not faster than uncached execution"
    );
}
