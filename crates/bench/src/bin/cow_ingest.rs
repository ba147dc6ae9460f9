//! Measures what the copy-on-write paged store buys over the PR-5 deep
//! clone: snapshot clone + batch apply cost across graph scales (1×, 4×,
//! 16× of the generated dataset) × batch sizes (1, 10, 100 new ASes),
//! side by side with an emulation of the old path
//! ([`Graph::deep_clone`] — every page privately copied — followed by
//! the same batch apply). Also samples read latency idle vs under a
//! paced stream of ingests at each scale.
//!
//! The gates encode the design's promises:
//!
//! * apply cost is **O(delta), not O(graph)** — at the 1× scale the
//!   paged clone+apply at batch=1 beats the deep-clone path ≥5×, and for
//!   a fixed batch size the paged cost stays within 2× across the
//!   1× → 16× scale sweep;
//! * ingest is **allocation-quiet for readers** — read p99 under ingest
//!   stays within 2× of idle p99;
//! * the publish is a **pointer swap, not a copy under the lock** — the
//!   median swap stays under 10ms at every scale while a reader thread
//!   hammers the store, and in every uncontended timing cell.
//!
//! Between timed ingests the store is reset to the scaled base graph
//! (itself a cheap COW publish) so every sample runs against the same
//! graph size, and the writer paces itself (~2ms between publishes) to
//! model a delta stream rather than a CPU-saturating spin — on the
//! 1-core CI container an unpaced writer measures scheduler preemption,
//! not the store.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin cow_ingest [-- ROUNDS]
//! ```
//!
//! Results are written to `BENCH_cow.json` at the repository root.

use chatiyp_bench::{count_arg, percentile, write_report};
use iyp_cypher::query;
use iyp_data::{generate, growth_batch, IypConfig};
use iyp_graphdb::{DeltaBatch, Graph, GraphStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The read mix: point lookup, expand + aggregate, ordered top-k.
const READ_QUERIES: [&str; 3] = [
    "MATCH (a:AS {asn: 2497})-[:COUNTRY]->(c:Country) RETURN c.name",
    "MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code, count(a) \
     ORDER BY count(a) DESC LIMIT 5",
    "MATCH (d:DomainName)-[r:RANK]->(:Ranking {name: 'Tranco'}) RETURN min(r.rank)",
];

const SCALES: [usize; 3] = [1, 4, 16];
const BATCH_SIZES: [usize; 3] = [1, 10, 100];

/// One timed read through a freshly acquired snapshot; seconds.
fn timed_read(store: &GraphStore, q: &str) -> f64 {
    let t0 = Instant::now();
    let snap = store.load();
    query(snap.graph(), q).expect("read query executes");
    t0.elapsed().as_secs_f64()
}

/// Grows `g` with synthetic delta batches until it holds at least
/// `target_nodes` nodes (the scale sweep's 4× / 16× graphs).
fn grow_to(mut g: Graph, target_nodes: usize, mut seed: u64) -> Graph {
    while g.node_count() < target_nodes {
        // Each new AS contributes an AS node and a Name node.
        let deficit = target_nodes - g.node_count();
        let n_as = (deficit / 2).clamp(1, 4000);
        let batch = growth_batch(&g, seed, n_as);
        batch.apply(&mut g).expect("growth batch applies");
        seed += 1;
    }
    g
}

/// Pre-generated ingest batches, all valid against `base` (the store is
/// reset to `base` after every publish, so ids never dangle).
fn pregen(base: &Graph, batch_size: usize, n: usize) -> Vec<DeltaBatch> {
    (0..n)
        .map(|i| growth_batch(base, 9000 + i as u64, batch_size))
        .collect()
}

/// Writes one byte per cache line of a 320 MiB buffer — sized past the
/// largest L3 we run on (~260 MB) — evicting the cache and TLB state
/// left by previous rounds. Called before every timed
/// apply in both arms so the two ends of the scale sweep measure the
/// same (cold) memory state: the 1× graph otherwise stays cache-resident
/// between rounds while the 16× graph does not, and the sweep would
/// compare cache warmth instead of the store's copy discipline.
fn evict_caches(junk: &mut [u8]) {
    for b in junk.iter_mut().step_by(64) {
        *b = b.wrapping_add(1);
    }
    std::hint::black_box(&junk[0]);
}

#[derive(Clone)]
struct Cell {
    batch_size: usize,
    clone_us_median: f64,
    apply_ms_median: f64,
    /// clone + apply — the full writer-side build cost per publish.
    total_ms_median: f64,
    swap_us_median: f64,
    /// Deep-clone emulation of the PR-5 path: fully-owned copy + apply.
    legacy_ms_median: f64,
    speedup_vs_deep_clone: f64,
}

/// Times `rounds` paged ingests and `rounds` deep-clone emulations of
/// the same batches against a store holding `base`. No reader thread:
/// on a 1-core container a concurrent reader would time preemption, and
/// read-side interference is measured separately in `read_arm`.
fn timing_cell(base: &Graph, batch_size: usize, rounds: usize) -> Cell {
    let store = GraphStore::new(base.clone());
    let batches = pregen(base, batch_size, rounds.min(64));

    let mut junk = vec![0u8; 320 << 20];
    let (mut clones, mut applies, mut totals, mut swaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..rounds {
        evict_caches(&mut junk);
        let report = store.ingest(&batches[i % batches.len()]).expect("applies");
        clones.push(report.clone.as_secs_f64());
        applies.push(report.apply.as_secs_f64());
        totals.push(report.clone.as_secs_f64() + report.apply.as_secs_f64());
        swaps.push(report.swap.as_secs_f64());
        // Reset so every round applies against the same graph size.
        store.publish(base.clone());
    }

    let snap = store.load();
    let mut legacy = Vec::new();
    for i in 0..rounds {
        evict_caches(&mut junk);
        let t0 = Instant::now();
        let mut g = snap.graph().deep_clone();
        batches[i % batches.len()].apply(&mut g).expect("applies");
        legacy.push(t0.elapsed().as_secs_f64());
    }

    let total_ms_median = percentile(&mut totals, 0.50) * 1e3;
    let legacy_ms_median = percentile(&mut legacy, 0.50) * 1e3;
    Cell {
        batch_size,
        clone_us_median: percentile(&mut clones, 0.50) * 1e6,
        apply_ms_median: percentile(&mut applies, 0.50) * 1e3,
        total_ms_median,
        swap_us_median: percentile(&mut swaps, 0.50) * 1e6,
        legacy_ms_median,
        speedup_vs_deep_clone: legacy_ms_median / total_ms_median.max(1e-9),
    }
}

struct ReadArm {
    idle_p50_us: f64,
    idle_p99_us: f64,
    ingest_p50_us: f64,
    ingest_p99_us: f64,
    /// Median pointer swap of the ingests timed beside the live reader.
    swap_us_median: f64,
    publishes: u64,
}

/// Idle reads, then reads against a paced stream of batch=10 ingests.
fn read_arm(base: &Graph, idle_samples: usize, window: Duration) -> ReadArm {
    let store = Arc::new(GraphStore::new(base.clone()));
    let mut idle = Vec::with_capacity(idle_samples);
    for i in 0..idle_samples {
        idle.push(timed_read(&store, READ_QUERIES[i % READ_QUERIES.len()]));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                samples.push(timed_read(&store, READ_QUERIES[i % READ_QUERIES.len()]));
                i += 1;
            }
            samples
        })
    };

    let batches = pregen(base, 10, 32);
    let t0 = Instant::now();
    let mut publishes = 0u64;
    let mut swaps = Vec::new();
    while t0.elapsed() < window {
        let report = store
            .ingest(&batches[publishes as usize % batches.len()])
            .expect("applies");
        swaps.push(report.swap.as_secs_f64());
        store.publish(base.clone());
        publishes += 2;
        // Pace the stream: deltas arrive at a rate, they don't spin.
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Release);
    let mut contended = reader.join().expect("reader finished");

    ReadArm {
        idle_p50_us: percentile(&mut idle, 0.50) * 1e6,
        idle_p99_us: percentile(&mut idle, 0.99) * 1e6,
        ingest_p50_us: percentile(&mut contended, 0.50) * 1e6,
        ingest_p99_us: percentile(&mut contended, 0.99) * 1e6,
        swap_us_median: percentile(&mut swaps, 0.50) * 1e6,
        publishes,
    }
}

fn main() {
    let rounds = count_arg(12);

    let base = generate(&IypConfig::default()).graph;
    let base_nodes = base.node_count();

    let mut scale_reports = Vec::new();
    let mut cells: Vec<(usize, Cell)> = Vec::new();
    for &scale in &SCALES {
        let g = if scale == 1 {
            base.clone()
        } else {
            grow_to(base.clone(), base_nodes * scale, 7000 + scale as u64)
        };
        println!(
            "scale {scale}x: {} nodes, {} rels",
            g.node_count(),
            g.rel_count()
        );

        let reads = read_arm(&g, (rounds * 30).max(200), Duration::from_millis(400));
        println!(
            "  reads idle p50 {:.1}us p99 {:.1}us | under ingest p50 {:.1}us p99 {:.1}us \
             ({} publishes, swap median {:.1}us)",
            reads.idle_p50_us,
            reads.idle_p99_us,
            reads.ingest_p50_us,
            reads.ingest_p99_us,
            reads.publishes,
            reads.swap_us_median
        );

        let mut arm_jsons = Vec::new();
        for &bs in &BATCH_SIZES {
            let cell = timing_cell(&g, bs, rounds);
            println!(
                "  batch {:>3}: clone {:.1}us | apply {:.3}ms | total {:.3}ms | \
                 deep-clone path {:.3}ms | speedup {:.1}x | swap {:.1}us",
                cell.batch_size,
                cell.clone_us_median,
                cell.apply_ms_median,
                cell.total_ms_median,
                cell.legacy_ms_median,
                cell.speedup_vs_deep_clone,
                cell.swap_us_median
            );
            arm_jsons.push(serde_json::json!({
                "batch_size": cell.batch_size as u64,
                "clone_us_median": cell.clone_us_median,
                "apply_ms_median": cell.apply_ms_median,
                "total_ms_median": cell.total_ms_median,
                "swap_us_median": cell.swap_us_median,
                "legacy_apply_ms_median": cell.legacy_ms_median,
                "speedup_vs_deep_clone": cell.speedup_vs_deep_clone,
            }));
            cells.push((scale, cell));
        }

        scale_reports.push(serde_json::json!({
            "scale": scale as u64,
            "nodes": g.node_count() as u64,
            "rels": g.rel_count() as u64,
            "idle_read_p50_us": reads.idle_p50_us,
            "idle_read_p99_us": reads.idle_p99_us,
            "ingest_read_p50_us": reads.ingest_p50_us,
            "ingest_read_p99_us": reads.ingest_p99_us,
            "ingest_publishes": reads.publishes,
            "contended_swap_us_median": reads.swap_us_median,
            "read_p99_ratio": reads.ingest_p99_us / reads.idle_p99_us.max(1e-9),
            "arms": arm_jsons,
        }));
    }

    let report = serde_json::json!({
        "bench": "cow_ingest",
        "rounds": rounds as u64,
        "base_nodes": base_nodes as u64,
        "scales": scale_reports,
    });
    write_report("BENCH_cow.json", &report);

    // Gate 4, checked first so the timing-sensitive gates cannot hide
    // it: the publish readers contend with is a pointer exchange —
    // median swap under 10ms at every scale beside the live reader, and
    // in every uncontended timing cell.
    for sr in &scale_reports {
        let swap_us = sr["contended_swap_us_median"].as_f64().expect("swap");
        assert!(
            swap_us < 10_000.0,
            "scale {}x under a live reader: median swap {swap_us:.1}us — the swap \
             should be a pointer exchange, not a copy under the lock",
            sr["scale"]
        );
    }
    for (scale, cell) in &cells {
        assert!(
            cell.swap_us_median < 10_000.0,
            "scale {scale}x, batch {}: median swap {:.1}us — the swap should \
             be a pointer exchange, not a copy under the lock",
            cell.batch_size,
            cell.swap_us_median
        );
    }

    // Gate 1: O(delta) beats O(graph) — at the 1× scale, batch=1, the
    // paged clone+apply must be ≥5× faster than the deep-clone path.
    let (_, small) = cells
        .iter()
        .find(|(s, c)| *s == 1 && c.batch_size == 1)
        .expect("1x/batch=1 cell");
    assert!(
        small.speedup_vs_deep_clone >= 5.0,
        "paged ingest at 1x/batch=1 is only {:.1}x faster than the deep-clone \
         path (total {:.3}ms vs {:.3}ms) — the COW clone is not O(delta)",
        small.speedup_vs_deep_clone,
        small.total_ms_median,
        small.legacy_ms_median
    );

    // Gate 2: apply cost tracks batch size, not graph size — for a fixed
    // batch, apply on the 16× graph may cost at most 2× the 1× graph.
    // (The COW clone is gated separately by gate 1; its cost is O(pages),
    // microseconds, and reported per cell as clone_us_median.)
    for &bs in &BATCH_SIZES {
        let at = |scale: usize| {
            cells
                .iter()
                .find(|(s, c)| *s == scale && c.batch_size == bs)
                .map(|(_, c)| c.apply_ms_median)
                .expect("cell")
        };
        let (t1, t16) = (at(1), at(16));
        assert!(
            t16 <= t1 * 2.0,
            "batch {bs}: apply grew {:.2}x across 1x→16x scale \
             ({t1:.3}ms → {t16:.3}ms) — apply cost is tracking graph size",
            t16 / t1.max(1e-9)
        );
    }

    // Gate 3: readers barely notice ingest — p99 under the paced stream
    // within 2× of idle p99 at every scale.
    for sr in &scale_reports {
        let ratio = sr["read_p99_ratio"].as_f64().expect("ratio");
        assert!(
            ratio <= 2.0,
            "scale {}: read p99 under ingest is {ratio:.2}x idle \
             ({:.1}us vs {:.1}us)",
            sr["scale"],
            sr["ingest_read_p99_us"].as_f64().unwrap_or(0.0),
            sr["idle_read_p99_us"].as_f64().unwrap_or(0.0)
        );
    }
    println!("all gates passed");
}
