//! Measures what the observability layer costs on the hot paths.
//!
//! Two comparisons, each median-of-passes over the same work:
//!
//! 1. **Tracing**: the full `ask` path with `trace_requests` on vs off,
//!    over a batch of distinct questions. This is the always-available
//!    per-request span tree (stage histograms record in both arms — they
//!    cannot be disabled, by design).
//! 2. **PROFILE**: the parity corpus via the plain executor vs
//!    `profile_with_limits`. PROFILE is opt-in per query, so its cost is
//!    reported for information, not gated.
//!
//! The tracing overhead target is <2%; the bench hard-fails only above a
//! generous 10% so a noisy container doesn't flake, while the printed
//! number is what docs/OBSERVABILITY.md cites.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin obs_overhead [-- PASSES]
//! ```

use chatiyp_bench::{ask_pass, count_arg, percentile, tiny_lookup_questions, tiny_oracle_pipeline};
use chatiyp_core::{ChatIyp, ChatIypConfig};
use iyp_cypher::corpus::PARITY_QUERIES;
use iyp_cypher::{profile_with_limits, ExecLimits, Params};
use iyp_data::{generate, IypConfig};
use std::time::Instant;

fn pipeline(trace_requests: bool) -> ChatIyp {
    tiny_oracle_pipeline(ChatIypConfig {
        trace_requests,
        ..Default::default()
    })
}

fn main() {
    let passes = count_arg(30);

    // -- 1. Tracing overhead on the ask path ---------------------------
    let questions = tiny_lookup_questions();

    let untraced = pipeline(false);
    let traced = pipeline(true);
    assert!(!untraced.config().trace_requests && traced.config().trace_requests);

    // Warm both arms (caches, allocator) before measuring.
    ask_pass(&untraced, &questions);
    ask_pass(&traced, &questions);

    // Interleave the arms so drift (thermal, scheduler) hits both.
    let mut t_untraced = Vec::with_capacity(passes);
    let mut t_traced = Vec::with_capacity(passes);
    for _ in 0..passes {
        t_untraced.push(ask_pass(&untraced, &questions));
        t_traced.push(ask_pass(&traced, &questions));
    }
    let m_untraced = percentile(&mut t_untraced, 0.5);
    let m_traced = percentile(&mut t_traced, 0.5);
    let trace_overhead = (m_traced - m_untraced) / m_untraced * 100.0;

    println!("questions per pass:   {}", questions.len());
    println!("passes:               {passes} (median)");
    println!("ask, tracing off:     {:.3}ms", m_untraced * 1e3);
    println!("ask, tracing on:      {:.3}ms", m_traced * 1e3);
    println!("tracing overhead:     {trace_overhead:+.2}% (target <2%)");

    // -- 2. PROFILE cost on the executor -------------------------------
    let graph = generate(&IypConfig::default()).graph;
    let params = Params::new();
    let mut t_plain = Vec::with_capacity(passes);
    let mut t_profiled = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t0 = Instant::now();
        for q in PARITY_QUERIES {
            iyp_cypher::query(&graph, q).expect("corpus query executes");
        }
        t_plain.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for q in PARITY_QUERIES {
            profile_with_limits(&graph, q, &params, ExecLimits::none())
                .expect("corpus query profiles");
        }
        t_profiled.push(t0.elapsed().as_secs_f64());
    }
    let m_plain = percentile(&mut t_plain, 0.5);
    let m_profiled = percentile(&mut t_profiled, 0.5);
    println!("corpus, plain:        {:.3}ms", m_plain * 1e3);
    println!("corpus, PROFILE:      {:.3}ms", m_profiled * 1e3);
    println!(
        "PROFILE cost:         {:+.2}% (opt-in per query, informational)",
        (m_profiled - m_plain) / m_plain * 100.0
    );

    // Generous gate: the target is <2%, but CI containers are noisy.
    assert!(
        trace_overhead < 10.0,
        "tracing overhead {trace_overhead:.2}% exceeds the 10% hard ceiling"
    );
}
