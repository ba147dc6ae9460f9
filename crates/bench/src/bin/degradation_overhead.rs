//! Measures what the resilience layer costs when nothing is failing.
//!
//! Two arms over the same question batch, median-of-interleaved-passes:
//! the layer disabled entirely vs enabled with no fault plan and no
//! deadline (the production default). The enabled arm pays for budget
//! bookkeeping and the per-stage fault checks — which must be nearly
//! free, because every healthy request pays them.
//!
//! The overhead target is <2%; the bench hard-fails only above a
//! generous 10% so a noisy container doesn't flake, while the printed
//! number is what docs/RESILIENCE.md cites. Results are written to
//! `BENCH_resilience.json` at the repository root.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin degradation_overhead [-- PASSES]
//! ```

use chatiyp_bench::{
    ask_pass, count_arg, percentile, tiny_lookup_questions, tiny_oracle_pipeline, write_report,
};
use chatiyp_core::{ChatIyp, ChatIypConfig, ResilienceConfig};

fn pipeline(resilience: ResilienceConfig) -> ChatIyp {
    tiny_oracle_pipeline(ChatIypConfig {
        resilience,
        ..Default::default()
    })
}

fn main() {
    let passes = count_arg(30);

    let questions = tiny_lookup_questions();

    let disabled = pipeline(ResilienceConfig::disabled());
    let enabled = pipeline(ResilienceConfig::default());
    assert!(!disabled.config().resilience.enabled && enabled.config().resilience.enabled);
    assert!(
        enabled.config().resilience.faults.is_none(),
        "the enabled arm must be zero-fault"
    );

    // Warm both arms (caches, allocator) before measuring.
    ask_pass(&disabled, &questions);
    ask_pass(&enabled, &questions);

    // Interleave the arms so drift (thermal, scheduler) hits both.
    let mut t_disabled = Vec::with_capacity(passes);
    let mut t_enabled = Vec::with_capacity(passes);
    for _ in 0..passes {
        t_disabled.push(ask_pass(&disabled, &questions));
        t_enabled.push(ask_pass(&enabled, &questions));
    }
    let m_disabled = percentile(&mut t_disabled, 0.5);
    let m_enabled = percentile(&mut t_enabled, 0.5);
    let overhead = (m_enabled - m_disabled) / m_disabled * 100.0;

    println!("questions per pass:      {}", questions.len());
    println!("passes:                  {passes} (median)");
    println!("ask, resilience off:     {:.3}ms", m_disabled * 1e3);
    println!("ask, resilience on:      {:.3}ms", m_enabled * 1e3);
    println!("resilience overhead:     {overhead:+.2}% (target <2%)");

    // Sanity: the enabled zero-fault arm never degrades or retries.
    let counters = enabled.resilience_stats();
    assert_eq!(
        (counters.retries, counters.degraded),
        (0, 0),
        "zero-fault arm recorded resilience events: {counters:?}"
    );

    let report = serde_json::json!({
        "bench": "degradation_overhead",
        "questions_per_pass": questions.len() as u64,
        "passes": passes as u64,
        "disabled_ms": m_disabled * 1e3,
        "enabled_ms": m_enabled * 1e3,
        "overhead_pct": overhead,
    });
    write_report("BENCH_resilience.json", &report);

    // Generous gate: the target is <2%, but CI containers are noisy.
    assert!(
        overhead < 10.0,
        "resilience overhead {overhead:.2}% exceeds the 10% hard ceiling"
    );
}
