//! Resilience: deterministic fault injection, retry/backoff policy,
//! request budgets, and graceful-degradation bookkeeping.
//!
//! The pipeline treats three substrates as failure-prone — the LLM
//! (translation and generation), the embedder (semantic retrieval), and
//! graph execution. Each call into one of them passes a [`FaultPoint`]
//! check against the configured [`FaultPlan`]; an injected fault is
//! indistinguishable from a real transient outage, so the retry,
//! budget, and degradation machinery exercised by the chaos suite is
//! exactly what runs in production builds. There are no test-only
//! `cfg` hooks: a plan is plain config
//! ([`crate::ChatIypConfig::resilience`]), and a `None` plan costs one
//! branch per stage.
//!
//! Everything is seeded and deterministic: a fault decision is a pure
//! function of `(plan seed, fault point, per-point call index)`, and
//! backoff jitter is a pure function of `(policy seed, attempt, key)`.
//! Replaying the same call sequence replays the same faults, which is
//! what lets the chaos suite assert byte-identical recovery once a
//! fault window closes.

use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The instrumented call sites where a [`FaultPlan`] can inject a
/// transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The LLM translation call (question → Cypher) in the structured
    /// retrieval stage.
    LlmTranslate,
    /// The LLM answer-generation call.
    LlmGenerate,
    /// The embedder behind semantic retrieval (vector fallback).
    Embed,
    /// Graph (Cypher) execution — both the `ask` path and `/cypher`.
    Exec,
    /// The write-ahead-log append + fsync on the durable ingest path.
    /// An injected fault here fails the ingest *before* anything is
    /// published — the durable-write-or-nothing contract.
    Wal,
    /// Checked beside [`FaultPoint::Exec`] on the `/cypher` path, but an
    /// injected fault here *panics* the handling thread instead of
    /// failing the call: the stand-in for an engine bug, which the
    /// server must contain to the one request.
    Panic,
}

impl FaultPoint {
    /// Every fault point, in counter order.
    pub const ALL: [FaultPoint; 6] = [
        FaultPoint::LlmTranslate,
        FaultPoint::LlmGenerate,
        FaultPoint::Embed,
        FaultPoint::Exec,
        FaultPoint::Wal,
        FaultPoint::Panic,
    ];

    /// Stable label used in error text, metrics, and docs.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultPoint::LlmTranslate => "llm_translate",
            FaultPoint::LlmGenerate => "llm_generate",
            FaultPoint::Embed => "embed",
            FaultPoint::Exec => "exec",
            FaultPoint::Wal => "wal",
            FaultPoint::Panic => "panic",
        }
    }

    fn idx(self) -> usize {
        match self {
            FaultPoint::LlmTranslate => 0,
            FaultPoint::LlmGenerate => 1,
            FaultPoint::Embed => 2,
            FaultPoint::Exec => 3,
            FaultPoint::Wal => 4,
            FaultPoint::Panic => 5,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When and how often one [`FaultPoint`] fails.
///
/// A rule is a half-open call-index window `[from_call, until_call)`
/// over that point's own call counter, plus a failure probability
/// within the window. `probability: 1.0` is a deterministic outage for
/// the whole window — the shape the chaos suite uses to prove recovery
/// — while fractional probabilities model flaky substrates (still
/// deterministic for a given seed and call sequence).
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Chance a call inside the window fails, in `[0, 1]`.
    pub probability: f64,
    /// First failing call index (inclusive).
    pub from_call: u64,
    /// First call index past the window (exclusive); `None` never ends.
    pub until_call: Option<u64>,
}

impl FaultRule {
    /// A total outage over calls `[from, until)`.
    pub fn window(from: u64, until: u64) -> Self {
        FaultRule {
            probability: 1.0,
            from_call: from,
            until_call: Some(until),
        }
    }

    /// Every call fails with `probability`, forever.
    pub fn flaky(probability: f64) -> Self {
        FaultRule {
            probability,
            from_call: 0,
            until_call: None,
        }
    }
}

/// An injected fault, reported exactly like a real transient error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Which instrumented call failed.
    pub point: FaultPoint,
    /// That point's call index at the time of failure.
    pub call: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (call #{})", self.point, self.call)
    }
}

impl std::error::Error for FaultError {}

/// A seeded, deterministic fault schedule over the pipeline's
/// [`FaultPoint`]s.
///
/// The plan keeps one atomic call counter per point; [`check`]
/// increments it and decides pass/fail as a pure function of
/// `(seed, point, call index)` and the point's [`FaultRule`]. Cloning
/// the `Arc` that configs hold shares the counters, so every stage of
/// one pipeline advances the same schedule.
///
/// [`check`]: FaultPlan::check
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: [Option<FaultRule>; 6],
    calls: [AtomicU64; 6],
}

impl FaultPlan {
    /// An empty plan (no rules, nothing fails) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Builder: installs `rule` at `point` (replacing any previous one).
    pub fn rule(mut self, point: FaultPoint, rule: FaultRule) -> Self {
        self.rules[point.idx()] = Some(rule);
        self
    }

    /// Convenience: the builder output wrapped for config injection.
    pub fn into_arc(self) -> Arc<FaultPlan> {
        Arc::new(self)
    }

    /// Records one call at `point` and decides whether it fails.
    ///
    /// Always advances the point's call counter, so a plan's windows
    /// line up with the observed call sequence whether or not a rule is
    /// installed.
    pub fn check(&self, point: FaultPoint) -> Result<(), FaultError> {
        let call = self.calls[point.idx()].fetch_add(1, Ordering::Relaxed);
        let Some(rule) = &self.rules[point.idx()] else {
            return Ok(());
        };
        if call < rule.from_call || rule.until_call.is_some_and(|end| call >= end) {
            return Ok(());
        }
        let fails = rule.probability >= 1.0
            || unit(mix(
                self.seed ^ (point.idx() as u64).wrapping_mul(0x9E3779B97F4A7C15),
                call,
            )) < rule.probability;
        if fails {
            Err(FaultError { point, call })
        } else {
            Ok(())
        }
    }

    /// How many calls `point` has seen so far.
    pub fn calls(&self, point: FaultPoint) -> u64 {
        self.calls[point.idx()].load(Ordering::Relaxed)
    }
}

/// SplitMix64-style finalizer over two words; the same construction the
/// simulated LM uses for its deterministic stochasticity.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(b.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over a string, for keying jitter off the question text.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Capped exponential backoff with seeded jitter, applied to transient
/// (injected or real) faults — distinct from
/// [`crate::ChatIypConfig::max_retries`], which re-prompts the
/// translator for *self-correction* on wrong-but-successful output.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure; 0 disables fault retries.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay, jitter included.
    pub cap: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: a delay `d` is scaled into
    /// `[d·(1-jitter), d·(1+jitter)]` (then re-capped).
    pub jitter: f64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 42,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based) for `key`.
    ///
    /// `min(cap, base·multiplier^attempt)` scaled by a jitter factor in
    /// `[1-jitter, 1+jitter]`, then capped again — so the result is
    /// always within `[base·(1-jitter), cap]`. Deterministic: the same
    /// `(policy, attempt, key)` always yields the same delay.
    pub fn backoff(&self, attempt: u32, key: &str) -> Duration {
        let raw = self.base.as_secs_f64() * self.multiplier.powi(attempt as i32);
        let capped = raw.min(self.cap.as_secs_f64());
        let u = unit(mix(self.seed ^ fnv(key), u64::from(attempt)));
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * u;
        Duration::from_secs_f64((capped * factor).min(self.cap.as_secs_f64()))
    }
}

/// Share of the `ask` deadline the structured (translate + execute)
/// stage may spend before the pipeline stops retrying it and falls
/// through to the next rung.
pub const TRANSLATE_BUDGET_SHARE: f64 = 0.5;

/// Share of the `ask` deadline spent by the end of retrieval (semantic
/// fallback included); past this the pipeline skips straight to
/// generation with whatever it has.
pub const RETRIEVE_BUDGET_SHARE: f64 = 0.8;

/// An end-to-end request deadline, split across stages by fixed shares
/// ([`TRANSLATE_BUDGET_SHARE`], [`RETRIEVE_BUDGET_SHARE`]).
///
/// A `Budget` never aborts a request: exhaustion makes stages fall
/// through to the next degradation rung, and the response reports
/// `degraded: "budget-exhausted"` instead of failing.
#[derive(Debug, Clone)]
pub struct Budget {
    start: Instant,
    limit: Option<Duration>,
}

impl Budget {
    /// Starts the clock; `None` means unlimited.
    pub fn new(limit: Option<Duration>) -> Self {
        Budget {
            start: Instant::now(),
            limit,
        }
    }

    /// A budget that never expires.
    pub fn unlimited() -> Self {
        Budget::new(None)
    }

    /// Time left before the deadline; `None` when unlimited.
    pub fn remaining(&self) -> Option<Duration> {
        self.limit.map(|l| l.saturating_sub(self.start.elapsed()))
    }

    /// Has the whole deadline passed?
    pub fn expired(&self) -> bool {
        self.remaining().is_some_and(|r| r.is_zero())
    }

    /// Is less than `share` of the deadline spent? Always true when
    /// unlimited.
    pub fn within_share(&self, share: f64) -> bool {
        match self.limit {
            None => true,
            Some(l) => self.start.elapsed().as_secs_f64() < l.as_secs_f64() * share,
        }
    }

    /// Sleeps for `d`, clipped to the remaining budget. Returns `false`
    /// (without sleeping) when the budget is already exhausted — the
    /// caller should stop retrying and fall through.
    pub fn sleep(&self, d: Duration) -> bool {
        let d = match self.remaining() {
            None => d,
            Some(r) if r.is_zero() => return false,
            Some(r) => d.min(r),
        };
        if !d.is_zero() {
            std::thread::sleep(d);
        }
        true
    }
}

/// Why a response is degraded — the rungs of the degradation ladder
/// below "full service". Surfaced verbatim in the `degraded` field of
/// `/ask` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The structured stage (LLM translation or Cypher execution) was
    /// unavailable past its retry budget; the answer comes from
    /// semantic retrieval alone.
    Text2CypherUnavailable,
    /// The embedder/semantic index was unavailable; the answer comes
    /// from the structured stage alone (or fails marked).
    RetrievalUnavailable,
    /// Answer generation was unavailable past its retry budget; the
    /// response carries a plain rendering of the retrieved facts.
    GenerationUnavailable,
    /// The request deadline ran out mid-pipeline; later stages were
    /// skipped rather than aborted.
    BudgetExhausted,
}

impl DegradedReason {
    /// The stable marker string surfaced through `/ask`.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradedReason::Text2CypherUnavailable => "text2cypher-unavailable",
            DegradedReason::RetrievalUnavailable => "retrieval-unavailable",
            DegradedReason::GenerationUnavailable => "generation-unavailable",
            DegradedReason::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Resilience knobs for the pipeline, carried by
/// [`crate::ChatIypConfig::resilience`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Master switch. Off, the ask path takes its historical shape: no
    /// fault checks, no budgets, no fault retries (the
    /// `degradation_overhead` bench compares the two).
    pub enabled: bool,
    /// End-to-end `ask` deadline, split across stages by the
    /// `*_BUDGET_SHARE` constants. `None` (default) means unlimited.
    pub ask_deadline: Option<Duration>,
    /// Backoff policy for transient-fault retries.
    pub retry: RetryPolicy,
    /// The fault schedule, if any. Shared (`Arc`) so config clones
    /// advance one set of call counters.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            enabled: true,
            ask_deadline: None,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

impl ResilienceConfig {
    /// A config with the resilience layer switched off entirely.
    pub fn disabled() -> Self {
        ResilienceConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// Lifetime counters for the resilience layer, owned by
/// [`crate::ChatIyp`] and surfaced via `/stats` and `/metrics`
/// (`chatiyp_retries_total`, `chatiyp_degraded_total`).
#[derive(Debug, Default)]
pub struct ResilienceStats {
    retries: AtomicU64,
    degraded: AtomicU64,
}

impl ResilienceStats {
    /// Counts one transient-fault retry (any stage).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one degraded response.
    pub fn note_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ResilienceCounters {
        ResilienceCounters {
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// A readable copy of [`ResilienceStats`], serialized inside `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ResilienceCounters {
    /// Transient-fault retries performed (all stages).
    pub retries: u64,
    /// Responses served with a `degraded` marker.
    pub degraded: u64,
}

/// One request's resilience context: the running budget plus borrows of
/// the policy, plan, and counters. Built per-`ask` when the layer is
/// enabled; stages receive `Option<&ResilienceCtx>` so the disabled
/// path stays a single branch.
#[derive(Debug)]
pub struct ResilienceCtx<'a> {
    /// The request's end-to-end budget (clock already running).
    pub budget: Budget,
    /// Backoff policy for this request's fault retries.
    pub retry: &'a RetryPolicy,
    /// The fault schedule, if one is configured.
    pub faults: Option<&'a FaultPlan>,
    /// Where retries and degradations are counted.
    pub stats: &'a ResilienceStats,
}

impl ResilienceCtx<'_> {
    /// Checks `point` against the fault plan (no plan → always `Ok`).
    pub fn check(&self, point: FaultPoint) -> Result<(), FaultError> {
        match self.faults {
            Some(plan) => plan.check(point),
            None => Ok(()),
        }
    }

    /// Handles one transient fault: if retry number `attempt` is within
    /// the policy and the stage's budget share, backs off (budget-
    /// clipped sleep), counts the retry, and returns `true` — the
    /// caller should try again. Otherwise returns `false` — the caller
    /// should fall through to degradation.
    pub fn retry_after_fault(&self, attempt: u32, key: &str, stage_share: f64) -> bool {
        if attempt >= self.retry.max_retries || !self.budget.within_share(stage_share) {
            return false;
        }
        if !self.budget.sleep(self.retry.backoff(attempt, key)) {
            return false;
        }
        self.stats.note_retry();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails_but_counts_calls() {
        let plan = FaultPlan::new(7);
        for _ in 0..5 {
            assert!(plan.check(FaultPoint::LlmTranslate).is_ok());
        }
        assert_eq!(plan.calls(FaultPoint::LlmTranslate), 5);
        assert_eq!(plan.calls(FaultPoint::Exec), 0);
    }

    #[test]
    fn window_rule_fails_exactly_inside_the_window() {
        let plan = FaultPlan::new(1).rule(FaultPoint::Exec, FaultRule::window(2, 5));
        let outcomes: Vec<bool> = (0..8)
            .map(|_| plan.check(FaultPoint::Exec).is_err())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, true, false, false, false]
        );
    }

    #[test]
    fn fault_error_reports_point_and_call() {
        let plan = FaultPlan::new(1).rule(FaultPoint::LlmGenerate, FaultRule::window(0, 1));
        let err = plan.check(FaultPoint::LlmGenerate).unwrap_err();
        assert_eq!(err.point, FaultPoint::LlmGenerate);
        assert_eq!(err.call, 0);
        assert_eq!(err.to_string(), "injected fault at llm_generate (call #0)");
    }

    #[test]
    fn probabilistic_rule_is_seed_deterministic_and_roughly_calibrated() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).rule(FaultPoint::Embed, FaultRule::flaky(0.3));
            (0..400)
                .map(|_| plan.check(FaultPoint::Embed).is_err())
                .collect()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        let c = run(100);
        assert_ne!(a, c, "different seeds should differ somewhere");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((0.18..0.42).contains(&rate), "rate {rate} far from 0.3");
    }

    #[test]
    fn points_have_independent_counters() {
        let plan = FaultPlan::new(3).rule(FaultPoint::LlmTranslate, FaultRule::window(1, 2));
        // Exec calls must not advance the LlmTranslate window.
        for _ in 0..10 {
            assert!(plan.check(FaultPoint::Exec).is_ok());
        }
        assert!(plan.check(FaultPoint::LlmTranslate).is_ok()); // call 0
        assert!(plan.check(FaultPoint::LlmTranslate).is_err()); // call 1
        assert!(plan.check(FaultPoint::LlmTranslate).is_ok()); // call 2
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..Default::default()
        };
        let d: Vec<Duration> = (0..8).map(|a| p.backoff(a, "q")).collect();
        assert_eq!(d[0], Duration::from_millis(5));
        assert_eq!(d[1], Duration::from_millis(10));
        assert_eq!(d[2], Duration::from_millis(20));
        // Monotonic until the cap, then pinned at it.
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(d[7], p.cap, "attempt 7 (640ms raw) must cap at 200ms");
    }

    #[test]
    fn backoff_jitter_stays_within_bounds_and_under_cap() {
        let p = RetryPolicy::default(); // jitter 0.2
        for attempt in 0..10 {
            for key in ["a", "b", "what is the name of AS2497?", ""] {
                let d = p.backoff(attempt, key).as_secs_f64();
                let raw = (p.base.as_secs_f64() * p.multiplier.powi(attempt as i32))
                    .min(p.cap.as_secs_f64());
                assert!(
                    d >= raw * (1.0 - p.jitter) - 1e-12,
                    "attempt {attempt} key {key:?}: {d} below jitter floor"
                );
                assert!(
                    d <= p.cap.as_secs_f64() + 1e-12,
                    "attempt {attempt} key {key:?}: {d} above cap"
                );
                assert!(d <= raw * (1.0 + p.jitter) + 1e-12);
            }
        }
    }

    #[test]
    fn backoff_is_seed_deterministic() {
        let p = RetryPolicy::default();
        let q = RetryPolicy::default();
        for attempt in 0..5 {
            assert_eq!(p.backoff(attempt, "key"), q.backoff(attempt, "key"));
        }
        let other_seed = RetryPolicy {
            seed: 43,
            ..Default::default()
        };
        assert!(
            (0..5).any(|a| p.backoff(a, "key") != other_seed.backoff(a, "key")),
            "different seeds should jitter differently"
        );
        // Different keys jitter differently too (same seed).
        assert!((0..5).any(|a| p.backoff(a, "key") != p.backoff(a, "other")));
    }

    #[test]
    fn budget_expires_and_clips_sleeps() {
        let b = Budget::new(Some(Duration::from_millis(20)));
        assert!(!b.expired());
        assert!(b.within_share(1.0));
        // A sleep far past the deadline is clipped to the remainder.
        let t0 = Instant::now();
        assert!(b.sleep(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(b.expired());
        assert!(!b.within_share(1.0));
        assert!(
            !b.sleep(Duration::from_millis(1)),
            "expired budget must refuse"
        );
    }

    #[test]
    fn unlimited_budget_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert!(b.remaining().is_none());
        assert!(b.within_share(0.0001));
        assert!(b.sleep(Duration::ZERO));
    }

    #[test]
    fn within_share_tracks_elapsed_fraction() {
        let b = Budget::new(Some(Duration::from_secs(3600)));
        // Fresh budget: essentially nothing spent.
        assert!(b.within_share(0.5));
        let tiny = Budget::new(Some(Duration::from_nanos(1)));
        std::thread::sleep(Duration::from_millis(1));
        assert!(!tiny.within_share(0.5));
    }

    #[test]
    fn retry_after_fault_respects_policy_budget_and_counts() {
        let stats = ResilienceStats::default();
        let retry = RetryPolicy {
            max_retries: 2,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            ..Default::default()
        };
        let ctx = ResilienceCtx {
            budget: Budget::unlimited(),
            retry: &retry,
            faults: None,
            stats: &stats,
        };
        assert!(ctx.retry_after_fault(0, "q", 1.0));
        assert!(ctx.retry_after_fault(1, "q", 1.0));
        assert!(!ctx.retry_after_fault(2, "q", 1.0), "past max_retries");
        assert_eq!(stats.snapshot().retries, 2);

        // An exhausted stage share refuses immediately.
        let spent = ResilienceCtx {
            budget: Budget::new(Some(Duration::from_nanos(1))),
            retry: &retry,
            faults: None,
            stats: &stats,
        };
        std::thread::sleep(Duration::from_millis(1));
        assert!(!spent.retry_after_fault(0, "q", 0.5));
        assert_eq!(stats.snapshot().retries, 2, "refused retry must not count");
    }

    #[test]
    fn degraded_reasons_render_stable_markers() {
        assert_eq!(
            DegradedReason::Text2CypherUnavailable.as_str(),
            "text2cypher-unavailable"
        );
        assert_eq!(
            DegradedReason::RetrievalUnavailable.to_string(),
            "retrieval-unavailable"
        );
        assert_eq!(
            DegradedReason::GenerationUnavailable.as_str(),
            "generation-unavailable"
        );
        assert_eq!(DegradedReason::BudgetExhausted.as_str(), "budget-exhausted");
    }

    #[test]
    fn stats_snapshot_serializes_for_stats_endpoint() {
        let stats = ResilienceStats::default();
        stats.note_retry();
        stats.note_degraded();
        stats.note_degraded();
        let snap = stats.snapshot();
        assert_eq!(
            snap,
            ResilienceCounters {
                retries: 1,
                degraded: 2
            }
        );
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"retries\":1"));
        assert!(json.contains("\"degraded\":2"));
    }
}
