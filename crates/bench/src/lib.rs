//! # chatiyp-bench
//!
//! The experiment harness: runs the full ChatIYP pipeline over the
//! CypherEval benchmark and scores every answer under all four metrics,
//! producing the records behind each figure and table of the paper (see
//! the binaries in `src/bin/`).

#![warn(missing_docs)]

use chatiyp_core::{ChatIyp, ChatIypConfig, Route};
use cypher_eval::{
    build_dataset, results_match, CypherEvalDataset, EvalConfig, EvalItem, Validation, Validator,
};
use iyp_data::{generate, IypConfig, IypDataset};
use iyp_llm::{Difficulty, Domain, TranslationError};
use iyp_metrics::{geval, GEval, MetricKind};
use serde::Serialize;

/// Everything recorded about one benchmark question.
#[derive(Debug, Clone, Serialize)]
pub struct ItemRecord {
    /// Question id.
    pub id: usize,
    /// Difficulty label.
    pub difficulty: Difficulty,
    /// Domain label.
    pub domain: Domain,
    /// Intent kind (stable template id).
    pub kind: String,
    /// The question.
    pub question: String,
    /// Gold Cypher.
    pub gold_cypher: String,
    /// Generated Cypher (if any).
    pub generated_cypher: Option<String>,
    /// Which route answered.
    pub route: Route,
    /// Error the simulated model injected, if any.
    pub injected_error: Option<TranslationError>,
    /// Ground truth: did the generated query reproduce the gold result?
    pub correct: bool,
    /// Reference answer from the validation model.
    pub reference: String,
    /// The system's answer.
    pub answer: String,
    /// BLEU score.
    pub bleu: f64,
    /// ROUGE score.
    pub rouge: f64,
    /// BERTScore.
    pub bertscore: f64,
    /// G-Eval score.
    pub geval: f64,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
}

impl ItemRecord {
    /// The score under a metric.
    pub fn score(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::Bleu => self.bleu,
            MetricKind::Rouge => self.rouge,
            MetricKind::BertScore => self.bertscore,
            MetricKind::GEval => self.geval,
        }
    }
}

/// Experiment configuration: dataset scale, benchmark size and pipeline
/// knobs. The defaults regenerate the paper's setting.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset generation parameters.
    pub data: IypConfig,
    /// Benchmark construction parameters.
    pub eval: EvalConfig,
    /// Pipeline configuration (stage toggles + LM knobs).
    pub pipeline: ChatIypConfig,
    /// Seed of the independent validation model and judge.
    pub judge_seed: u64,
    /// Worker threads answering benchmark questions. The pipeline is
    /// shared read-only, so any thread count produces the same records
    /// in the same order; 1 runs fully sequential.
    pub threads: usize,
}

/// The default evaluation thread count: one per available core.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            data: IypConfig::default(),
            eval: EvalConfig::default(),
            pipeline: ChatIypConfig::default(),
            judge_seed: 4242,
            threads: default_threads(),
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for tests and smoke runs.
    pub fn small() -> Self {
        ExperimentConfig {
            data: IypConfig::tiny(),
            eval: EvalConfig {
                seed: 42,
                target_size: 81,
            },
            pipeline: ChatIypConfig::default(),
            judge_seed: 4242,
            threads: default_threads(),
        }
    }
}

/// The full evaluation output.
#[derive(Debug, Clone, Serialize)]
pub struct EvaluationRun {
    /// Per-question records.
    pub records: Vec<ItemRecord>,
}

/// Runs the complete evaluation: generate data, build benchmark, answer
/// every question, validate, and score under all four metrics.
pub fn run_evaluation(config: &ExperimentConfig) -> EvaluationRun {
    let dataset = generate(&config.data);
    let bench = build_dataset(&dataset, &config.eval);
    run_evaluation_on(config, dataset, &bench)
}

/// Runs the evaluation against an already-generated dataset/benchmark
/// (used by the ablation sweep to share the expensive generation).
///
/// Questions fan out over `config.threads` scoped worker threads, all
/// sharing the one read-only pipeline. Each thread answers a contiguous
/// chunk of the benchmark and records land in benchmark order, so the
/// output is identical to a sequential run regardless of thread count.
pub fn run_evaluation_on(
    config: &ExperimentConfig,
    dataset: IypDataset,
    bench: &CypherEvalDataset,
) -> EvaluationRun {
    let validator = Validator::new(config.judge_seed);
    let judge = GEval::new(config.judge_seed);
    // Validate against the graph before it moves into the pipeline.
    let validations: Vec<_> = bench
        .items
        .iter()
        .map(|item| {
            validator
                .validate(&dataset.graph, item)
                .expect("gold queries are well-formed by construction")
        })
        .collect();
    let chat = ChatIyp::new(dataset, config.pipeline.clone());

    let work: Vec<(&EvalItem, Validation)> = bench.items.iter().zip(validations).collect();
    let threads = config.threads.max(1).min(work.len().max(1));
    let records: Vec<ItemRecord> = if threads <= 1 {
        work.into_iter()
            .map(|(item, v)| score_item(&chat, &judge, item, v))
            .collect()
    } else {
        // Contiguous chunks, joined in spawn order: chunk k holds items
        // [k*len/n, (k+1)*len/n), so concatenation restores benchmark
        // order exactly.
        let chunk_size = work.len().div_ceil(threads);
        let mut work = work;
        let mut chunks: Vec<Vec<(&EvalItem, Validation)>> = Vec::with_capacity(threads);
        while !work.is_empty() {
            let rest = work.split_off(chunk_size.min(work.len()));
            chunks.push(std::mem::replace(&mut work, rest));
        }
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let chat = &chat;
                    let judge = &judge;
                    s.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(item, v)| score_item(chat, judge, item, v))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("evaluation worker panicked"))
                .collect()
        })
    };
    EvaluationRun { records }
}

/// Answers one benchmark question and scores it under all four metrics.
/// Pure in `(chat, judge, item, validation)` up to wall-clock latency, so
/// records are identical whichever thread computes them.
fn score_item(
    chat: &ChatIyp,
    judge: &GEval,
    item: &EvalItem,
    validation: Validation,
) -> ItemRecord {
    let response = chat.ask(&item.question);
    let correct = response
        .query_result
        .as_ref()
        .map(|got| results_match(&validation.gold_result, got))
        .unwrap_or(false);
    let reference = validation.reference_answer;
    let answer = response.answer.clone();
    let mut rec = ItemRecord {
        id: item.id,
        difficulty: item.difficulty,
        domain: item.domain,
        kind: item.intent.kind().to_string(),
        question: item.question.clone(),
        gold_cypher: item.gold_cypher.clone(),
        generated_cypher: response.cypher.clone(),
        route: response.route,
        injected_error: response.injected_error,
        correct,
        bleu: 0.0,
        rouge: 0.0,
        bertscore: 0.0,
        geval: 0.0,
        latency_us: response.timings.total.as_micros() as u64,
        reference,
        answer,
    };
    rec.bleu = geval::score(
        MetricKind::Bleu,
        judge,
        &item.question,
        &rec.answer,
        &rec.reference,
    );
    rec.rouge = geval::score(
        MetricKind::Rouge,
        judge,
        &item.question,
        &rec.answer,
        &rec.reference,
    );
    rec.bertscore = geval::score(
        MetricKind::BertScore,
        judge,
        &item.question,
        &rec.answer,
        &rec.reference,
    );
    rec.geval = geval::score(
        MetricKind::GEval,
        judge,
        &item.question,
        &rec.answer,
        &rec.reference,
    );
    rec
}

impl EvaluationRun {
    /// Scores of one metric across all records.
    pub fn scores(&self, kind: MetricKind) -> Vec<f64> {
        self.records.iter().map(|r| r.score(kind)).collect()
    }

    /// Records of one (difficulty, optional domain) group.
    pub fn group(&self, difficulty: Difficulty, domain: Option<Domain>) -> Vec<&ItemRecord> {
        self.records
            .iter()
            .filter(|r| r.difficulty == difficulty && domain.map(|d| r.domain == d).unwrap_or(true))
            .collect()
    }

    /// Overall accuracy (gold-result reproduction rate).
    pub fn accuracy(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.correct).count() as f64 / self.records.len() as f64
    }

    /// Correctness labels aligned with [`EvaluationRun::scores`].
    pub fn correctness(&self) -> Vec<bool> {
        self.records.iter().map(|r| r.correct).collect()
    }
}

/// Renders one fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The `p`-quantile (`p` in `0.0..=1.0`) of `samples` by nearest rank:
/// sorts them in place and returns `samples[round((n - 1) · p)]`. At
/// `p = 0.5` that is the upper median `samples[n / 2]`. Panics on an
/// empty slice or a NaN sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// The repetition count a bench binary takes as its first argument
/// (`cargo run --bin NAME -- N`), or `default` when it is absent.
pub fn count_arg(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

/// A pipeline over the tiny generated graph with the oracle LM (full
/// skill, no paraphrase variety) and the rest of `config`.
pub fn tiny_oracle_pipeline(config: ChatIypConfig) -> ChatIyp {
    let lm = iyp_llm::LmConfig {
        seed: 42,
        skill: 1.0,
        variety: 0.0,
    };
    ChatIyp::new(generate(&IypConfig::tiny()), ChatIypConfig { lm, ..config })
}

/// A shape check's verdict, as the figure and table binaries print it.
pub fn ok(b: bool) -> &'static str {
    if b {
        "OK"
    } else {
        "MISMATCH"
    }
}

/// The ask-path overhead benches' workload: a name and a country
/// question for every AS of the tiny generated graph.
pub fn tiny_lookup_questions() -> Vec<String> {
    let dataset = generate(&IypConfig::tiny());
    dataset
        .ases
        .iter()
        .flat_map(|a| {
            [
                format!("What is the name of AS{}?", a.asn),
                format!("In which country is AS{} registered?", a.asn),
            ]
        })
        .collect()
}

/// One timed pass of `questions` through `chat`; seconds.
pub fn ask_pass(chat: &ChatIyp, questions: &[String]) -> f64 {
    let t0 = std::time::Instant::now();
    for q in questions {
        chat.ask(q);
    }
    t0.elapsed().as_secs_f64()
}

/// Writes `report` as pretty JSON to `file` at the repository root (a
/// `BENCH_*.json` bench report) and prints where it went.
pub fn write_report(file: &str, report: &serde_json::Value) {
    let out = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let json = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("{file} writes: {e}"));
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `percentile(x, 0.5)` is the upper median `samples[n / 2]` for every
    /// length: `((n - 1) · 0.5).round() == n / 2`, as `f64::round` rounds
    /// half away from zero.
    #[test]
    fn percentile_half_is_the_upper_median_and_ends_are_min_max() {
        for n in 1..=64usize {
            let mut samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            assert_eq!(percentile(&mut samples, 0.5), (n / 2) as f64, "n = {n}");
            assert_eq!(percentile(&mut samples, 0.0), 0.0, "n = {n}");
            assert_eq!(percentile(&mut samples, 1.0), (n - 1) as f64, "n = {n}");
        }
    }

    #[test]
    fn small_run_produces_sane_records() {
        let run = run_evaluation(&ExperimentConfig::small());
        assert!(run.records.len() >= 80);
        for r in &run.records {
            for kind in MetricKind::ALL {
                let s = r.score(kind);
                assert!((0.0..=1.0).contains(&s), "{} {s}", kind.name());
            }
        }
        let acc = run.accuracy();
        assert!(acc > 0.3, "accuracy suspiciously low: {acc}");
        assert!(acc < 0.99, "accuracy suspiciously perfect: {acc}");
    }

    #[test]
    fn difficulty_gradient_holds() {
        let run = run_evaluation(&ExperimentConfig::small());
        let acc = |d| {
            let g = run.group(d, None);
            g.iter().filter(|r| r.correct).count() as f64 / g.len().max(1) as f64
        };
        let easy = acc(Difficulty::Easy);
        let hard = acc(Difficulty::Hard);
        assert!(
            easy > hard,
            "no difficulty gradient: easy={easy:.2} hard={hard:.2}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_evaluation(&ExperimentConfig::small());
        let b = run_evaluation(&ExperimentConfig::small());
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.answer, y.answer);
            assert_eq!(x.geval, y.geval);
            assert_eq!(x.correct, y.correct);
        }
    }

    /// A record with the wall-clock latency zeroed: every other field is
    /// a pure function of the config, so serialized forms must match
    /// byte-for-byte across thread counts.
    fn stable_json(r: &ItemRecord) -> String {
        let mut r = r.clone();
        r.latency_us = 0;
        serde_json::to_string(&r).expect("record serializes")
    }

    #[test]
    fn parallel_run_matches_sequential_byte_for_byte() {
        let sequential = run_evaluation(&ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::small()
        });
        let parallel = run_evaluation(&ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::small()
        });
        assert_eq!(sequential.records.len(), parallel.records.len());
        for (x, y) in sequential.records.iter().zip(&parallel.records) {
            assert_eq!(stable_json(x), stable_json(y));
        }
    }
}
