//! Figure 2a — comparison of metric distributions.
//!
//! Runs the full CypherEval benchmark through ChatIYP, scores every answer
//! under BLEU / ROUGE / BERTScore / G-Eval, and prints each metric's
//! distribution (histogram + summary). The paper's qualitative claims to
//! check against the output:
//!
//! * BLEU is depressed even on semantically-correct answers (paraphrase
//!   penalty) — low mean, mass near the bottom;
//! * ROUGE sits in between;
//! * BERTScore is compressed near the top (ceiling effect) — high mean,
//!   small spread, weak separation;
//! * G-Eval is bimodal — mass at both ends, high bimodality coefficient.

use chatiyp_bench::{ok, run_evaluation, ExperimentConfig};
use iyp_metrics::stats::{summarize, Histogram};
use iyp_metrics::MetricKind;

fn main() {
    let config = ExperimentConfig::default();
    eprintln!(
        "running {} questions against the {}-AS synthetic IYP (seed {}) ...",
        config.eval.target_size, config.data.n_as, config.data.seed
    );
    let run = run_evaluation(&config);

    println!(
        "Figure 2a — metric score distributions (n = {})",
        run.records.len()
    );
    println!("==============================================================");
    for kind in MetricKind::ALL {
        let scores = run.scores(kind);
        let s = summarize(&scores);
        let h = Histogram::build(&scores, 10);
        println!();
        println!(
            "{:<10} mean {:.3}  std {:.3}  median {:.3}  IQR [{:.3}, {:.3}]  bimodality {:.3}",
            kind.name(),
            s.mean,
            s.std,
            s.median,
            s.q25,
            s.q75,
            s.bimodality
        );
        print!("{}", h.render(40));
    }

    println!();
    println!("Shape checks vs the paper:");
    let bleu = summarize(&run.scores(MetricKind::Bleu));
    let rouge = summarize(&run.scores(MetricKind::Rouge));
    let bert = summarize(&run.scores(MetricKind::BertScore));
    let geval = summarize(&run.scores(MetricKind::GEval));
    println!(
        "  BLEU over-penalizes paraphrase:    mean(BLEU) = {:.3} < mean(ROUGE) = {:.3}  [{}]",
        bleu.mean,
        rouge.mean,
        ok(bleu.mean < rouge.mean)
    );
    println!(
        "  BERTScore ceiling effect:          q25(BERT) = {:.3} > q25(ROUGE) = {:.3} > q25(BLEU) = {:.3}; \
         std(BERT) = {:.3} < std(G-Eval) = {:.3}  [{}]",
        bert.q25,
        rouge.q25,
        bleu.q25,
        bert.std,
        geval.std,
        ok(bert.q25 > rouge.q25 && rouge.q25 > bleu.q25 && bert.std < geval.std)
    );
    println!(
        "  G-Eval bimodality:                 coefficient = {:.3} (> 0.555: {})",
        geval.bimodality,
        ok(geval.bimodality > 0.555)
    );
    let geval_hist = Histogram::build(&run.scores(MetricKind::GEval), 10);
    println!(
        "  G-Eval mass at the extremes:       edge mass = {:.2} [{}]",
        geval_hist.edge_mass(),
        ok(geval_hist.edge_mass() > 0.6)
    );
}
