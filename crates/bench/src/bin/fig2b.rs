//! Figure 2b — G-Eval scores by difficulty (and domain).
//!
//! Paper claims to check against the output:
//! * over half of Easy responses score above 0.75;
//! * performance degrades from Easy → Medium → Hard;
//! * no consistent gap between general and technical domains — structural
//!   complexity, not domain specificity, is what hurts.

use chatiyp_bench::{ok, run_evaluation, ExperimentConfig};
use iyp_llm::{Difficulty, Domain};
use iyp_metrics::stats::{summarize, Histogram};

fn main() {
    let config = ExperimentConfig::default();
    eprintln!(
        "running {} questions against the {}-AS synthetic IYP (seed {}) ...",
        config.eval.target_size, config.data.n_as, config.data.seed
    );
    let run = run_evaluation(&config);

    println!("Figure 2b — G-Eval by difficulty and domain");
    println!("==============================================================");
    for difficulty in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
        let scores: Vec<f64> = run
            .group(difficulty, None)
            .iter()
            .map(|r| r.geval)
            .collect();
        let s = summarize(&scores);
        println!();
        println!(
            "{difficulty:<7} n = {:<4} median {:.3}  mean {:.3}  share > 0.75: {:.1}%",
            s.n,
            s.median,
            s.mean,
            100.0 * s.share_above_075
        );
        print!("{}", Histogram::build(&scores, 10).render(40));
    }

    println!();
    println!("By difficulty × domain (median G-Eval / share > 0.75):");
    for difficulty in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
        let mut cells = Vec::new();
        for domain in [Domain::General, Domain::Technical] {
            let scores: Vec<f64> = run
                .group(difficulty, Some(domain))
                .iter()
                .map(|r| r.geval)
                .collect();
            let s = summarize(&scores);
            cells.push(format!(
                "{domain}: {:.3} / {:.0}% (n={})",
                s.median,
                100.0 * s.share_above_075,
                s.n
            ));
        }
        println!("  {difficulty:<7} {}", cells.join("   "));
    }

    println!();
    println!("Shape checks vs the paper:");
    let med = |d| {
        summarize(
            &run.group(d, None)
                .iter()
                .map(|r| r.geval)
                .collect::<Vec<_>>(),
        )
    };
    let easy = med(Difficulty::Easy);
    let medium = med(Difficulty::Medium);
    let hard = med(Difficulty::Hard);
    println!(
        "  over half of Easy above 0.75:   {:.1}% [{}]",
        100.0 * easy.share_above_075,
        ok(easy.share_above_075 > 0.5)
    );
    println!(
        "  degradation with complexity:    Easy {:.3} > Medium {:.3} > Hard {:.3} [{}]",
        easy.median,
        medium.median,
        hard.median,
        ok(easy.median > medium.median && medium.median > hard.median)
    );
    // Domain gap per difficulty: should be small and of inconsistent sign.
    let mut gaps = Vec::new();
    for d in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
        let g = summarize(
            &run.group(d, Some(Domain::General))
                .iter()
                .map(|r| r.geval)
                .collect::<Vec<_>>(),
        )
        .mean;
        let t = summarize(
            &run.group(d, Some(Domain::Technical))
                .iter()
                .map(|r| r.geval)
                .collect::<Vec<_>>(),
        )
        .mean;
        gaps.push(g - t);
    }
    let inconsistent = gaps.iter().any(|g| *g > 0.0) && gaps.iter().any(|g| *g < 0.0)
        || gaps.iter().all(|g| g.abs() < 0.1);
    println!(
        "  no consistent domain gap:       general-technical mean gaps = [{}] [{}]",
        gaps.iter()
            .map(|g| format!("{g:+.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        ok(inconsistent)
    );
}
