//! Finding 2 — accuracy by difficulty and domain.
//!
//! The paper's second finding: structural complexity, not domain
//! specificity, poses the greatest challenge. This table reports
//! gold-result reproduction accuracy per (difficulty, domain) cell, the
//! route distribution, and the frequency of each injected translation
//! error kind.

use chatiyp_bench::{ok, row, run_evaluation, ExperimentConfig, ItemRecord};
use chatiyp_core::Route;
use iyp_llm::{Difficulty, Domain};
use std::collections::BTreeMap;

fn accuracy(records: &[&ItemRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter(|r| r.correct).count() as f64 / records.len() as f64
}

fn main() {
    let config = ExperimentConfig::default();
    eprintln!(
        "running {} questions against the {}-AS synthetic IYP (seed {}) ...",
        config.eval.target_size, config.data.n_as, config.data.seed
    );
    let run = run_evaluation(&config);

    println!(
        "Finding 2 — accuracy by difficulty and domain (n = {})",
        run.records.len()
    );
    println!("==============================================================");
    let widths = [8, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "".into(),
                "general".into(),
                "technical".into(),
                "all".into()
            ],
            &widths
        )
    );
    let mut col_means: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for difficulty in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
        let mut cells = vec![difficulty.to_string()];
        for domain in [Some(Domain::General), Some(Domain::Technical), None] {
            let group = run.group(difficulty, domain);
            let acc = accuracy(&group);
            cells.push(format!("{:.1}% ({})", 100.0 * acc, group.len()));
            let key = match domain {
                Some(Domain::General) => "general",
                Some(Domain::Technical) => "technical",
                None => "all",
            };
            col_means.entry(key).or_default().push(acc);
        }
        println!("{}", row(&cells, &widths));
    }
    println!();
    println!("Route distribution:");
    for route in [Route::Cypher, Route::VectorFallback, Route::Failed] {
        let n = run.records.iter().filter(|r| r.route == route).count();
        println!(
            "  {route:<16} {n:>4} ({:.1}%)",
            100.0 * n as f64 / run.records.len() as f64
        );
    }
    println!();
    println!("Injected translation errors (simulated-LM failure modes):");
    let mut by_err: BTreeMap<String, usize> = BTreeMap::new();
    for r in &run.records {
        if let Some(e) = r.injected_error {
            *by_err.entry(format!("{e:?}")).or_default() += 1;
        }
    }
    for (err, n) in &by_err {
        println!("  {err:<18} {n:>4}");
    }

    println!();
    println!("Shape checks vs the paper:");
    let acc_d = |d| accuracy(&run.group(d, None));
    let easy = acc_d(Difficulty::Easy);
    let medium = acc_d(Difficulty::Medium);
    let hard = acc_d(Difficulty::Hard);
    println!(
        "  monotone degradation:  Easy {:.1}% > Medium {:.1}% > Hard {:.1}% [{}]",
        100.0 * easy,
        100.0 * medium,
        100.0 * hard,
        ok(easy > medium && medium > hard)
    );
    // Domain effect must be smaller than the difficulty effect.
    let gen_acc: f64 = [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard]
        .iter()
        .map(|&d| accuracy(&run.group(d, Some(Domain::General))))
        .sum::<f64>()
        / 3.0;
    let tech_acc: f64 = [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard]
        .iter()
        .map(|&d| accuracy(&run.group(d, Some(Domain::Technical))))
        .sum::<f64>()
        / 3.0;
    let domain_gap = (gen_acc - tech_acc).abs();
    let difficulty_gap = easy - hard;
    println!(
        "  structure >> domain:   difficulty gap {:.1}pp vs domain gap {:.1}pp [{}]",
        100.0 * difficulty_gap,
        100.0 * domain_gap,
        ok(difficulty_gap > 2.0 * domain_gap)
    );
}
