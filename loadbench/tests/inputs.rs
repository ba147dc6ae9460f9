//! Seeded input generation: the same seed gives the same inputs, and
//! different seeds give different ones.

use iyp_data::{generate, IypConfig};
use loadbench::ingest::Inputs;
use loadbench::inputs::{cold_set, hot_set, repeated_order, slotted_arrivals};

fn questions(items: &[cypher_eval::EvalItem]) -> Vec<String> {
    items.iter().map(|i| i.question.clone()).collect()
}

#[test]
fn ask_orders_and_arrivals_repeat_per_seed_and_differ_across_seeds() {
    assert_eq!(
        repeated_order(312, 7, "hot-order", 1000),
        repeated_order(312, 7, "hot-order", 1000)
    );
    assert_ne!(
        repeated_order(312, 7, "hot-order", 1000),
        repeated_order(312, 8, "hot-order", 1000)
    );
    assert_eq!(
        slotted_arrivals(100.0, 2.0, 7),
        slotted_arrivals(100.0, 2.0, 7)
    );
    assert_ne!(
        slotted_arrivals(100.0, 2.0, 7),
        slotted_arrivals(100.0, 2.0, 8)
    );
    assert_eq!(
        slotted_arrivals(100.0, 2.0, 7).len(),
        200,
        "the rate is exact"
    );
}

#[test]
fn question_sets_repeat_per_seed_and_the_cold_set_differs_across_seeds() {
    let d = generate(&IypConfig::tiny());
    assert_eq!(questions(&hot_set(&d)), questions(&hot_set(&d)));
    assert_eq!(hot_set(&d).len(), 312);
    assert_eq!(
        questions(&cold_set(&d, 1, 300)),
        questions(&cold_set(&d, 1, 300))
    );
    assert_ne!(
        questions(&cold_set(&d, 1, 300)),
        questions(&cold_set(&d, 2, 300))
    );
}

#[test]
fn ingest_batches_repeat_per_seed_and_only_paced_batches_follow_the_seed() {
    let cfg = IypConfig::tiny();
    let a = Inputs::draw(&cfg, 1, 3).unwrap();
    let b = Inputs::draw(&cfg, 1, 3).unwrap();
    let c = Inputs::draw(&cfg, 2, 3).unwrap();
    let paced = |i: &Inputs| i.paced_bodies().map(<[u8]>::to_vec).collect::<Vec<_>>();
    assert_eq!(paced(&a), paced(&b));
    assert_ne!(paced(&a), paced(&c));
    assert_eq!(
        a.scale, c.scale,
        "the scaled graph is the same for every seed"
    );
    assert!(!a.scale.is_empty());
}

/// ask-cold-fresh defeats the result cache only if its distinct Cypher
/// outnumbers the 1024 entries.
#[test]
fn the_cold_set_has_more_distinct_cypher_than_the_result_cache_holds() {
    let d = generate(&IypConfig::default());
    let mut gold: Vec<String> = cold_set(&d, 1, 4096)
        .into_iter()
        .map(|i| i.gold_cypher)
        .collect();
    gold.sort_unstable();
    gold.dedup();
    assert!(gold.len() > 1024, "only {} distinct queries", gold.len());
}
