//! The percentile helper names a percentile only with at least ten
//! samples beyond it.

use loadbench::stats::{highest_tail, percentile};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_a_thousand_samples() {
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
}

#[test]
fn p50_needs_twenty_samples() {
    assert_eq!(percentile(&ramp(19), 50.0), None);
    assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
}

#[test]
fn the_highest_nameable_tail_is_chosen() {
    assert_eq!(highest_tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
    assert_eq!(highest_tail(&ramp(1500)).map(|t| t.0), Some(99.0));
    assert_eq!(highest_tail(&ramp(300)).map(|t| t.0), Some(95.0));
    assert_eq!(highest_tail(&ramp(150)).map(|t| t.0), Some(90.0));
    assert_eq!(highest_tail(&ramp(99)), None);
}

#[test]
fn out_of_range_percentiles_are_refused() {
    assert_eq!(percentile(&ramp(100_000), 100.0), None);
    assert_eq!(percentile(&ramp(100_000), -1.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}
