//! Sample summaries: percentiles that refuse to be named on too few
//! samples, means, and the quartile spread used to judge run-to-run noise.

/// How many samples must lie beyond a percentile before it may be named.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles a report tries, highest first.
pub const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// A percentile of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (a p99 needs at least 1000 samples, a p50 at
/// least 20). Nearest-rank on a sorted copy.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !(0.0..100.0).contains(&p) || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest-rank position of `p` among `n` samples (the
/// epsilon keeps `99.9% of 10000` from rounding up to 9991).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank position of `p` in `n`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile in [`TAILS`] that may be named, with its value.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Plain median (average of the middle pair), for small sets such as
/// repeated set-up times where the ten-beyond rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The mean over classes of each class's median: a typical latency for
/// a request mix that one slow or fast class cannot drag far, and that a
/// pooled percentile falling between two classes cannot jump across.
pub fn mean_of_class_medians<K: std::hash::Hash + Eq>(
    samples: impl Iterator<Item = (K, f64)>,
) -> f64 {
    let mut classes: std::collections::HashMap<K, Vec<f64>> = std::collections::HashMap::new();
    for (k, v) in samples {
        classes.entry(k).or_default().push(v);
    }
    mean(&classes.values().map(|v| median(v)).collect::<Vec<_>>())
}

/// Label of a percentile as it appears in metric names: `p50`, `p99`,
/// `p99.9`.
pub fn label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_small_ramp() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
    }

    #[test]
    fn class_medians_ignore_class_sizes_and_outliers() {
        let s = [("a", 1.0), ("a", 1.0), ("a", 100.0), ("b", 3.0)];
        assert_eq!(mean_of_class_medians(s.into_iter()), 2.0);
    }

    #[test]
    fn label_formats() {
        assert_eq!(label(99.0), "p99");
        assert_eq!(label(99.9), "p99.9");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
