//! Seeded input generation. Every input a workload sends is a pure
//! function of the workload seed (and, for ingest batches, of the graph
//! the batch is drawn against), so the same seed replays the same run.

use cypher_eval::{build_dataset, EvalConfig, EvalItem};
use iyp_data::IypDataset;

/// SplitMix64: small, fast, and good enough to shuffle inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed derived from the workload seed for one named input stream, so
/// streams drawn from one seed stay independent of each other.
pub fn stream_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let mut h = mix(seed ^ 0x6c6f_6164_6265_6e63); // "loadbenc"
    for b in stream.bytes() {
        h = mix(h ^ u64::from(b));
    }
    mix(h ^ index)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// `len` indices into a set of `n` items: back-to-back seeded
/// permutations, so every item recurs once per pass in a fresh order.
pub fn repeated_order(n: usize, seed: u64, stream: &str, len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    let mut pass = 0;
    while out.len() < len && n > 0 {
        out.extend(permutation(n, stream_seed(seed, stream, pass)));
        pass += 1;
    }
    out.truncate(len);
    out
}

/// Due offsets for `rate * secs` requests at a fixed rate: request `k`
/// falls at a seeded uniform point of its slot `[k, k + 1) / rate`, so the
/// rate is exact over any whole number of slots while arrival phases stay
/// independent of any periodic activity in the server.
pub fn slotted_arrivals(rate: f64, secs: f64, seed: u64) -> Vec<std::time::Duration> {
    let mut rng = Rng::new(seed);
    let count = (rate * secs).round().max(1.0) as usize;
    (0..count)
        .map(|k| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            std::time::Duration::from_secs_f64((k as f64 + u) / rate)
        })
        .collect()
}

/// The 312-question CypherEval set every ask-hot run asks (fixed: the
/// workload seed only orders it).
pub fn hot_set(dataset: &IypDataset) -> Vec<EvalItem> {
    build_dataset(dataset, &EvalConfig::default()).items
}

/// A large CypherEval set drawn with the workload seed, asked in cyclic
/// order by ask-cold-fresh. `size` is chosen so its distinct Cypher
/// outnumbers the server's result cache.
pub fn cold_set(dataset: &IypDataset, seed: u64, size: usize) -> Vec<EvalItem> {
    build_dataset(
        dataset,
        &EvalConfig {
            seed: stream_seed(seed, "cold-set", 0),
            target_size: size,
        },
    )
    .items
}

/// The questions that warm ask-cold-fresh up before it is timed: a small
/// CypherEval set with a fixed seed, so every run's set-up does the same
/// work.
pub fn warmup_set(dataset: &IypDataset, size: usize) -> Vec<EvalItem> {
    build_dataset(
        dataset,
        &EvalConfig {
            seed: stream_seed(0, "warm-up", 0),
            target_size: size,
        },
    )
    .items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(100, 7);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_order_covers_each_pass() {
        let o = repeated_order(10, 3, "t", 25);
        assert_eq!(o.len(), 25);
        let mut first: Vec<usize> = o[..10].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..10).collect::<Vec<_>>());
    }
}
