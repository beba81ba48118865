//! Sample statistics and the benchmark's own seeded input generator.

/// Samples that must lie beyond a reported percentile. A tail percentile
/// read off fewer samples is one or two unlucky requests, not a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`): the smallest sample
/// with at least `q · n` samples at or below it. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (nearest-rank), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Whether `n` samples support the percentile `pct` (e.g. `99.0`): at least
/// [`TAIL_SAMPLES`] samples must lie beyond it, so p99 needs 1000 samples.
pub fn supports(n: usize, pct: f64) -> bool {
    n as f64 * (1.0 - pct / 100.0) >= TAIL_SAMPLES as f64 - 1e-9
}

/// The highest of the usual reporting percentiles that `n` samples support
/// (`None` below 20 samples, where not even the median has ten beyond it).
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// SplitMix64: the benchmark's own input generator, so that the inputs a
/// seed produces never depend on code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7, 1);
        let mut s = Rng::new(7, 2);
        assert_ne!(r.next_u64(), s.next_u64());
        for _ in 0..1000 {
            assert!(r.below(256) < 256);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
