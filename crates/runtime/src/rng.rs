//! Seeded pseudo-random number generation without external crates.
//!
//! [`Pcg32`] is the PCG-XSH-RR 64/32 generator (O'Neill 2014): 64-bit LCG
//! state, 32-bit output with a permuted xorshift + rotate. It is seeded
//! through [`SplitMix64`] so that nearby `u64` seeds still land in
//! well-separated streams. The API mirrors the subset of `rand` the
//! workspace used (`seed_from_u64`, `gen_range` over integer and float
//! ranges, `gen_bool`), so swapping the dependency out was a one-line import
//! change at each call site.

use std::ops::Range;

/// SplitMix64 — the canonical stateless seeder (Steele et al., "Fast
/// splittable pseudorandom number generators", OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32: small, fast, statistically solid, and — unlike
/// platform-dependent generators — guaranteed to produce the same stream for
/// the same seed everywhere, which the corpus generators depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MUL: u64 = 6364136223846793005;

impl Pcg32 {
    /// Seed deterministically from a single `u64` (state and stream are both
    /// derived through SplitMix64, matching `rand::SeedableRng`'s shape).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let initstate = sm.next_u64();
        let initseq = sm.next_u64();
        let mut rng = Pcg32 {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(initstate);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits (two 32-bit draws, high word
    /// first).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from a half-open range, like `rand`'s `gen_range`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Unbiased draw in `[0, bound)` by rejection sampling on the widening
    /// 64-bit stream.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample an empty range");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// Scalars [`Pcg32::gen_range`] can draw uniformly.
pub trait UniformSample: Copy + PartialOrd {
    /// One uniform draw from `[lo, hi)`.
    fn sample_uniform(lo: Self, hi: Self, rng: &mut Pcg32) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_uniform(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
    )*};
}

impl_uniform_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

impl UniformSample for f64 {
    fn sample_uniform(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
        lo + rng.next_f64() * (hi - lo)
    }
}

/// Ranges [`Pcg32::gen_range`] can sample from. A single blanket impl (like
/// `rand`'s) so integer-literal ranges infer their type from the call site.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Pcg32) -> T;
}

impl<T: UniformSample> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Pcg32) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_uniform(self.start, self.end, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seed_from_u64(1);
        let mut b = Pcg32::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams suspiciously correlated: {same}/64");
    }

    #[test]
    fn reference_stream_is_pinned() {
        // Pin the exact output so refactors can't silently change every
        // downstream seed-sensitive artifact (the corpus is generated from
        // this stream).
        let mut r = Pcg32::seed_from_u64(0);
        let first: Vec<u32> = (0..4).map(|_| r.next_u32()).collect();
        assert_eq!(
            first,
            vec![0x9064_4221, 0x4618_e85f, 0x8f5b_d9cd, 0xaf2c_0306]
        );
    }

    #[test]
    fn ranges_cover_and_stay_in_bounds() {
        let mut r = Pcg32::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..500 {
            let v = r.gen_range(3..13usize);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|s| *s), "not all values hit: {seen:?}");
        for _ in 0..500 {
            let v = r.gen_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&v));
        }
        for _ in 0..100 {
            let v = r.gen_range(-20..-10i64);
            assert!((-20..-10).contains(&v));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Pcg32::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "0.25 gave {hits}/10000");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn float_draws_are_in_unit_interval() {
        let mut r = Pcg32::seed_from_u64(3);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut r = Pcg32::seed_from_u64(0);
        let _ = r.gen_range(5..5i64);
    }
}
