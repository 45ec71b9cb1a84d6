//! Core balls-into-bins allocation process with pluggable choice rules.

use rank_stats::rng::{RandomSource, Xoshiro256};

pub use rank_stats::choice::ChoiceRule;

/// Summary statistics of a load vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadStats {
    /// Mean load over bins.
    pub mean: f64,
    /// Maximum load.
    pub max: u64,
    /// Minimum load.
    pub min: u64,
    /// Maximum load minus the mean (the "gap" studied by \[30\]).
    pub gap_above_mean: f64,
    /// Mean minus the minimum load.
    pub gap_below_mean: f64,
}

/// A (possibly biased) balls-into-bins insertion process.
#[derive(Clone, Debug)]
pub struct AllocationProcess {
    loads: Vec<u64>,
    rule: ChoiceRule,
    rng: Xoshiro256,
    /// Cumulative insertion probabilities for biased bin selection; empty when
    /// insertion is uniform.
    cumulative_bias: Vec<f64>,
    total: u64,
}

impl AllocationProcess {
    /// Creates a process over `bins` bins with the given choice rule and seed.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if a `DChoice(d)` rule has `d == 0`, or if a
    /// `OnePlusBeta(beta)` rule has `beta` outside `[0, 1]`.
    pub fn new(bins: usize, rule: ChoiceRule, seed: u64) -> Self {
        assert!(bins > 0, "need at least one bin");
        rule.validate();
        Self {
            loads: vec![0; bins],
            rule,
            rng: Xoshiro256::seeded(seed),
            cumulative_bias: Vec::new(),
            total: 0,
        }
    }

    /// Replaces the uniform bin-selection distribution with an explicit one.
    ///
    /// `weights[i]` is proportional to the probability of bin `i` being
    /// *sampled* as a candidate. This models the paper's insertion bias γ.
    ///
    /// # Panics
    ///
    /// Panics if the weight vector length differs from the bin count, if any
    /// weight is negative or non-finite, or if all weights are zero.
    pub fn set_bias(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.loads.len(), "one weight per bin");
        let mut acc = 0.0;
        let mut cumulative = Vec::with_capacity(weights.len());
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for c in &mut cumulative {
            *c /= acc;
        }
        self.cumulative_bias = cumulative;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.loads.len()
    }

    /// Total number of balls inserted so far.
    pub fn total_balls(&self) -> u64 {
        self.total
    }

    /// Current load vector.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    fn sample_bin(&mut self) -> usize {
        if self.cumulative_bias.is_empty() {
            self.rng.next_index(self.loads.len())
        } else {
            let u = self.rng.next_f64();
            self.cumulative_bias
                .partition_point(|&c| c < u)
                .min(self.loads.len() - 1)
        }
    }

    /// Chooses the destination bin for the next ball according to the rule,
    /// without inserting. Exposed so higher-level processes (the labelled
    /// process's round-robin reduction) can reuse the choice logic.
    pub fn choose_destination(&mut self) -> usize {
        match self.rule {
            ChoiceRule::SingleChoice => self.sample_bin(),
            ChoiceRule::DChoice(d) => {
                let mut best = self.sample_bin();
                for _ in 1..d {
                    let candidate = self.sample_bin();
                    if self.loads[candidate] < self.loads[best] {
                        best = candidate;
                    }
                }
                best
            }
            ChoiceRule::OnePlusBeta(beta) => {
                let first = self.sample_bin();
                if self.rng.next_bool(beta) {
                    let second = self.sample_bin();
                    if self.loads[second] < self.loads[first] {
                        second
                    } else {
                        first
                    }
                } else {
                    first
                }
            }
        }
    }

    /// Inserts one ball and returns the bin it landed in.
    pub fn insert(&mut self) -> usize {
        let bin = self.choose_destination();
        self.loads[bin] += 1;
        self.total += 1;
        bin
    }

    /// Inserts `count` balls.
    pub fn insert_many(&mut self, count: u64) {
        for _ in 0..count {
            self.insert();
        }
    }

    /// Computes summary statistics of the current load vector.
    pub fn load_stats(&self) -> LoadStats {
        load_stats(&self.loads)
    }
}

/// Computes [`LoadStats`] for an arbitrary load vector.
pub fn load_stats(loads: &[u64]) -> LoadStats {
    if loads.is_empty() {
        return LoadStats::default();
    }
    let mean = loads.iter().map(|&l| u128::from(l)).sum::<u128>() as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0);
    let min = loads.iter().copied().min().unwrap_or(0);
    LoadStats {
        mean,
        max,
        min,
        gap_above_mean: max as f64 - mean,
        gap_below_mean: mean - min as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conservation_of_balls() {
        let mut p = AllocationProcess::new(10, ChoiceRule::TwoChoice, 1);
        p.insert_many(500);
        assert_eq!(p.total_balls(), 500);
        assert_eq!(p.loads().iter().sum::<u64>(), 500);
        assert_eq!(p.bins(), 10);
    }

    #[test]
    fn two_choice_has_smaller_gap_than_single_choice() {
        let bins = 64;
        let balls = 64 * 200;
        let mut single = AllocationProcess::new(bins, ChoiceRule::SingleChoice, 7);
        let mut double = AllocationProcess::new(bins, ChoiceRule::TwoChoice, 7);
        single.insert_many(balls);
        double.insert_many(balls);
        let gap_single = single.load_stats().gap_above_mean;
        let gap_double = double.load_stats().gap_above_mean;
        // Classic result: single-choice gap ~ sqrt(m/n * log n) (here ~ tens),
        // two-choice gap ~ log log n (a handful). Allow generous slack.
        assert!(
            gap_double * 2.0 < gap_single,
            "two-choice gap {gap_double} should be well below single-choice gap {gap_single}"
        );
        assert!(gap_double <= 6.0, "two-choice gap {gap_double} too large");
    }

    #[test]
    fn one_plus_beta_interpolates_between_rules() {
        let bins = 64;
        let balls = 64 * 200;
        let gap = |beta: f64| {
            let mut p = AllocationProcess::new(bins, ChoiceRule::OnePlusBeta(beta), 11);
            p.insert_many(balls);
            p.load_stats().gap_above_mean
        };
        let g0 = gap(0.0);
        let g_half = gap(0.5);
        let g1 = gap(1.0);
        assert!(
            g1 < g_half,
            "beta=1 gap {g1} should beat beta=0.5 gap {g_half}"
        );
        assert!(
            g_half < g0,
            "beta=0.5 gap {g_half} should beat beta=0 gap {g0}"
        );
    }

    #[test]
    fn beta_zero_equals_single_choice_distributionally() {
        // Not the same random stream, but both should have sizeable gaps.
        let mut a = AllocationProcess::new(32, ChoiceRule::OnePlusBeta(0.0), 3);
        let mut b = AllocationProcess::new(32, ChoiceRule::SingleChoice, 3);
        a.insert_many(3200);
        b.insert_many(3200);
        let ga = a.load_stats().gap_above_mean;
        let gb = b.load_stats().gap_above_mean;
        assert!((ga - gb).abs() < 15.0);
    }

    #[test]
    fn biased_insertion_respects_weights() {
        let mut p = AllocationProcess::new(4, ChoiceRule::SingleChoice, 5);
        p.set_bias(&[8.0, 1.0, 1.0, 0.0]);
        p.insert_many(10_000);
        let loads = p.loads();
        assert_eq!(loads[3], 0, "zero-weight bin must stay empty");
        assert!(
            loads[0] > loads[1] * 5,
            "bin 0 (weight 8) should dominate bin 1 (weight 1): {loads:?}"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per bin")]
    fn bias_length_mismatch_panics() {
        let mut p = AllocationProcess::new(4, ChoiceRule::SingleChoice, 5);
        p.set_bias(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn all_zero_bias_panics() {
        let mut p = AllocationProcess::new(2, ChoiceRule::SingleChoice, 5);
        p.set_bias(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn invalid_beta_panics() {
        let _ = AllocationProcess::new(2, ChoiceRule::OnePlusBeta(1.5), 0);
    }

    #[test]
    #[should_panic(expected = "need at least one bin")]
    fn zero_bins_panics() {
        let _ = AllocationProcess::new(0, ChoiceRule::SingleChoice, 0);
    }

    #[test]
    fn load_stats_of_known_vector() {
        let stats = load_stats(&[2, 4, 6]);
        assert_eq!(stats.mean, 4.0);
        assert_eq!(stats.max, 6);
        assert_eq!(stats.min, 2);
        assert_eq!(stats.gap_above_mean, 2.0);
        assert_eq!(stats.gap_below_mean, 2.0);
        assert_eq!(load_stats(&[]), LoadStats::default());
    }

    #[test]
    fn choice_rule_names() {
        assert_eq!(ChoiceRule::SingleChoice.name(), "single-choice");
        assert_eq!(ChoiceRule::TwoChoice.name(), "2-choice");
        assert_eq!(ChoiceRule::DChoice(4).name(), "4-choice");
        assert_eq!(ChoiceRule::OnePlusBeta(0.5).name(), "(1+0.5)-choice");
    }

    #[test]
    fn determinism_from_seed() {
        let run = |seed| {
            let mut p = AllocationProcess::new(16, ChoiceRule::TwoChoice, seed);
            p.insert_many(1000);
            p.loads().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    proptest! {
        #[test]
        fn prop_total_equals_sum_of_loads(bins in 1usize..40, balls in 0u64..2000, seed in 0u64..100) {
            let mut p = AllocationProcess::new(bins, ChoiceRule::TwoChoice, seed);
            p.insert_many(balls);
            prop_assert_eq!(p.loads().iter().sum::<u64>(), balls);
            prop_assert_eq!(p.total_balls(), balls);
        }

        #[test]
        fn prop_insert_returns_incremented_bin(bins in 1usize..20, seed in 0u64..100) {
            let mut p = AllocationProcess::new(bins, ChoiceRule::OnePlusBeta(0.7), seed);
            let before = p.loads().to_vec();
            let bin = p.insert();
            prop_assert!(bin < bins);
            prop_assert_eq!(p.loads()[bin], before[bin] + 1);
        }
    }
}
