//! Configuration of the sequential and exponential processes.
//!
//! The paper's process has three knobs (Section 3):
//!
//! * the number of queues `n`,
//! * the two-choice probability `β ∈ (0, 1]` (with `β = 0` degenerating into
//!   the divergent single-choice process of Appendix B), and
//! * the insertion bias: queue `i` is chosen with probability `π_i`, where
//!   `1 − γ ≤ 1/(n·π_i) ≤ 1 + γ` for a constant `γ ∈ (0, 1)`.
//!
//! [`ProcessConfig`] is a builder capturing all three plus the RNG seed. The
//! removal rule is the workspace-wide [`ChoiceRule`] — the *same* type the
//! concurrent `choice_pq::MultiQueue` is configured with — so a scenario's
//! theory run and its real-queue run are parameterised by one value. Beyond
//! the paper's three rules, [`ChoiceRule::DChoice`] generalises removals to
//! the best of any `d ≥ 1` sampled queues.

use rank_stats::rng::{RandomSource, SplitMix64};

pub use rank_stats::choice::ChoiceRule;

/// The insertion distribution over queues.
#[derive(Clone, Debug, PartialEq)]
pub enum BiasSpec {
    /// Uniform insertion (`γ = 0`).
    Uniform,
    /// The paper's bounded bias: each `π_i` is drawn once (from the config
    /// seed) uniformly in `[(1 − γ)/n, (1 + γ)/n]` and then normalised, so the
    /// realised bias bound is at most `γ`.
    BoundedRandom {
        /// The bias bound `γ ∈ [0, 1)`.
        gamma: f64,
    },
    /// Explicit per-queue weights (need not sum to one; they are normalised).
    Explicit(Vec<f64>),
}

impl BiasSpec {
    /// Materialises the per-queue insertion probabilities `π_1..π_n`
    /// (summing to 1), using `seed` for the random variants.
    ///
    /// # Panics
    ///
    /// Panics if an explicit weight vector has the wrong length, contains a
    /// negative/non-finite weight, or sums to zero; or if `gamma` is outside
    /// `[0, 1)`.
    pub fn probabilities(&self, n: usize, seed: u64) -> Vec<f64> {
        assert!(n > 0, "need at least one queue");
        match self {
            BiasSpec::Uniform => vec![1.0 / n as f64; n],
            BiasSpec::BoundedRandom { gamma } => {
                assert!(
                    (0.0..1.0).contains(gamma),
                    "gamma must be in [0, 1), got {gamma}"
                );
                let mut rng = SplitMix64::seeded(seed ^ 0xB1A5_B1A5);
                let raw: Vec<f64> = (0..n)
                    .map(|_| {
                        let u = rng.next_u64() as f64 / u64::MAX as f64;
                        (1.0 + gamma * (2.0 * u - 1.0)) / n as f64
                    })
                    .collect();
                normalise(&raw)
            }
            BiasSpec::Explicit(weights) => {
                assert_eq!(weights.len(), n, "need one weight per queue");
                for &w in weights {
                    assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative");
                }
                normalise(weights)
            }
        }
    }

    /// The worst-case bias bound γ realised by the given probability vector:
    /// the smallest γ such that `1 − γ ≤ 1/(n·π_i) ≤ 1 + γ` for every `i`.
    ///
    /// Returns infinity if any probability is zero.
    pub fn realized_gamma(probabilities: &[f64]) -> f64 {
        let n = probabilities.len() as f64;
        probabilities
            .iter()
            .map(|&p| {
                if p <= 0.0 {
                    f64::INFINITY
                } else {
                    (1.0 / (n * p) - 1.0).abs()
                }
            })
            .fold(0.0, f64::max)
    }
}

fn normalise(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "total weight must be positive");
    weights.iter().map(|&w| w / total).collect()
}

/// Full configuration of a sequential / exponential process run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessConfig {
    /// Number of queues `n`.
    pub queues: usize,
    /// Removal rule: which queues a removal samples (β / d). Shared with the
    /// concurrent queue (`choice_pq::MultiQueueConfig::choice`).
    pub choice: ChoiceRule,
    /// Insertion distribution.
    pub bias: BiasSpec,
    /// RNG seed; every run with the same config is identical.
    pub seed: u64,
}

impl ProcessConfig {
    /// Creates a configuration with `queues` queues, two-choice removals,
    /// uniform insertion and a fixed default seed.
    ///
    /// # Panics
    ///
    /// Panics if `queues == 0`.
    pub fn new(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        Self {
            queues,
            choice: ChoiceRule::TwoChoice,
            bias: BiasSpec::Uniform,
            seed: 0xC0FF_EE00,
        }
    }

    /// Sets the two-choice probability β (endpoints normalised to the
    /// single-/two-choice rules).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `[0, 1]`.
    pub fn with_beta(self, beta: f64) -> Self {
        self.with_choice(ChoiceRule::from_beta(beta))
    }

    /// Sets a uniform `d`-choice removal rule.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn with_d(self, d: usize) -> Self {
        self.with_choice(ChoiceRule::uniform(d))
    }

    /// Sets the removal rule directly.
    ///
    /// # Panics
    ///
    /// Panics if the rule is invalid (see [`ChoiceRule::validate`]).
    pub fn with_choice(mut self, choice: ChoiceRule) -> Self {
        choice.validate();
        self.choice = choice;
        self
    }

    /// Uses the paper's bounded-random insertion bias with bound `gamma`.
    pub fn with_bias_gamma(mut self, gamma: f64) -> Self {
        self.bias = BiasSpec::BoundedRandom { gamma };
        self
    }

    /// Uses explicit insertion weights.
    pub fn with_bias_weights(mut self, weights: Vec<f64>) -> Self {
        self.bias = BiasSpec::Explicit(weights);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialises the insertion probability vector of this configuration.
    pub fn insertion_probabilities(&self) -> Vec<f64> {
        self.bias.probabilities(self.queues, self.seed)
    }

    /// The effective β of this configuration (see [`ChoiceRule::beta`]).
    pub fn beta(&self) -> f64 {
        self.choice.beta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_rule_beta_roundtrip() {
        assert_eq!(ChoiceRule::from_beta(0.0), ChoiceRule::SingleChoice);
        assert_eq!(ChoiceRule::from_beta(1.0), ChoiceRule::TwoChoice);
        assert_eq!(ChoiceRule::from_beta(0.5), ChoiceRule::OnePlusBeta(0.5));
        assert_eq!(ChoiceRule::SingleChoice.beta(), 0.0);
        assert_eq!(ChoiceRule::TwoChoice.beta(), 1.0);
        assert_eq!(ChoiceRule::OnePlusBeta(0.25).beta(), 0.25);
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn invalid_beta_panics() {
        let _ = ChoiceRule::from_beta(1.2);
    }

    #[test]
    fn d_choice_config_builder() {
        let cfg = ProcessConfig::new(8).with_d(4);
        assert_eq!(cfg.choice, ChoiceRule::DChoice(4));
        assert_eq!(cfg.beta(), 1.0);
        assert_eq!(ProcessConfig::new(8).with_d(1).beta(), 0.0);
    }

    #[test]
    fn uniform_probabilities_sum_to_one() {
        let p = BiasSpec::Uniform.probabilities(10, 0);
        assert_eq!(p.len(), 10);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| (x - 0.1).abs() < 1e-12));
        assert_eq!(BiasSpec::realized_gamma(&p), 0.0);
    }

    #[test]
    fn bounded_random_respects_gamma() {
        let gamma = 0.3;
        let p = BiasSpec::BoundedRandom { gamma }.probabilities(64, 99);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let realized = BiasSpec::realized_gamma(&p);
        // Normalisation can stretch the bound slightly, but it stays well
        // within 2γ/(1-γ).
        assert!(
            realized <= 2.0 * gamma / (1.0 - gamma) + 1e-9,
            "realised gamma {realized} too large"
        );
        assert!(realized > 0.0, "bias should not be exactly uniform");
    }

    #[test]
    fn bounded_random_is_deterministic_per_seed() {
        let spec = BiasSpec::BoundedRandom { gamma: 0.5 };
        assert_eq!(spec.probabilities(8, 1), spec.probabilities(8, 1));
        assert_ne!(spec.probabilities(8, 1), spec.probabilities(8, 2));
    }

    #[test]
    fn explicit_weights_are_normalised() {
        let p = BiasSpec::Explicit(vec![1.0, 1.0, 2.0]).probabilities(3, 0);
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need one weight per queue")]
    fn explicit_weight_length_mismatch_panics() {
        let _ = BiasSpec::Explicit(vec![1.0]).probabilities(2, 0);
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0, 1)")]
    fn invalid_gamma_panics() {
        let _ = BiasSpec::BoundedRandom { gamma: 1.0 }.probabilities(4, 0);
    }

    #[test]
    fn realized_gamma_handles_zero_probability() {
        assert!(BiasSpec::realized_gamma(&[0.0, 1.0]).is_infinite());
    }

    #[test]
    fn config_builder_chains() {
        let cfg = ProcessConfig::new(16)
            .with_beta(0.5)
            .with_bias_gamma(0.1)
            .with_seed(42);
        assert_eq!(cfg.queues, 16);
        assert_eq!(cfg.beta(), 0.5);
        assert_eq!(cfg.seed, 42);
        let p = cfg.insertion_probabilities();
        assert_eq!(p.len(), 16);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need at least one queue")]
    fn zero_queues_panics() {
        let _ = ProcessConfig::new(0);
    }
}
