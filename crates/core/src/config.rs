//! MultiQueue configuration: sizing, choice rule and sharding.

pub use rank_stats::choice::ChoiceRule;

/// Configuration of a [`MultiQueue`](crate::queue::MultiQueue).
///
/// The paper (following Rihani et al.) sizes the structure as `c` queues per
/// hardware thread with a small constant `c` (2–4); more queues mean less lock
/// contention but weaker rank guarantees (the bounds scale with the total
/// queue count `n`).
///
/// # Example
///
/// ```
/// use choice_pq::{ChoiceRule, MultiQueueConfig};
///
/// // The paper's (1 + β) rule with β = 0.75 …
/// let cfg = MultiQueueConfig::with_queues(8).with_beta(0.75);
/// assert_eq!(cfg.choice, ChoiceRule::OnePlusBeta(0.75));
///
/// // … or any d-choice rule (d = 2 is the plain MultiQueue, the default).
/// let cfg = MultiQueueConfig::with_queues(8).with_d(4);
/// assert_eq!(cfg.label(), "multiqueue(n=8, d=4)");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MultiQueueConfig {
    /// Total number of internal sequential queues `n`, fixed for the
    /// queue's lifetime.
    pub queues: usize,
    /// Number of insert shards the lanes are partitioned into (strided:
    /// shard `s` owns lanes `s, s + shards, …`). The session handle with
    /// id `i` publishes its inserts into shard `i % shards`, while
    /// `delete_min` keeps sampling across *all* lanes. The paper's rank
    /// bounds hold only if the inserting sessions are spread evenly over
    /// the shards (`DESIGN.md` §7.1). `1` (the default) disables sharding.
    pub shards: usize,
    /// The lane-sampling rule used by `delete_min`. The default is the
    /// classic two-choice rule ([`ChoiceRule::TwoChoice`], `d = 2`); the
    /// paper's (1 + β) variants are [`ChoiceRule::OnePlusBeta`], and
    /// [`ChoiceRule::DChoice`] generalises to any number of samples `d ≥ 1`.
    pub choice: ChoiceRule,
    /// Base seed for the per-handle random number generators.
    pub seed: u64,
}

impl MultiQueueConfig {
    /// Queues-per-thread factor used by [`MultiQueueConfig::for_threads`].
    pub const DEFAULT_QUEUES_PER_THREAD: usize = 2;

    /// Creates a configuration with an explicit queue count, the two-choice
    /// rule, and the default seed.
    ///
    /// # Panics
    ///
    /// Panics if `queues == 0`.
    pub fn with_queues(queues: usize) -> Self {
        assert!(queues > 0, "need at least one queue");
        Self {
            queues,
            shards: 1,
            choice: ChoiceRule::TwoChoice,
            seed: 0x5EED_CAFE,
        }
    }

    /// Creates a configuration sized for `threads` worker threads using the
    /// standard `c = 2` queues-per-thread factor.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn for_threads(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self::with_queues(threads * Self::DEFAULT_QUEUES_PER_THREAD)
    }

    /// Creates a configuration sized for `threads` threads with an explicit
    /// queues-per-thread factor `c`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `c == 0`.
    pub fn for_threads_with_factor(threads: usize, c: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(c > 0, "queues-per-thread factor must be positive");
        Self::with_queues(threads * c)
    }

    /// Sets the lane-sampling rule directly.
    ///
    /// # Panics
    ///
    /// Panics if the rule is invalid (see [`ChoiceRule::validate`]).
    pub fn with_choice(mut self, choice: ChoiceRule) -> Self {
        choice.validate();
        self.choice = choice;
        self
    }

    /// Sets the two-choice probability β: the paper's (1 + β) rule, with the
    /// endpoints normalised to [`ChoiceRule::SingleChoice`] / two-choice.
    /// `β = 1` is the original MultiQueue; the paper's experiments show
    /// `β ∈ {0.5, 0.75}` improves throughput by up to 20% at a modest rank
    /// cost.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `[0, 1]`.
    pub fn with_beta(self, beta: f64) -> Self {
        self.with_choice(ChoiceRule::from_beta(beta))
    }

    /// Sets a uniform `d`-choice rule: every `delete_min` samples `d`
    /// distinct lanes and pops from the one with the smallest top.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn with_d(self, d: usize) -> Self {
        self.with_choice(ChoiceRule::uniform(d))
    }

    /// Sets the insert shard count (see [`MultiQueueConfig::shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > queues` (every shard must own at
    /// least one lane).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self.validate();
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the whole value: at least one lane, `1 ≤ shards ≤ queues`,
    /// and a valid choice rule. Every field is public, so `MultiQueue::new`
    /// checks here too, not only the builders.
    pub(crate) fn validate(&self) {
        assert!(self.queues > 0, "need at least one queue");
        assert!(self.shards > 0, "need at least one shard");
        assert!(
            self.shards <= self.queues,
            "shard count {} exceeds the lane count {}",
            self.shards,
            self.queues
        );
        self.choice.validate();
    }

    /// The effective two-choice probability β of the configured rule (see
    /// [`ChoiceRule::beta`]).
    pub fn beta(&self) -> f64 {
        self.choice.beta()
    }

    /// Human-readable label used by the benchmark tables, e.g.
    /// `"multiqueue(n=16, beta=0.75)"`, `"multiqueue(n=16, d=4)"` or
    /// `"multiqueue(n=16, s=2, d=4)"` for a sharded queue.
    pub fn label(&self) -> String {
        let shards = if self.shards > 1 {
            format!(", s={}", self.shards)
        } else {
            String::new()
        };
        format!(
            "multiqueue(n={}{shards}, {})",
            self.queues,
            self.choice.label()
        )
    }
}

impl Default for MultiQueueConfig {
    fn default() -> Self {
        Self::for_threads(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_helpers() {
        assert_eq!(MultiQueueConfig::with_queues(5).queues, 5);
        assert_eq!(MultiQueueConfig::for_threads(4).queues, 8);
        assert_eq!(MultiQueueConfig::for_threads_with_factor(4, 3).queues, 12);
        assert!(MultiQueueConfig::default().queues >= 2);
        assert_eq!(
            MultiQueueConfig::default().choice,
            ChoiceRule::TwoChoice,
            "two-choice is the default rule"
        );
    }

    #[test]
    fn builder_chain() {
        let cfg = MultiQueueConfig::with_queues(8).with_beta(0.5).with_seed(9);
        assert_eq!(cfg.queues, 8);
        assert_eq!(cfg.choice, ChoiceRule::OnePlusBeta(0.5));
        assert_eq!(cfg.beta(), 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.label(), "multiqueue(n=8, beta=0.5)");
    }

    #[test]
    fn beta_endpoints_normalise_to_uniform_rules() {
        assert_eq!(
            MultiQueueConfig::with_queues(2).with_beta(0.0).choice,
            ChoiceRule::SingleChoice
        );
        assert_eq!(
            MultiQueueConfig::with_queues(2).with_beta(1.0).choice,
            ChoiceRule::TwoChoice
        );
    }

    #[test]
    fn d_choice_builder_and_label() {
        let cfg = MultiQueueConfig::with_queues(16).with_d(8);
        assert_eq!(cfg.choice, ChoiceRule::DChoice(8));
        assert_eq!(cfg.beta(), 1.0);
        assert_eq!(cfg.label(), "multiqueue(n=16, d=8)");
        let single = MultiQueueConfig::with_queues(16).with_d(1);
        assert_eq!(single.beta(), 0.0);
    }

    #[test]
    fn shard_builder_and_label() {
        let cfg = MultiQueueConfig::with_queues(16).with_shards(4);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.label(), "multiqueue(n=16, s=4, d=2)");
        assert_eq!(MultiQueueConfig::with_queues(16).shards, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_panics() {
        let _ = MultiQueueConfig::with_queues(4).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "exceeds the lane count")]
    fn more_shards_than_lanes_panics() {
        let _ = MultiQueueConfig::with_queues(4).with_shards(5);
    }

    #[test]
    #[should_panic(expected = "need at least one queue")]
    fn zero_queues_panics() {
        let _ = MultiQueueConfig::with_queues(0);
    }

    #[test]
    #[should_panic(expected = "need at least one thread")]
    fn zero_threads_panics() {
        let _ = MultiQueueConfig::for_threads(0);
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn invalid_beta_panics() {
        let _ = MultiQueueConfig::with_queues(2).with_beta(-0.1);
    }

    #[test]
    #[should_panic(expected = "d must be positive")]
    fn zero_d_panics() {
        let _ = MultiQueueConfig::with_queues(2).with_d(0);
    }

    #[test]
    #[should_panic(expected = "queues-per-thread factor must be positive")]
    fn zero_factor_panics() {
        let _ = MultiQueueConfig::for_threads_with_factor(2, 0);
    }
}
