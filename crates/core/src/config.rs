//! MultiQueue configuration: sizing, choice rule, sharding and elasticity.

pub use rank_stats::choice::ChoiceRule;

/// Runtime resizing policy of an elastic [`MultiQueue`](crate::MultiQueue).
///
/// A static MultiQueue fixes the lane count `n` at construction; the paper's
/// rank bounds scale with `n`, so over-provisioning buys contention headroom
/// with both rank quality and cache locality (sparse lanes mean sampled tops
/// that are usually empty). An *elastic* queue instead keeps `queues` lanes
/// allocated but only a prefix of them **active**, and a cooperative
/// controller — ticked by ordinary operations, no background thread — moves
/// the active count between [`min_lanes`](ElasticPolicy::min_lanes) and the
/// configured capacity based on two live signals:
///
/// * the **lock-contention rate** (try-lock failures per operation, on both
///   the insert and the delete path) — high contention means the active
///   lanes are too few, so the controller *grows*;
/// * the **sparse-sampling rate** (deleteMin samples whose every sampled top
///   looked empty while the structure was not) — high sparseness means
///   elements are spread over more lanes than the load needs, so the
///   controller *shrinks*.
///
/// Hysteresis comes from three guards: growth and shrink thresholds are
/// separated (a gap no rate can sit on both sides of), decisions are made
/// over windows of [`check_interval`](ElasticPolicy::check_interval)
/// operations rather than per-op, and every resize is followed by
/// [`cooldown_checks`](ElasticPolicy::cooldown_checks) windows in which the
/// controller only observes. See `DESIGN.md` §7 for the resize-epoch
/// correctness argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticPolicy {
    /// Floor (and starting value) of the active lane count. Clamped up to
    /// the shard count at queue construction so every shard always owns at
    /// least one active lane.
    pub min_lanes: usize,
    /// Operations between controller decisions (the sampling window).
    pub check_interval: u64,
    /// Grow one step when `lock retries / ops` in the window exceeds this.
    pub grow_threshold: f64,
    /// Shrink one step when `sparse samples / ops` exceeds this **and** the
    /// lock-contention rate sits below half of
    /// [`grow_threshold`](ElasticPolicy::grow_threshold).
    pub shrink_threshold: f64,
    /// Decision windows skipped after every resize (hysteresis).
    pub cooldown_checks: u32,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        Self {
            min_lanes: 2,
            check_interval: 1_024,
            grow_threshold: 0.02,
            shrink_threshold: 0.20,
            cooldown_checks: 1,
        }
    }
}

impl ElasticPolicy {
    /// Sets the active-lane floor.
    ///
    /// # Panics
    ///
    /// Panics if `min_lanes == 0`.
    pub fn with_min_lanes(mut self, min_lanes: usize) -> Self {
        assert!(min_lanes > 0, "need at least one active lane");
        self.min_lanes = min_lanes;
        self
    }

    /// Sets the decision window length in operations.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval == 0`.
    pub fn with_check_interval(mut self, check_interval: u64) -> Self {
        assert!(check_interval > 0, "check interval must be positive");
        self.check_interval = check_interval;
        self
    }

    /// Sets the grow/shrink rate thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless both thresholds are finite and non-negative.
    pub fn with_thresholds(mut self, grow: f64, shrink: f64) -> Self {
        assert!(
            grow.is_finite() && grow >= 0.0 && shrink.is_finite() && shrink >= 0.0,
            "thresholds must be finite and non-negative"
        );
        self.grow_threshold = grow;
        self.shrink_threshold = shrink;
        self
    }

    /// Sets the post-resize cooldown (in decision windows).
    pub fn with_cooldown_checks(mut self, cooldown_checks: u32) -> Self {
        self.cooldown_checks = cooldown_checks;
        self
    }
}

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
    /// Total number of internal sequential queues `n`. For an elastic queue
    /// this is the *capacity* — the maximum active lane count; the live
    /// count moves between [`ElasticPolicy::min_lanes`] and this value.
    pub queues: usize,
    /// Number of insert shards the active lanes are partitioned into
    /// (strided: shard `s` owns active lanes `s, s + shards, …`). Each
    /// session handle holds affinity to one shard and publishes its inserts
    /// there — sticky-lane generalised to sticky-shard — while `delete_min`
    /// keeps sampling across *all* active lanes, so the paper's rank
    /// argument is untouched. `1` (the default) disables sharding.
    pub shards: usize,
    /// Elastic resizing policy; `None` (the default) keeps every lane
    /// active forever (the static paper structure).
    pub elastic: Option<ElasticPolicy>,
    /// The lane-sampling rule used by `delete_min`. The default is the
    /// classic two-choice rule ([`ChoiceRule::TwoChoice`], `d = 2`); the
    /// paper's (1 + β) variants are [`ChoiceRule::OnePlusBeta`], and
    /// [`ChoiceRule::DChoice`] generalises to any number of samples `d ≥ 1`.
    pub choice: ChoiceRule,
    /// Base seed for the per-handle random number generators.
    pub seed: u64,
    /// Maximum number of try-lock failures tolerated in one operation before
    /// falling back to a blocking lock acquisition (prevents livelock on
    /// heavily oversubscribed machines).
    pub max_retries: usize,
    /// Contended-retry count at (or above) which a publish records a
    /// `LaneContention` flight-recorder event, whichever lane took the
    /// element. The blocking floor-lane fallback always records one; this
    /// threshold makes contention that fresh lane draws absorbed (failed
    /// try-locks followed by a successful one) visible to the flight
    /// recorder too, not just to the elastic controller's rate window.
    pub contention_event_threshold: u64,
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
        assert!(
            queues <= u32::MAX as usize,
            "lane count must fit the packed lane table"
        );
        Self {
            queues,
            shards: 1,
            elastic: None,
            choice: ChoiceRule::TwoChoice,
            seed: 0x5EED_CAFE,
            max_retries: 64,
            contention_event_threshold: 4,
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
    /// least one lane at full capacity).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= self.queues,
            "shard count {shards} exceeds the lane capacity {}",
            self.queues
        );
        self.shards = shards;
        self
    }

    /// Enables elastic lane resizing with the given policy (see
    /// [`ElasticPolicy`]).
    pub fn with_elastic(mut self, policy: ElasticPolicy) -> Self {
        self.elastic = Some(policy);
        self
    }

    /// The always-active lane floor: `max(policy.min_lanes, shards)` for an
    /// elastic queue (every shard keeps at least one active lane), the full
    /// capacity for a static one. Lanes below this index are never retired,
    /// which the blocking fallback paths rely on.
    pub fn min_active_lanes(&self) -> usize {
        match &self.elastic {
            Some(policy) => policy.min_lanes.max(self.shards).min(self.queues),
            None => self.queues,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the try-lock retry limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_retries == 0`.
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        assert!(max_retries > 0, "retry limit must be positive");
        self.max_retries = max_retries;
        self
    }

    /// Sets the contended-retry count at which a publish records a
    /// `LaneContention` event (see
    /// [`contention_event_threshold`](MultiQueueConfig::contention_event_threshold)).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (every publish would record an event,
    /// flooding the flight recorder).
    pub fn with_contention_event_threshold(mut self, threshold: u64) -> Self {
        assert!(threshold > 0, "contention event threshold must be positive");
        self.contention_event_threshold = threshold;
        self
    }

    /// The effective two-choice probability β of the configured rule (see
    /// [`ChoiceRule::beta`]).
    pub fn beta(&self) -> f64 {
        self.choice.beta()
    }

    /// Human-readable label used by the benchmark tables, e.g.
    /// `"multiqueue(n=16, beta=0.75)"`, `"multiqueue(n=16, d=4)"` or
    /// `"multiqueue(n=4..16, s=2, d=4)"` for an elastic sharded queue.
    pub fn label(&self) -> String {
        let lanes = match &self.elastic {
            Some(_) => format!("n={}..{}", self.min_active_lanes(), self.queues),
            None => format!("n={}", self.queues),
        };
        let shards = if self.shards > 1 {
            format!(", s={}", self.shards)
        } else {
            String::new()
        };
        format!("multiqueue({lanes}{shards}, {})", self.choice.label())
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
        let cfg = MultiQueueConfig::with_queues(8)
            .with_beta(0.5)
            .with_seed(9)
            .with_max_retries(16);
        assert_eq!(cfg.queues, 8);
        assert_eq!(cfg.choice, ChoiceRule::OnePlusBeta(0.5));
        assert_eq!(cfg.beta(), 0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_retries, 16);
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
    fn shard_and_elastic_builders() {
        let cfg = MultiQueueConfig::with_queues(16)
            .with_shards(4)
            .with_elastic(ElasticPolicy::default().with_min_lanes(2));
        assert_eq!(cfg.shards, 4);
        // The floor is clamped up to the shard count.
        assert_eq!(cfg.min_active_lanes(), 4);
        assert_eq!(cfg.label(), "multiqueue(n=4..16, s=4, d=2)");
        // A static config's floor is the full capacity.
        assert_eq!(MultiQueueConfig::with_queues(8).min_active_lanes(), 8);
        // The floor never exceeds the capacity.
        let wide = MultiQueueConfig::with_queues(4)
            .with_elastic(ElasticPolicy::default().with_min_lanes(100));
        assert_eq!(wide.min_active_lanes(), 4);
    }

    #[test]
    fn elastic_policy_builders_chain() {
        let p = ElasticPolicy::default()
            .with_min_lanes(3)
            .with_check_interval(512)
            .with_thresholds(0.1, 0.4)
            .with_cooldown_checks(5);
        assert_eq!(p.min_lanes, 3);
        assert_eq!(p.check_interval, 512);
        assert_eq!(p.grow_threshold, 0.1);
        assert_eq!(p.shrink_threshold, 0.4);
        assert_eq!(p.cooldown_checks, 5);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_panics() {
        let _ = MultiQueueConfig::with_queues(4).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "exceeds the lane capacity")]
    fn more_shards_than_lanes_panics() {
        let _ = MultiQueueConfig::with_queues(4).with_shards(5);
    }

    #[test]
    #[should_panic(expected = "need at least one active lane")]
    fn zero_min_lanes_panics() {
        let _ = ElasticPolicy::default().with_min_lanes(0);
    }

    #[test]
    #[should_panic(expected = "check interval must be positive")]
    fn zero_check_interval_panics() {
        let _ = ElasticPolicy::default().with_check_interval(0);
    }

    #[test]
    #[should_panic(expected = "thresholds must be finite")]
    fn nan_thresholds_panic() {
        let _ = ElasticPolicy::default().with_thresholds(f64::NAN, 0.1);
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
    #[should_panic(expected = "retry limit must be positive")]
    fn zero_retries_panics() {
        let _ = MultiQueueConfig::with_queues(2).with_max_retries(0);
    }

    #[test]
    fn contention_event_threshold_builder() {
        assert_eq!(
            MultiQueueConfig::with_queues(2).contention_event_threshold,
            4
        );
        let cfg = MultiQueueConfig::with_queues(2).with_contention_event_threshold(1);
        assert_eq!(cfg.contention_event_threshold, 1);
    }

    #[test]
    #[should_panic(expected = "contention event threshold must be positive")]
    fn zero_contention_event_threshold_panics() {
        let _ = MultiQueueConfig::with_queues(2).with_contention_event_threshold(0);
    }

    #[test]
    #[should_panic(expected = "queues-per-thread factor must be positive")]
    fn zero_factor_panics() {
        let _ = MultiQueueConfig::for_threads_with_factor(2, 0);
    }
}
