//! MultiQueue session handles and their policy.
//!
//! Registering on a [`MultiQueue`] yields an [`MqHandle`], the owned session
//! object that carries everything thread-local the (1 + β) algorithm needs:
//!
//! * a **private RNG stream**, seeded deterministically from the queue seed
//!   and the handle id (no `thread_local!` lookup on the hot path, and
//!   single-threaded runs replay exactly);
//! * its **insert shard**, `id % shards`, which is every lane on an
//!   unsharded queue;
//! * optional **rank instrumentation**: the Section 5 measurement
//!   methodology (globally coherent timestamps per removal), collected per
//!   handle and merged offline via `rank_stats::inversion::InversionCounter`.
//!
//! Instrumentation is selected per handle through [`HandlePolicy`]. Every
//! insert is published before its call returns.

use std::sync::Arc;
use std::time::Instant;

use choice_obs::LatencySampler;
use rank_stats::inversion::TimestampedRemoval;
use rank_stats::rng::Xoshiro256;

use crate::obs::QueueObs;
use crate::queue::{DrainOutcome, MultiQueue};
use crate::traits::{HandleStats, Key, PqHandle};

/// Per-session behaviour of an [`MqHandle`].
///
/// The default policy (`HandlePolicy::default()`) is the plain paper
/// algorithm without instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlePolicy {
    /// Whether to log every successful removal with a globally coherent
    /// timestamp (drained via [`PqHandle::take_log`]).
    pub instrument: bool,
}

impl HandlePolicy {
    /// Rank-instrumented sessions (Figure 2 methodology).
    pub fn instrumented() -> Self {
        Self { instrument: true }
    }
}

/// An owned session over a [`MultiQueue`], created by
/// [`register`](crate::SharedPq::register) or
/// [`register_with`](MultiQueue::register_with).
#[derive(Debug)]
pub struct MqHandle<'q, V> {
    queue: &'q MultiQueue<V>,
    id: u64,
    policy: HandlePolicy,
    rng: Xoshiro256,
    /// The insert shard this session publishes into (always `0` when the
    /// queue is unsharded).
    shard: usize,
    /// Reusable lane-sample buffer for the configured choice rule.
    scratch: Vec<usize>,
    /// Reusable removal buffer backing [`MqHandle::delete_min_batch`] and
    /// `delete_min`; empty between operations.
    pops: Vec<(Key, V)>,
    /// Reusable `(lane, key, value)` buffer backing
    /// [`PqHandle::insert_all`]; empty between operations.
    drawn: Vec<(usize, Key, V)>,
    /// Timestamped removals when `policy.instrument` is set.
    log: Vec<TimestampedRemoval>,
    stats: HandleStats,
    /// The part of `stats.contended_retries` where every sampled top looked
    /// empty (`mq_sparse_retries_total`).
    sparse_retries: u64,
    /// Sampled latency profiling and the counter fold, present iff the
    /// queue has telemetry attached (see [`MultiQueue::attach_obs`]).
    obs: Option<HandleObs>,
}

/// The handle's share of the queue's telemetry: the per-queue bundle, a
/// private 1-in-N sampler (deterministic, no RNG state), and how much of
/// the handle's counts the queue's counters already hold.
#[derive(Debug)]
struct HandleObs {
    queue_obs: Arc<QueueObs>,
    sampler: LatencySampler,
    /// Operations, lock retries and sparse retries as of the last fold.
    folded: [u64; 3],
}

impl HandleObs {
    /// Adds what the handle counted since the last fold to
    /// `mq_ops_total`, `mq_lock_retries_total` and
    /// `mq_sparse_retries_total`. It runs at the end of every sampled
    /// operation and when the handle drops, so a live handle's counts lag
    /// by fewer than `sample_every` calls and a dropped one's not at all.
    fn fold(&mut self, stats: &HandleStats, sparse_retries: u64) {
        let o = &self.queue_obs;
        let now = [
            stats.operations(),
            stats.contended_retries - sparse_retries,
            sparse_retries,
        ];
        let counters = [&o.ops_total, &o.lock_retries_total, &o.sparse_retries_total];
        for ((counter, now), folded) in counters.into_iter().zip(now).zip(&mut self.folded) {
            counter.add(now - *folded);
            *folded = now;
        }
    }
}

impl<'q, V> MqHandle<'q, V> {
    pub(crate) fn new(
        queue: &'q MultiQueue<V>,
        id: u64,
        rng: Xoshiro256,
        policy: HandlePolicy,
    ) -> Self {
        Self {
            queue,
            id,
            policy,
            rng,
            shard: (id % queue.config().shards as u64) as usize,
            scratch: Vec::with_capacity(queue.config().choice.max_samples().min(1024)),
            pops: Vec::new(),
            drawn: Vec::new(),
            log: Vec::new(),
            stats: HandleStats::default(),
            sparse_retries: 0,
            obs: queue.obs().map(|o| HandleObs {
                queue_obs: Arc::clone(o),
                sampler: LatencySampler::new(o.sample_every()),
                folded: [0; 3],
            }),
        }
    }

    /// Starts a sampled latency measurement: `Some` on every N-th operation
    /// of a telemetry-attached queue, `None` (one branch, no clock read)
    /// otherwise.
    #[inline]
    fn sample_start(&mut self) -> Option<Instant> {
        match &mut self.obs {
            Some(obs) => obs.sampler.tick().then(Instant::now),
            None => None,
        }
    }

    /// Counts one removal attempt's outcome into the handle's stats.
    fn count_removal(&mut self, outcome: &DrainOutcome) {
        self.stats.contended_retries += outcome.contended_retries;
        self.sparse_retries += outcome.sparse_retries;
        if outcome.drained > 0 {
            self.stats.removals += outcome.drained as u64;
        } else {
            self.stats.failed_removals += 1;
            if outcome.observed_empty {
                self.stats.empty_polls += 1;
            }
        }
    }

    /// The id allocated to this handle at registration (dense, starting at 0
    /// per queue). Together with the queue seed it determines the handle's
    /// RNG stream.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The policy this handle was registered with.
    pub fn policy(&self) -> HandlePolicy {
        self.policy
    }

    /// The queue this handle is registered on.
    pub fn queue(&self) -> &'q MultiQueue<V> {
        self.queue
    }

    /// The insert shard this session publishes into: the handle id modulo
    /// the queue's shard count (`0` on unsharded queues).
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl<V: Send> MqHandle<'_, V> {
    /// Removes up to `max` small-keyed entries in one batched operation,
    /// returning them (in ascending key order) as a draining iterator over
    /// the handle's reusable pop buffer.
    ///
    /// The batch refinement: the choice rule samples lanes once, the best
    /// lane is locked **once**, and up to `max` elements are drained under
    /// that single lock — amortising both the random choices and the lock
    /// traffic over the batch. When the sampled lanes are empty the
    /// symmetric steal path scans for the globally best lane, so a
    /// non-empty queue always yields at least one element. Because the
    /// whole batch comes from one lane, rank quality degrades gracefully
    /// with `max` (see `DESIGN.md`, "Choice rules & batching").
    ///
    /// Equivalent to [`PqHandle::delete_min_batch_into`] with a handle-owned
    /// buffer; `delete_min_batch(1)` is observationally identical to
    /// [`PqHandle::delete_min`].
    ///
    /// # Example
    ///
    /// ```
    /// use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
    ///
    /// let queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(1));
    /// let mut session = queue.register();
    /// for key in [5, 1, 4, 2, 3] {
    ///     session.insert(key, key);
    /// }
    /// let keys: Vec<u64> = session.delete_min_batch(3).map(|(k, _)| k).collect();
    /// assert_eq!(keys, vec![1, 2, 3]);
    /// ```
    pub fn delete_min_batch(&mut self, max: usize) -> std::vec::Drain<'_, (Key, V)> {
        debug_assert!(self.pops.is_empty(), "pop buffer leaked between ops");
        let mut pops = std::mem::take(&mut self.pops);
        self.delete_min_batch_into(max, &mut pops);
        self.pops = pops;
        self.pops.drain(..)
    }
}

impl<V: Send> PqHandle<V> for MqHandle<'_, V> {
    fn insert(&mut self, key: Key, value: V) {
        crate::traits::check_key(key);
        self.stats.inserts += 1;
        let start = self.sample_start();
        self.stats.contended_retries +=
            self.queue
                .insert_with(&mut self.rng, self.shard, key, value);
        if let (Some(t0), Some(obs)) = (start, &mut self.obs) {
            obs.queue_obs
                .insert_ns
                .record(t0.elapsed().as_nanos() as u64);
            obs.fold(&self.stats, self.sparse_retries);
        }
    }

    /// Draws every entry's lane as [`insert`](PqHandle::insert) would (one
    /// shard draw), then locks each drawn lane once for all of its entries,
    /// in call order. An entry whose lane loses its `try_lock` takes
    /// `insert`'s own path from there: fresh draws, then a blocking lock.
    /// Uncontended, the RNG stream and every lane's push order equal those
    /// of inserting the entries one by one. A sampled call records its time
    /// per entry.
    fn insert_all(&mut self, items: &mut Vec<(Key, V)>) {
        if items.is_empty() {
            return;
        }
        for &(key, _) in items.iter() {
            crate::traits::check_key(key);
        }
        let count = items.len() as u64;
        self.stats.inserts += count;
        let start = self.sample_start();
        debug_assert!(self.drawn.is_empty(), "drawn buffer leaked between ops");
        for (key, value) in items.drain(..) {
            let lane = self.queue.stride_lane(&mut self.rng, self.shard);
            self.drawn.push((lane, key, value));
        }
        self.stats.contended_retries +=
            self.queue
                .insert_drawn(&mut self.rng, self.shard, &mut self.drawn);
        if let (Some(t0), Some(obs)) = (start, &mut self.obs) {
            obs.queue_obs
                .insert_ns
                .record(t0.elapsed().as_nanos() as u64 / count);
            obs.fold(&self.stats, self.sparse_retries);
        }
    }

    fn delete_min(&mut self) -> Option<(Key, V)> {
        let start = self.sample_start();
        debug_assert!(self.pops.is_empty(), "pop buffer leaked between ops");
        let outcome = self.queue.drain_best_with(
            &mut self.rng,
            &mut self.scratch,
            1,
            &mut self.pops,
            self.policy.instrument.then_some(&mut self.log),
        );
        self.count_removal(&outcome);
        let result = self.pops.pop();
        if let (Some(t0), Some(obs)) = (start, &mut self.obs) {
            obs.queue_obs
                .delete_min_ns
                .record(t0.elapsed().as_nanos() as u64);
            // The shadow rank probe rides the same sampled tick: the clock
            // reads are already paid, the probe adds one relaxed top load
            // per lane (see `MultiQueue::lane_rank_bound`).
            if let Some((key, _)) = &result {
                obs.queue_obs
                    .rank_error
                    .record(self.queue.lane_rank_bound(*key));
            }
            obs.fold(&self.stats, self.sparse_retries);
        }
        result
    }

    fn delete_min_batch_into(&mut self, max: usize, out: &mut Vec<(Key, V)>) -> usize {
        if max == 0 {
            return 0;
        }
        let start = self.sample_start();
        let drained_from = out.len();
        let outcome = self.queue.drain_best_with(
            &mut self.rng,
            &mut self.scratch,
            max,
            out,
            self.policy.instrument.then_some(&mut self.log),
        );
        self.count_removal(&outcome);
        if let (Some(t0), Some(obs)) = (start, &mut self.obs) {
            obs.queue_obs
                .delete_min_batch_ns
                .record(t0.elapsed().as_nanos() as u64);
            // Probe the batch's first (smallest) key: the rest of the batch
            // came from the same lane under the same lock, so its head is
            // the removal the rank bound speaks about.
            if let Some((key, _)) = out.get(drained_from) {
                obs.queue_obs
                    .rank_error
                    .record(self.queue.lane_rank_bound(*key));
            }
            obs.fold(&self.stats, self.sparse_retries);
        }
        outcome.drained
    }

    fn stats(&self) -> HandleStats {
        self.stats
    }

    fn take_log(&mut self) -> Vec<TimestampedRemoval> {
        std::mem::take(&mut self.log)
    }
}

impl<V> Drop for MqHandle<'_, V> {
    /// Folds the counts gathered since the last sampled operation, so the
    /// queue's counters are exact once every handle has dropped.
    fn drop(&mut self) {
        if let Some(obs) = &mut self.obs {
            obs.fold(&self.stats, self.sparse_retries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiQueueConfig;
    use crate::traits::SharedPq;
    use rank_stats::inversion::InversionCounter;

    fn queue(queues: usize, beta: f64) -> MultiQueue<u64> {
        MultiQueue::new(
            MultiQueueConfig::with_queues(queues)
                .with_beta(beta)
                .with_seed(7),
        )
    }

    #[test]
    fn instrumented_policy_logs_every_successful_removal() {
        let q = queue(4, 1.0);
        let mut h = q.register_with(HandlePolicy::instrumented());
        for k in 0..100u64 {
            h.insert(k, k);
        }
        let mut removed = 0;
        while h.delete_min().is_some() {
            removed += 1;
        }
        assert_eq!(removed, 100);
        let log = h.take_log();
        assert_eq!(log.len(), 100);
        // Timestamps are unique and increasing for a single handle.
        assert!(log.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
        // Draining the log leaves it empty.
        assert!(h.take_log().is_empty());
    }

    #[test]
    fn instrumented_logs_feed_the_inversion_counter() {
        let q = queue(8, 1.0);
        let mut h = q.register_with(HandlePolicy::instrumented());
        for k in 0..10_000u64 {
            h.insert(k, k);
        }
        while h.delete_min().is_some() {}
        let mut counter = InversionCounter::new();
        counter.record_all(h.take_log());
        let summary = counter.summarize();
        assert_eq!(summary.removals, 10_000);
        assert!(summary.mean_rank >= 1.0);
        assert!(
            summary.mean_rank < 4.0 * 8.0,
            "sequential instrumented mean rank {} should be O(n)",
            summary.mean_rank
        );
    }

    #[test]
    fn two_instrumented_handles_share_the_queue_clock() {
        let q = queue(4, 0.5);
        let mut a = q.register_with(HandlePolicy::instrumented());
        let mut b = q.register_with(HandlePolicy::instrumented());
        for k in 0..50u64 {
            a.insert(k, k);
        }
        for _ in 0..25 {
            a.delete_min();
            b.delete_min();
        }
        let log_a = a.take_log();
        let log_b = b.take_log();
        assert_eq!(log_a.len() + log_b.len(), 50);
        // Timestamps across the two logs are all distinct.
        let mut stamps: Vec<u64> = log_a
            .iter()
            .chain(log_b.iter())
            .map(|r| r.timestamp)
            .collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 50);
    }

    #[test]
    fn insert_all_on_a_held_single_lane_lands_when_the_holder_releases() {
        // Regression: with every lane held, a multi-entry publish used to
        // busy-spin forever. Once the retry budget is spent the publish
        // blocks on a lane instead, and lands as soon as the holder
        // releases it.
        let q = std::sync::Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(1).with_seed(3),
        ));
        let q2 = std::sync::Arc::clone(&q);
        let locked = std::sync::Arc::new(std::sync::Barrier::new(2));
        let locked2 = std::sync::Arc::clone(&locked);
        let holder = std::thread::spawn(move || {
            q2.with_lane_locked(0, || {
                locked2.wait();
                std::thread::sleep(std::time::Duration::from_millis(50));
            })
        });
        // Publish only once the holder has the lock.
        locked.wait();
        let mut h = q.register();
        let mut entries: Vec<(Key, u64)> = (0..5u64).map(|k| (k, k)).collect();
        h.insert_all(&mut entries);
        assert_eq!(q.approx_len(), 5, "insert_all published every entry");
        assert!(
            h.stats().contended_retries > MultiQueue::<u64>::MAX_RETRIES as u64,
            "every try-lock lost to the holder: {:?}",
            h.stats()
        );
        holder.join().unwrap();
        assert_eq!(q.lane_lengths(), vec![5]);
    }

    #[test]
    fn insert_all_routes_around_a_held_lane() {
        // Lane 0 stays locked by another thread for the whole call: the
        // entries that drew it lose its try_lock and land elsewhere through
        // fresh draws; every other lane takes its entries under one lock.
        let hub = choice_obs::ObsHub::new();
        let mut q = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(4).with_seed(11));
        q.attach_obs(QueueObs::with_sample_every(&hub, "held", 1));
        let q = Arc::new(q);
        let held = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let holder = {
            let (q, held, release) = (Arc::clone(&q), Arc::clone(&held), Arc::clone(&release));
            std::thread::spawn(move || {
                q.with_lane_locked(0, || {
                    held.wait();
                    release.wait();
                })
            })
        };
        held.wait();
        let mut h = q.register();
        let mut entries: Vec<(Key, u64)> = (0..64u64).map(|k| (k, k)).collect();
        h.insert_all(&mut entries);
        let lengths = q.lane_lengths();
        release.wait();
        holder.join().expect("holder thread");
        assert!(entries.is_empty());
        assert_eq!(lengths[0], 0, "the held lane took nothing: {lengths:?}");
        assert_eq!(lengths.iter().sum::<usize>(), 64);
        let stats = h.stats();
        assert_eq!(stats.inserts, 64);
        assert!(stats.contended_retries >= 1, "{stats:?}");
        let snap = hub.metrics().snapshot();
        let labels = [("queue", "held")];
        assert_eq!(snap.counter("mq_ops_total", &labels), Some(64));
        assert_eq!(
            snap.counter("mq_lock_retries_total", &labels),
            Some(stats.contended_retries)
        );
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        out.sort_unstable();
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn batch_delete_logs_every_removal_when_instrumented() {
        let q = queue(4, 1.0);
        let mut h = q.register_with(HandlePolicy::instrumented());
        for k in 0..100u64 {
            h.insert(k, k);
        }
        let mut removed = 0usize;
        let mut out = Vec::new();
        while h.delete_min_batch_into(7, &mut out) > 0 {
            removed = out.len();
        }
        assert_eq!(removed, 100);
        let log = h.take_log();
        assert_eq!(log.len(), 100);
        // One coherent timestamp per removal, in removal order.
        assert!(log.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
        // Logged keys match the popped keys in order.
        assert!(log
            .iter()
            .zip(out.iter())
            .all(|(entry, (key, _))| entry.key == *key));
    }

    #[test]
    fn batch_delete_updates_stats_like_single_deletes() {
        let q = queue(4, 1.0);
        let mut h = q.register();
        for k in 0..10u64 {
            h.insert(k, k);
        }
        let mut out = Vec::new();
        let mut removed = 0u64;
        loop {
            let n = h.delete_min_batch_into(4, &mut out) as u64;
            if n == 0 {
                break;
            }
            removed += n;
        }
        assert_eq!(removed, 10);
        let stats = h.stats();
        assert_eq!(stats.inserts, 10);
        assert_eq!(stats.removals, 10);
        assert_eq!(
            stats.failed_removals, 1,
            "the final empty batch counts once"
        );
        // A zero-sized batch is a no-op, not a failed removal.
        assert_eq!(h.delete_min_batch_into(0, &mut out), 0);
        assert_eq!(h.stats().failed_removals, 1);
    }

    #[test]
    fn empty_polls_count_quiescent_empty_observations() {
        let q = queue(4, 1.0);
        let mut h = q.register();
        // Empty queue: every failed removal is an empty poll, no retries.
        assert_eq!(h.delete_min(), None);
        let mut out = Vec::new();
        assert_eq!(h.delete_min_batch_into(8, &mut out), 0);
        let stats = h.stats();
        assert_eq!(stats.failed_removals, 2);
        assert_eq!(stats.empty_polls, 2);
        assert_eq!(stats.contended_retries, 0);
        // A zero-sized batch is a no-op: neither a failure nor an empty poll.
        assert_eq!(h.delete_min_batch_into(0, &mut out), 0);
        assert_eq!(h.stats().empty_polls, 2);
        // Successful removals never count as empty polls.
        h.insert(1, 1);
        assert_eq!(h.delete_min(), Some((1, 1)));
        assert_eq!(h.stats().empty_polls, 2);
        assert_eq!(h.stats().failed_removals, 2);
    }

    #[test]
    fn contended_retries_count_lost_races_not_emptiness() {
        // One lane, held hostage for a while: the delete must burn its retry
        // budget (counted), then succeed through the blocking steal path —
        // and the failure mode must NOT be reported as emptiness.
        let q = std::sync::Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(1).with_seed(3),
        ));
        {
            let mut h = q.register();
            h.insert(5, 50);
        }
        let q2 = std::sync::Arc::clone(&q);
        let holder = std::thread::spawn(move || {
            q2.with_lane_locked(0, || {
                std::thread::sleep(std::time::Duration::from_millis(80));
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut h = q.register();
        assert_eq!(h.delete_min(), Some((5, 50)));
        holder.join().unwrap();
        let stats = h.stats();
        assert_eq!(stats.removals, 1);
        assert_eq!(stats.empty_polls, 0);
        assert!(
            stats.contended_retries >= 1,
            "the held lane must be visible as contended retries: {stats:?}"
        );
    }

    #[test]
    fn a_handle_reports_its_registration() {
        let q = queue(4, 1.0);
        let h = q.register_with(HandlePolicy::instrumented());
        assert_eq!(h.policy(), HandlePolicy { instrument: true });
        assert_eq!(h.queue().lanes(), 4);
        assert_eq!(h.shard(), 0, "an unsharded queue has one shard");
    }

    #[test]
    fn shard_assignment_is_round_robin() {
        let q =
            MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_shards(4).with_seed(7));
        let shards: Vec<usize> = (0..6).map(|_| q.register().shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1]);
    }
}
