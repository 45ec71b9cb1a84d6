//! MultiQueue session handles and their policies.
//!
//! Registering on a [`MultiQueue`] yields an [`MqHandle`], the owned session
//! object that carries everything thread-local the (1 + β) algorithm needs:
//!
//! * a **private RNG stream**, seeded deterministically from the queue seed
//!   and the handle id (no `thread_local!` lookup on the hot path, and
//!   single-threaded runs replay exactly);
//! * optional **sticky-lane affinity** for inserts (the engineering
//!   refinement of later MultiQueue work: reuse the same lane for a bounded
//!   number of consecutive inserts, trading a little rank quality for fewer
//!   random cache misses);
//! * an optional **insert batch buffer**, published wholesale under a single
//!   lane lock;
//! * built-in **rank instrumentation**: the Section 5 measurement methodology
//!   (globally coherent timestamps per removal), collected per handle and
//!   merged offline via `rank_stats::inversion::InversionCounter`.
//!
//! All of these are selected per handle through [`HandlePolicy`], replacing
//! the former free-standing `InstrumentedHandle` and `StickyHandle` wrapper
//! types.

use std::sync::Arc;
use std::time::Instant;

use choice_obs::LatencySampler;
use rank_stats::inversion::TimestampedRemoval;
use rank_stats::rng::Xoshiro256;

use crate::obs::QueueObs;
use crate::queue::MultiQueue;
use crate::traits::{HandleStats, Key, PqHandle};

/// Per-session behaviour of an [`MqHandle`].
///
/// The default policy (`HandlePolicy::default()`) is the plain paper
/// algorithm: fresh random lane choices every operation, no buffering, no
/// instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlePolicy {
    /// Number of consecutive inserts served from the same sticky lane before
    /// a fresh random lane is chosen. `0` disables stickiness (every insert
    /// picks a fresh random lane, the paper's rule). On a sharded queue the
    /// sticky lane is drawn within the handle's shard.
    pub sticky_ops: usize,
    /// Explicit insert-shard pin for this session (reduced modulo the
    /// queue's shard count). `None` (the default) assigns the shard from the
    /// handle id round-robin — `id % shards` — which spreads a worker pool
    /// evenly. Irrelevant on unsharded queues (`shards == 1`).
    pub shard: Option<usize>,
    /// Insert batch size. `0` or `1` publishes every insert immediately;
    /// larger values buffer up to that many inserts privately and publish
    /// them together under one lane lock. Buffered elements are invisible to
    /// other handles until flushed; `delete_min` on the same handle and
    /// handle drop both flush.
    pub insert_batch: usize,
    /// Whether to log every successful removal with a globally coherent
    /// timestamp (drained via [`PqHandle::take_log`]).
    pub instrument: bool,
}

impl HandlePolicy {
    /// The plain paper algorithm (no stickiness, no batching, no logging).
    pub fn plain() -> Self {
        Self::default()
    }

    /// Rank-instrumented sessions (Figure 2 methodology).
    pub fn instrumented() -> Self {
        Self::default().with_instrumentation(true)
    }

    /// Sets the sticky-lane length (`0` disables).
    pub fn with_sticky_ops(mut self, sticky_ops: usize) -> Self {
        self.sticky_ops = sticky_ops;
        self
    }

    /// Sets the insert batch size (`0`/`1` disable buffering).
    pub fn with_insert_batch(mut self, insert_batch: usize) -> Self {
        self.insert_batch = insert_batch;
        self
    }

    /// Pins the session to an explicit insert shard (reduced modulo the
    /// queue's shard count at registration).
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Enables or disables removal logging.
    pub fn with_instrumentation(mut self, instrument: bool) -> Self {
        self.instrument = instrument;
        self
    }

    fn batches(&self) -> bool {
        self.insert_batch > 1
    }
}

/// An owned session over a [`MultiQueue`], created by
/// [`register`](crate::SharedPq::register) or
/// [`register_with`](MultiQueue::register_with).
///
/// Dropping the handle flushes any privately buffered inserts, so elements
/// can never be lost by ending a session.
#[derive(Debug)]
pub struct MqHandle<'q, V> {
    queue: &'q MultiQueue<V>,
    id: u64,
    policy: HandlePolicy,
    rng: Xoshiro256,
    /// The insert shard this session publishes into (always `0` when the
    /// queue is unsharded).
    shard: usize,
    /// Current sticky insert lane and how many more inserts may use it.
    sticky_lane: usize,
    sticky_left: usize,
    /// Privately buffered inserts (at most `policy.insert_batch`).
    buffer: Vec<(Key, V)>,
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
    /// Sampled latency profiling, present iff the queue has telemetry
    /// attached (see [`MultiQueue::attach_obs`]).
    obs: Option<HandleObs>,
}

/// The handle's share of the queue's telemetry: the per-queue bundle plus a
/// private 1-in-N sampler (deterministic, no RNG state).
#[derive(Debug)]
struct HandleObs {
    queue_obs: Arc<QueueObs>,
    sampler: LatencySampler,
}

impl<'q, V> MqHandle<'q, V> {
    pub(crate) fn new(
        queue: &'q MultiQueue<V>,
        id: u64,
        rng: Xoshiro256,
        policy: HandlePolicy,
    ) -> Self {
        let shards = queue.config().shards;
        let shard = match policy.shard {
            Some(pinned) => pinned % shards,
            None => (id % shards as u64) as usize,
        };
        Self {
            queue,
            id,
            policy,
            rng,
            shard,
            sticky_lane: 0,
            sticky_left: 0,
            // Cap the preallocation: insert_batch is an unvalidated public
            // knob and usize::MAX is the natural "unbounded" spelling; let
            // the buffer grow past 1024 on demand instead of panicking with
            // a capacity overflow at registration.
            buffer: Vec::with_capacity(if policy.batches() {
                policy.insert_batch.min(1024)
            } else {
                0
            }),
            scratch: Vec::with_capacity(queue.config().choice.max_samples().min(1024)),
            pops: Vec::new(),
            drawn: Vec::new(),
            log: Vec::new(),
            stats: HandleStats::default(),
            obs: queue.obs().map(|o| HandleObs {
                queue_obs: Arc::clone(o),
                sampler: LatencySampler::new(o.sample_every()),
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

    /// The insert shard this session publishes into (`0` on unsharded
    /// queues). Pinned by [`HandlePolicy::with_shard`], otherwise assigned
    /// round-robin from the handle id.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of privately buffered (not yet published) inserts.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The lane the next sticky insert would target (diagnostic; meaningful
    /// only when `policy.sticky_ops > 0`).
    pub fn current_insert_lane(&self) -> usize {
        self.sticky_lane
    }

    /// The sticky lane hint for one insert, refreshing it (within the
    /// session's shard) when exhausted.
    fn insert_hint(&mut self) -> Option<usize> {
        if self.policy.sticky_ops == 0 {
            return None;
        }
        if self.sticky_left == 0 {
            self.sticky_lane = self.queue.stride_lane(&mut self.rng, self.shard);
            self.sticky_left = self.policy.sticky_ops;
        }
        self.sticky_left -= 1;
        Some(self.sticky_lane)
    }

    /// Publishes the private buffer; the single flush path shared by
    /// [`PqHandle::flush`] and `Drop` (no `V: Send` bound, which `Drop`
    /// cannot require).
    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let hint = self.insert_hint();
        // Split borrows: buffer, rng and stats are distinct fields.
        let Self {
            queue,
            rng,
            buffer,
            shard,
            stats,
            ..
        } = self;
        stats.contended_retries += queue.insert_batch_with(rng, *shard, hint, buffer);
    }
}

impl<V: Send> MqHandle<'_, V> {
    /// Removes up to `max` small-keyed entries in one batched operation,
    /// returning them (in ascending key order) as a draining iterator over
    /// the handle's reusable pop buffer.
    ///
    /// The batch refinement mirrors insert batching: the choice rule samples
    /// lanes once, the best lane is locked **once**, and up to `max` elements
    /// are drained under that single lock — amortising both the random
    /// choices and the lock traffic over the batch. When the sampled lanes
    /// are empty the symmetric steal path scans for the globally best lane,
    /// so a non-empty queue always yields at least one element. Because the
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
        if self.policy.batches() {
            self.buffer.push((key, value));
            if self.buffer.len() >= self.policy.insert_batch {
                self.flush();
            }
        } else {
            let hint = self.insert_hint();
            self.stats.contended_retries +=
                self.queue
                    .insert_with(&mut self.rng, self.shard, hint, key, value);
        }
        if let (Some(t0), Some(obs)) = (start, &self.obs) {
            obs.queue_obs
                .insert_ns
                .record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Draws every entry's lane as [`insert`](PqHandle::insert) would (the
    /// sticky hint, else one shard draw), then locks each drawn lane once
    /// for all of its entries, in call order. An entry whose lane loses its
    /// `try_lock` takes `insert`'s own path from there: fresh draws, then a
    /// blocking lock. Uncontended, the RNG stream and every lane's push
    /// order equal those of inserting the entries one by one.
    ///
    /// Under an `insert_batch` policy every entry goes through `insert`,
    /// which buffers it. A sampled call records its time per entry.
    fn insert_all(&mut self, items: &mut Vec<(Key, V)>) {
        if self.policy.batches() {
            for (key, value) in items.drain(..) {
                self.insert(key, value);
            }
            return;
        }
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
            let lane = match self.insert_hint() {
                Some(lane) => lane,
                None => self.queue.stride_lane(&mut self.rng, self.shard),
            };
            self.drawn.push((lane, key, value));
        }
        self.stats.contended_retries +=
            self.queue
                .insert_drawn(&mut self.rng, self.shard, &mut self.drawn);
        if let (Some(t0), Some(obs)) = (start, &self.obs) {
            obs.queue_obs
                .insert_ns
                .record(t0.elapsed().as_nanos() as u64 / count);
        }
    }

    fn delete_min(&mut self) -> Option<(Key, V)> {
        let start = self.sample_start();
        // A session always observes its own inserts: publish the private
        // buffer before removing.
        if !self.buffer.is_empty() {
            self.flush();
        }
        debug_assert!(self.pops.is_empty(), "pop buffer leaked between ops");
        let outcome = self.queue.drain_best_with(
            &mut self.rng,
            &mut self.scratch,
            1,
            &mut self.pops,
            self.policy.instrument.then_some(&mut self.log),
        );
        self.stats.contended_retries += outcome.contended_retries;
        let result = self.pops.pop();
        match &result {
            Some(_) => self.stats.removals += 1,
            None => {
                self.stats.failed_removals += 1;
                if outcome.observed_empty {
                    self.stats.empty_polls += 1;
                }
            }
        }
        if let (Some(t0), Some(obs)) = (start, &self.obs) {
            let elapsed = t0.elapsed().as_nanos() as u64;
            obs.queue_obs.delete_min_ns.record(elapsed);
            // The shadow rank probe rides the same sampled tick: the clock
            // reads are already paid, the probe adds one relaxed top load
            // per lane (see `MultiQueue::lane_rank_bound`).
            if let Some((key, _)) = &result {
                obs.queue_obs
                    .rank_error
                    .record(self.queue.lane_rank_bound(*key));
            }
            if let Some(ring) = obs.queue_obs.span_ring() {
                // In-process traced mode: only the queue-op stage carries
                // time. The trace id folds the handle id over the removal
                // count so concurrent sessions stay distinguishable.
                let trace_id = (self.id << 40) | (self.stats.removals & 0xFF_FFFF_FFFF);
                let now_ns = obs.queue_obs.recorder().now_ns();
                ring.record(trace_id, 0, now_ns, [0, 0, 0, elapsed, 0]);
            }
        }
        result
    }

    fn delete_min_batch_into(&mut self, max: usize, out: &mut Vec<(Key, V)>) -> usize {
        if max == 0 {
            return 0;
        }
        let start = self.sample_start();
        if !self.buffer.is_empty() {
            self.flush();
        }
        let drained_from = out.len();
        let outcome = self.queue.drain_best_with(
            &mut self.rng,
            &mut self.scratch,
            max,
            out,
            self.policy.instrument.then_some(&mut self.log),
        );
        self.stats.contended_retries += outcome.contended_retries;
        if let (Some(t0), Some(obs)) = (start, &self.obs) {
            let elapsed = t0.elapsed().as_nanos() as u64;
            obs.queue_obs.delete_min_batch_ns.record(elapsed);
            // Probe the batch's first (smallest) key: the rest of the batch
            // came from the same lane under the same lock, so its head is
            // the removal the rank bound speaks about.
            if let Some((key, _)) = out.get(drained_from) {
                obs.queue_obs
                    .rank_error
                    .record(self.queue.lane_rank_bound(*key));
            }
            if let Some(ring) = obs.queue_obs.span_ring() {
                let trace_id = (self.id << 40) | (self.stats.removals & 0xFF_FFFF_FFFF);
                let now_ns = obs.queue_obs.recorder().now_ns();
                ring.record(trace_id, 0, now_ns, [0, 0, 0, elapsed, 0]);
            }
        }
        if outcome.drained == 0 {
            self.stats.failed_removals += 1;
            if outcome.observed_empty {
                self.stats.empty_polls += 1;
            }
            return 0;
        }
        self.stats.removals += outcome.drained as u64;
        outcome.drained
    }

    fn flush(&mut self) {
        self.flush_buffer();
    }

    fn stats(&self) -> HandleStats {
        self.stats
    }

    fn take_log(&mut self) -> Vec<TimestampedRemoval> {
        std::mem::take(&mut self.log)
    }
}

impl<V> Drop for MqHandle<'_, V> {
    fn drop(&mut self) {
        self.flush_buffer();
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
    fn sticky_handle_round_trips_elements() {
        let q = queue(4, 0.75);
        let mut h = q.register_with(HandlePolicy::default().with_sticky_ops(4));
        for k in 0..200u64 {
            h.insert(k, k);
        }
        assert!(h.current_insert_lane() < 4);
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        out.sort_unstable();
        assert_eq!(out, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn sticky_inserts_land_on_the_sticky_lane() {
        // With stickiness spanning all inserts and no contention, everything
        // lands on one lane — the cache-locality behaviour stickiness buys.
        let q = queue(8, 1.0);
        let mut h = q.register_with(HandlePolicy::default().with_sticky_ops(usize::MAX));
        for k in 0..64u64 {
            h.insert(k, k);
        }
        let lengths = q.lane_lengths();
        assert_eq!(lengths.iter().sum::<usize>(), 64);
        assert_eq!(
            lengths.iter().filter(|&&l| l > 0).count(),
            1,
            "all uncontended sticky inserts should share one lane: {lengths:?}"
        );
    }

    #[test]
    fn batch_buffer_publishes_on_threshold_flush_and_drop() {
        let q = queue(4, 1.0);
        let mut h = q.register_with(HandlePolicy::default().with_insert_batch(8));
        for k in 0..7u64 {
            h.insert(k, k);
        }
        assert_eq!(h.buffered(), 7);
        assert_eq!(q.approx_len(), 0, "buffered inserts are private");
        h.insert(7, 7);
        assert_eq!(h.buffered(), 0, "reaching the batch size publishes");
        assert_eq!(q.approx_len(), 8);

        h.insert(8, 8);
        h.flush();
        assert_eq!(q.approx_len(), 9, "explicit flush publishes");

        h.insert(9, 9);
        drop(h);
        assert_eq!(q.approx_len(), 10, "drop publishes the remainder");
        let mut h = q.register();
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        out.sort_unstable();
        assert_eq!(out, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_flush_and_explicit_flush_choose_the_same_lane() {
        // Regression: Drop used to bypass the sticky-hint refresh and dump
        // the tail batch onto the initial lane 0. Two identically seeded
        // handles, one flushed explicitly and one flushed by drop, must
        // publish to the same lane.
        let policy = HandlePolicy::default()
            .with_sticky_ops(3)
            .with_insert_batch(16);
        let q1 = queue(8, 1.0);
        let q2 = queue(8, 1.0);
        let mut h1 = q1.register_with(policy);
        let mut h2 = q2.register_with(policy);
        for k in 0..5u64 {
            h1.insert(k, k);
            h2.insert(k, k);
        }
        h1.flush();
        drop(h2);
        assert_eq!(q1.approx_len(), 5);
        assert_eq!(q2.approx_len(), 5);
        assert_eq!(
            q1.lane_lengths(),
            q2.lane_lengths(),
            "drop must publish through the same sticky-hint path as flush"
        );
    }

    #[test]
    fn batched_flush_on_a_held_single_lane_lands_when_the_holder_releases() {
        // Regression: with every lane held, insert_batch_with used to
        // busy-spin forever. Once the retry budget is spent the flush
        // blocks on a lane instead, and lands as soon as the holder
        // releases it.
        let q = std::sync::Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(1)
                .with_seed(3)
                .with_max_retries(4),
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
        // Flush only once the holder has the lock.
        locked.wait();
        let mut h = q.register_with(HandlePolicy::default().with_insert_batch(8));
        for k in 0..5u64 {
            h.insert(k, k);
        }
        h.flush();
        assert_eq!(q.approx_len(), 5, "the flush published the whole batch");
        assert!(
            h.stats().contended_retries >= 4,
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
    fn insert_all_buffers_like_inserts_under_an_insert_batch_policy() {
        let policy = HandlePolicy::default()
            .with_insert_batch(8)
            .with_sticky_ops(3);
        let (qa, qb) = (queue(4, 1.0), queue(4, 1.0));
        let mut ha = qa.register_with(policy);
        let mut hb = qb.register_with(policy);
        let mut entries: Vec<(Key, u64)> = (0..13u64).map(|k| (k * 5 % 13, k)).collect();
        for &(key, value) in &entries {
            ha.insert(key, value);
        }
        hb.insert_all(&mut entries);
        assert_eq!(hb.buffered(), 5, "13 entries: one batch of 8 published");
        assert_eq!(ha.buffered(), hb.buffered());
        assert_eq!(qa.lane_lengths(), qb.lane_lengths());
        ha.flush();
        hb.flush();
        assert_eq!(qa.lane_lengths(), qb.lane_lengths());
        assert_eq!(ha.stats(), hb.stats());
        for _ in 0..14 {
            assert_eq!(ha.delete_min(), hb.delete_min());
        }
    }

    #[test]
    fn batch_delete_flushes_the_insert_buffer_first() {
        // A session must observe its own buffered inserts through the batch
        // path too.
        let q = queue(4, 1.0);
        let mut h = q.register_with(HandlePolicy::default().with_insert_batch(64));
        h.insert(1, 10);
        h.insert(2, 20);
        assert_eq!(q.approx_len(), 0, "buffered inserts are private");
        let got: Vec<(u64, u64)> = h.delete_min_batch(8).collect();
        assert!(!got.is_empty());
        assert!(got.contains(&(1, 10)) || got.contains(&(2, 20)));
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
    fn delete_min_observes_the_handles_own_buffer() {
        let q = queue(4, 1.0);
        let mut h = q.register_with(HandlePolicy::default().with_insert_batch(64));
        h.insert(1, 10);
        assert_eq!(q.approx_len(), 0);
        // The buffered element must be visible to this session's removal.
        assert_eq!(h.delete_min(), Some((1, 10)));
        assert_eq!(h.delete_min(), None);
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
            MultiQueueConfig::with_queues(1)
                .with_seed(3)
                .with_max_retries(8),
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
    fn register_policy_honours_the_policy_on_the_multiqueue() {
        use crate::traits::SharedPq;
        let q = queue(4, 1.0);
        let h = q.register_policy(HandlePolicy::default().with_insert_batch(16));
        assert_eq!(h.policy().insert_batch, 16);
    }

    #[test]
    fn policy_builder_combines() {
        let p = HandlePolicy::plain()
            .with_sticky_ops(4)
            .with_insert_batch(16)
            .with_shard(3)
            .with_instrumentation(true);
        assert_eq!(
            p,
            HandlePolicy {
                sticky_ops: 4,
                shard: Some(3),
                insert_batch: 16,
                instrument: true
            }
        );
        let q = queue(4, 1.0);
        let h = q.register_with(p);
        assert_eq!(h.policy(), p);
        assert_eq!(h.queue().lanes(), 4);
        // An unsharded queue reduces every pin to shard 0.
        assert_eq!(h.shard(), 0);
    }

    #[test]
    fn shard_assignment_is_round_robin_unless_pinned() {
        let q =
            MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_shards(4).with_seed(7));
        let a = q.register();
        let b = q.register();
        let c = q.register_with(HandlePolicy::default().with_shard(7));
        assert_eq!(a.shard(), 0);
        assert_eq!(b.shard(), 1);
        assert_eq!(c.shard(), 3, "pins reduce modulo the shard count");
    }
}
