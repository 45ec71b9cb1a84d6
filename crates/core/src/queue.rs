//! The concurrent (1 + β) MultiQueue, with optional insert shards.
//!
//! # Lanes and shards
//!
//! The queue allocates `config.queues` lanes at construction and keeps every
//! one of them for its lifetime: the lane count `n` of the paper's rank
//! bounds is fixed. The lanes are partitioned into `config.shards` *insert
//! shards* by stride (shard `s` owns lanes `s, s + shards, …`), and
//! [`with_shards`](MultiQueueConfig::with_shards) refuses more shards than
//! lanes, so every shard owns at least one lane.
//!
//! The handle with id `i` publishes its inserts into shard `i % shards`
//! while `delete_min` samples across **all** lanes. Where inserts land is
//! part of the paper's rank argument, so its bounds hold on a sharded
//! queue only when the inserting sessions are spread evenly over the
//! shards; one inserting session fills one shard and leaves the other
//! shards' lanes empty. See `DESIGN.md` §7.1.

use crate::sync::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use rank_stats::inversion::TimestampedRemoval;
use rank_stats::rng::{RandomSource, SplitMix64, Xoshiro256};
use seq_pq::{BinaryHeap, SequentialPriorityQueue};

use crate::config::MultiQueueConfig;
use crate::handle::{HandlePolicy, MqHandle};
use crate::lane::{Lane, EMPTY_TOP};
use crate::obs::QueueObs;
use crate::traits::{Key, QueueTopology, SharedPq};
use std::sync::Arc;

/// What one [`MultiQueue::drain_best_with`] call did, beyond the drained
/// elements themselves: the retry accounting the handle layer turns into
/// [`HandleStats`](crate::HandleStats) counters (and, through them, into
/// the attached [`QueueObs`]'s retry counters).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DrainOutcome {
    /// Number of elements appended to the caller's buffer.
    pub drained: usize,
    /// Retry-loop iterations lost to contention or peek/lock races (the
    /// total the handle layer reports; includes `sparse_retries`).
    pub contended_retries: u64,
    /// Subset of `contended_retries` where every *sampled* top looked empty
    /// while the structure was not (the elements sat in unsampled lanes);
    /// it feeds `mq_sparse_retries_total`, the rest of the retries
    /// `mq_lock_retries_total`.
    pub sparse_retries: u64,
    /// Whether a zero-element result came from a quiescent-empty observation
    /// (the summed lane lengths read as zero — after every sampled top
    /// looked empty, or after an exhaustive steal scan found every lane
    /// empty) rather than from lost races.
    pub observed_empty: bool,
}

/// The relaxed concurrent priority queue of the paper.
///
/// All operations go through registered session handles
/// ([`register`](SharedPq::register) /
/// [`register_with`](MultiQueue::register_with)); each handle owns a private
/// RNG stream seeded deterministically from the queue seed and the handle's
/// id, so runs are reproducible and the hot path performs no thread-local
/// lookups.
///
/// See the [crate-level documentation](crate) for the algorithm; see
/// [`MultiQueueConfig`] for sizing, the choice rule (β / d) and sharding.
///
/// # Example
///
/// ```
/// use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
///
/// // Four lanes, 4-choice deleteMin, batched removals.
/// let queue = MultiQueue::<&'static str>::new(MultiQueueConfig::with_queues(4).with_d(4));
/// let mut session = queue.register();
/// session.insert(2, "b");
/// session.insert(1, "a");
/// session.insert(3, "c");
/// // Drain a batch of up to 8 under a single lane lock.
/// let batch: Vec<_> = session.delete_min_batch(8).collect();
/// assert!(!batch.is_empty());
/// assert!(queue.approx_len() < 3);
/// ```
#[derive(Debug)]
pub struct MultiQueue<V> {
    lanes: Vec<CachePadded<Lane<V>>>,
    /// Monotonic id source for registered handles.
    next_handle_id: AtomicU64,
    /// Coherent timestamp source for rank instrumentation (Section 5
    /// methodology); shared by every instrumented handle of this queue.
    clock: AtomicU64,
    /// Telemetry bundle, attached before the queue is shared
    /// ([`MultiQueue::attach_obs`]). `None` (the default) keeps the hot path
    /// telemetry-free apart from one branch.
    obs: Option<Arc<QueueObs>>,
    config: MultiQueueConfig,
}

impl<V> MultiQueue<V> {
    /// Creates an empty MultiQueue with `config.queues` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `queues ≥ 1`, `1 ≤ shards ≤ queues` and the choice rule
    /// is valid (see [`ChoiceRule::validate`](crate::ChoiceRule::validate)):
    /// the fields are public, so a struct literal can skip the builders'
    /// checks.
    pub fn new(config: MultiQueueConfig) -> Self {
        config.validate();
        let lanes = (0..config.queues)
            .map(|_| CachePadded::new(Lane::new()))
            .collect();
        Self {
            lanes,
            next_handle_id: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            obs: None,
            config,
        }
    }

    /// Attaches a telemetry bundle. Must be called before the queue is
    /// shared (it takes `&mut self`); sessions registered afterwards also
    /// sample operation latency at the bundle's stride.
    pub fn attach_obs(&mut self, obs: Arc<QueueObs>) {
        self.obs = Some(obs);
    }

    /// The attached telemetry bundle, if any.
    pub fn obs(&self) -> Option<&Arc<QueueObs>> {
        self.obs.as_ref()
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &MultiQueueConfig {
        &self.config
    }

    /// Number of internal lanes (the paper's `n`).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of handles registered so far (never decreases; dropped handles
    /// do not return their id).
    pub fn registered_handles(&self) -> u64 {
        self.next_handle_id.load(Ordering::Relaxed)
    }

    /// The cached top key of every lane (`None` for empty lanes); a
    /// diagnostic snapshot, not linearizable.
    pub fn lane_tops(&self) -> Vec<Option<Key>> {
        self.lanes
            .iter()
            .map(|l| {
                let t = l.top();
                if t == EMPTY_TOP {
                    None
                } else {
                    Some(t)
                }
            })
            .collect()
    }

    /// Per-lane element counts, as each lane's last lock holder published
    /// them: exact when the structure is quiescent (tests and diagnostics).
    pub fn lane_lengths(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.len()).collect()
    }

    /// A zero-lock bound on the *lane rank* of `key`: one plus the number of
    /// lanes whose cached top is strictly smaller. This is the live
    /// counterpart of the paper's rank error (each counted lane holds at
    /// least one element smaller than `key`, so the value lower-bounds the
    /// element rank while upper-bounding the count of lanes a perfect
    /// `delete_min` would have preferred — the quantity the (1 + β) analysis
    /// bounds at O(n)).
    ///
    /// The probe reads the same cached lane tops `delete_min` samples: one
    /// relaxed top load per lane, no lane locks. Races bias the estimate
    /// *conservatively* for a just-removed `key`: a stale-low top belongs
    /// to a not-yet-linearized removal (its element genuinely coexisted
    /// with the removal and counts), and a not-yet-published insert is
    /// absent from the estimate exactly as it was absent from the queue
    /// (DESIGN.md §12 spells out the bias argument).
    pub fn lane_rank_bound(&self, key: Key) -> u64 {
        let mut better = 0u64;
        for lane in &self.lanes {
            let top = lane.top();
            if top != EMPTY_TOP && top < key {
                better += 1;
            }
        }
        1 + better
    }

    /// Runs `f` while holding the lock of lane `index`. Used by tests to
    /// inject the "stalled thread holding a lane" pathology discussed in
    /// Appendix C of the paper and check that other operations stay correct.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_lane_locked<R>(&self, index: usize, f: impl FnOnce() -> R) -> R {
        let _guard = self.lanes[index].lock();
        f()
    }

    /// Opens a session with an explicit [`HandlePolicy`].
    ///
    /// The handle's RNG stream is seeded deterministically from the queue
    /// seed and the allocated handle id, so a single-threaded run with the
    /// same seed and registration order replays exactly.
    pub fn register_with(&self, policy: HandlePolicy) -> MqHandle<'_, V> {
        let id = self.next_handle_id.fetch_add(1, Ordering::Relaxed);
        MqHandle::new(self, id, self.handle_rng(id), policy)
    }

    /// The deterministic per-handle RNG: queue seed and handle id mixed
    /// through SplitMix64 into a full Xoshiro256 state.
    fn handle_rng(&self, id: u64) -> Xoshiro256 {
        let mut mixer = SplitMix64::seeded(
            self.config
                .seed
                .wrapping_add((id ^ 0xA5A5_5A5A_F00D_CAFE).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        Xoshiro256::seeded(mixer.next_u64())
    }

    /// Draws a coherent removal timestamp (instrumented handles).
    pub(crate) fn next_timestamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// A random lane of `shard` (strided shard layout). With one shard this
    /// is a uniform draw over every lane, bit-compatible with the
    /// pre-sharding engine's streams.
    #[inline]
    pub(crate) fn stride_lane(&self, rng: &mut Xoshiro256, shard: usize) -> usize {
        let (lanes, shards) = (self.lanes.len(), self.config.shards);
        if shards == 1 {
            return rng.next_index(lanes);
        }
        debug_assert!(shard < shards, "shard out of range");
        let in_shard = (lanes - shard).div_ceil(shards);
        shard + shards * rng.next_index(in_shard)
    }

    /// Try-lock failures one operation tolerates before it falls back to a
    /// blocking lock (insert) or the steal scan (removal), so a heavily
    /// oversubscribed machine cannot livelock.
    pub const MAX_RETRIES: usize = 64;

    /// Contended-retry count at (or above) which a publish records a
    /// `LaneContention` flight-recorder event, whichever lane took the
    /// element. The blocking fallback always records one; this threshold
    /// makes contention that fresh lane draws absorbed (failed try-locks
    /// followed by a successful one) visible to the flight recorder too.
    pub(crate) const CONTENTION_EVENT_THRESHOLD: u64 = 4;

    /// Records a `LaneContention` event for a publish that blocked or lost
    /// at least [`CONTENTION_EVENT_THRESHOLD`](Self::CONTENTION_EVENT_THRESHOLD)
    /// try-locks.
    fn note_contention(&self, lane: usize, lock_retries: u64, fell_back: bool) {
        if let Some(obs) = &self.obs {
            if fell_back || lock_retries >= Self::CONTENTION_EVENT_THRESHOLD {
                obs.on_lane_contention(lane, lock_retries);
            }
        }
    }

    /// Inserts `(key, value)` into the handle's shard: random shard lanes,
    /// then a blocking lock on one more random shard lane once the retry
    /// budget is exhausted (heavy oversubscription). A lane whose lock is
    /// taken costs one contended retry and a fresh draw — the paper's rule.
    /// Returns the contended-retry count for
    /// [`HandleStats`](crate::HandleStats).
    // The inline hints here and on `stride_lane` keep both inlined into
    // `insert`, as they were while `insert` was their only caller: without
    // them `insert_drawn`'s fallback call sites left them out of line, and
    // the all-insert `mq_pairs` set-up measured 7–12 % slower.
    #[inline]
    pub(crate) fn insert_with(
        &self,
        rng: &mut Xoshiro256,
        shard: usize,
        key: Key,
        value: V,
    ) -> u64 {
        debug_assert!(key != EMPTY_TOP, "keys are validated at the handle layer");
        let mut lock_retries = 0u64;
        let (lane, fell_back) = 'published: {
            for _ in 0..Self::MAX_RETRIES {
                let q = self.stride_lane(rng, shard);
                if let Some(mut guard) = self.lanes[q].try_lock() {
                    guard.push(key, value);
                    break 'published (q, false);
                }
                lock_retries += 1;
            }
            let q = self.stride_lane(rng, shard);
            self.lanes[q].lock().push(key, value);
            (q, true)
        };
        self.note_contention(lane, lock_retries, fell_back);
        lock_retries
    }

    /// Publishes `(lane, key, value)` entries whose lanes the handle has
    /// already drawn, taking each drawn lane's lock once for all of its
    /// entries (pushed in call order: the sort is stable). A lane whose
    /// `try_lock` is lost counts one contended retry, and each of its
    /// entries then goes through [`insert_with`](Self::insert_with) with
    /// fresh draws. Leaves `drawn` empty and returns the contended-retry
    /// count.
    pub(crate) fn insert_drawn(
        &self,
        rng: &mut Xoshiro256,
        shard: usize,
        drawn: &mut Vec<(usize, Key, V)>,
    ) -> u64 {
        drawn.sort_by_key(|&(lane, _, _)| lane);
        let mut retries = 0u64;
        let mut entries = drawn.drain(..).peekable();
        while let Some((lane, key, value)) = entries.next() {
            if let Some(mut guard) = self.lanes[lane].try_lock() {
                guard.push(key, value);
                while let Some((_, key, value)) = entries.next_if(|e| e.0 == lane) {
                    guard.push(key, value);
                }
                continue;
            }
            retries += 1 + self.insert_with(rng, shard, key, value);
            while let Some((_, key, value)) = entries.next_if(|e| e.0 == lane) {
                retries += self.insert_with(rng, shard, key, value);
            }
        }
        retries
    }

    /// Picks the victim lane for one deleteMin attempt following the
    /// configured [`ChoiceRule`](crate::ChoiceRule), using only the cached
    /// tops (no locks are taken, exactly like the original MultiQueue's
    /// unsynchronised peek). `scratch` is the caller's reusable sample
    /// buffer.
    fn choose_victim(&self, rng: &mut Xoshiro256, scratch: &mut Vec<usize>) -> Option<usize> {
        self.config
            .choice
            .choose_by_key(rng, self.lanes.len(), scratch, |lane| {
                let top = self.lanes[lane].top();
                (top != EMPTY_TOP).then_some(top)
            })
    }

    /// The lanes' published lengths, summed: exact when the structure is
    /// quiescent.
    fn len_sum(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// The core removal step shared by `delete_min` and `delete_min_batch`:
    /// repeated choice-rule attempts, then a single lane lock under which up
    /// to `max` elements are drained (appended to `out`), then the
    /// deterministic steal fallback so the structure can always be emptied.
    /// Every drained element comes from one lane, so one lock acquisition
    /// and one random choice are amortised over the whole batch.
    ///
    /// The returned [`DrainOutcome`] carries, besides the drain count, the
    /// retry accounting the handle layer folds into
    /// [`HandleStats`](crate::HandleStats): how many retry-loop iterations
    /// were lost to contention or peek/lock races (with the sparse-sample
    /// subset broken out), and whether a zero-element result came from a
    /// *quiescent-empty observation* (the summed lane lengths read as zero
    /// once every sampled top looked empty, or after the exhaustive locked
    /// steal scan found nothing) — the distinction schedulers need between
    /// "no work exists" and "work exists but this attempt lost races".
    ///
    /// When `log` is set (instrumented sessions), every drained element is
    /// stamped with a coherent queue timestamp **while the lane lock is
    /// held**, so the recorded removal order is the order the removals took
    /// effect — concurrent batches cannot interleave inside each other's
    /// logs.
    pub(crate) fn drain_best_with(
        &self,
        rng: &mut Xoshiro256,
        scratch: &mut Vec<usize>,
        max: usize,
        out: &mut Vec<(Key, V)>,
        mut log: Option<&mut Vec<TimestampedRemoval>>,
    ) -> DrainOutcome {
        debug_assert!(
            max > 0,
            "the handle layer answers a zero-sized batch itself"
        );
        let mut contended_retries = 0u64;
        let mut sparse_retries = 0u64;
        for _ in 0..Self::MAX_RETRIES {
            let Some(victim) = self.choose_victim(rng, scratch) else {
                if self.len_sum() == 0 {
                    return DrainOutcome {
                        drained: 0,
                        contended_retries,
                        sparse_retries,
                        observed_empty: true,
                    };
                }
                // Every sampled top looked empty while the structure was not:
                // the elements live in unsampled lanes. Retry with fresh
                // samples.
                contended_retries += 1;
                sparse_retries += 1;
                continue;
            };
            let Some(mut guard) = self.lanes[victim].try_lock() else {
                // Lock contention: restart the whole operation (paper's rule).
                contended_retries += 1;
                continue;
            };
            let drained = self.drain_heap(&mut guard, max, out, log.as_deref_mut());
            if drained > 0 {
                return DrainOutcome {
                    drained,
                    contended_retries,
                    sparse_retries,
                    observed_empty: false,
                };
            }
            // The lane was emptied between the peek and the lock; retry.
            contended_retries += 1;
        }
        // Retry budget exhausted: fall back to a deterministic steal so the
        // structure can always be drained (needed for termination in Dijkstra
        // and in the drain phase of benchmarks).
        let drained = self.steal_best(max, out, log);
        DrainOutcome {
            drained,
            contended_retries,
            sparse_retries,
            // The steal scan locked every lane and found nothing; an insert
            // can still land on an already-scanned lane, so the summed
            // lengths must corroborate the emptiness claim.
            observed_empty: drained == 0 && self.len_sum() == 0,
        }
    }

    /// Pops up to `max` elements off a locked lane heap into `out`,
    /// timestamping each into `log` when instrumented (the caller holds the
    /// lane lock, making the stamps coherent with the drain).
    fn drain_heap(
        &self,
        heap: &mut BinaryHeap<V>,
        max: usize,
        out: &mut Vec<(Key, V)>,
        mut log: Option<&mut Vec<TimestampedRemoval>>,
    ) -> usize {
        let mut drained = 0;
        while drained < max {
            match heap.pop() {
                Some((key, value)) => {
                    if let Some(log) = log.as_deref_mut() {
                        log.push(TimestampedRemoval::new(self.next_timestamp(), key));
                    }
                    out.push((key, value));
                    drained += 1;
                }
                None => break,
            }
        }
        drained
    }

    /// The steal path, symmetric to the sampled drain: scans every lane and
    /// drains up to `max` elements from the one with the globally smallest
    /// top (falling through to the other lanes if it empties under foot).
    /// Linear in the lane count; only used when the sampled lanes keep
    /// coming up empty or contended.
    fn steal_best(
        &self,
        max: usize,
        out: &mut Vec<(Key, V)>,
        mut log: Option<&mut Vec<TimestampedRemoval>>,
    ) -> usize {
        // First pass without locks to find a candidate ordering cheaply.
        let mut best: Option<(Key, usize)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            let t = lane.top();
            if t != EMPTY_TOP && best.is_none_or(|(bk, _)| t < bk) {
                best = Some((t, i));
            }
        }
        // Try the candidate first, then every other lane.
        let order: Vec<usize> = match best {
            Some((_, i)) => std::iter::once(i)
                .chain((0..self.lanes.len()).filter(move |&j| j != i))
                .collect(),
            None => (0..self.lanes.len()).collect(),
        };
        for i in order {
            let mut guard = self.lanes[i].lock();
            let drained = self.drain_heap(&mut guard, max, out, log.as_deref_mut());
            if drained > 0 {
                return drained;
            }
        }
        0
    }
}

impl<V: Send> SharedPq<V> for MultiQueue<V> {
    type Handle<'q>
        = MqHandle<'q, V>
    where
        Self: 'q;

    fn register(&self) -> MqHandle<'_, V> {
        self.register_with(HandlePolicy::default())
    }

    fn approx_len(&self) -> usize {
        self.len_sum()
    }

    fn topology(&self) -> QueueTopology {
        QueueTopology {
            lanes: self.lanes.len(),
            shards: self.config.shards,
        }
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PqHandle;
    use std::collections::HashSet;

    fn queue(queues: usize, beta: f64) -> MultiQueue<u64> {
        MultiQueue::new(
            MultiQueueConfig::with_queues(queues)
                .with_beta(beta)
                .with_seed(42),
        )
    }

    /// Drains the queue through a fresh handle, returning popped keys.
    fn drain(q: &MultiQueue<u64>) -> Vec<u64> {
        let mut h = q.register();
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        out
    }

    #[test]
    fn empty_queue_behaviour() {
        let q = queue(4, 1.0);
        assert!(q.is_empty());
        assert_eq!(q.approx_len(), 0);
        assert_eq!(q.register().delete_min(), None);
        assert_eq!(q.lanes(), 4);
        assert_eq!((q.topology().lanes, q.topology().shards), (4, 1));
        assert_eq!(q.lane_tops(), vec![None; 4]);
        assert!(q.name().contains("multiqueue"));
    }

    #[test]
    fn insert_then_drain_returns_every_element_once() {
        let q = queue(8, 0.75);
        let count = 5_000u64;
        let mut h = q.register();
        for k in 0..count {
            h.insert(k, k * 10);
        }
        assert_eq!(q.approx_len(), count as usize);
        assert_eq!(q.lane_lengths().iter().sum::<usize>(), count as usize);
        let mut seen = HashSet::new();
        while let Some((k, v)) = h.delete_min() {
            assert_eq!(v, k * 10);
            assert!(seen.insert(k), "key {k} returned twice");
        }
        assert_eq!(seen.len(), count as usize);
        assert!(q.is_empty());
        let stats = h.stats();
        assert_eq!(stats.inserts, count);
        assert_eq!(stats.removals, count);
    }

    #[test]
    fn single_lane_is_an_exact_priority_queue() {
        let q = queue(1, 1.0);
        let mut h = q.register();
        for k in [5u64, 1, 9, 3, 7] {
            h.insert(k, k);
        }
        drop(h);
        assert_eq!(drain(&q), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn handle_ids_are_sequential_and_rngs_deterministic() {
        let q = queue(4, 1.0);
        let a = q.register();
        let b = q.register();
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(q.registered_handles(), 2);
        // Same config ⇒ the same handle id draws the same stream.
        let q1 = queue(4, 1.0);
        let q2 = queue(4, 1.0);
        let mut h1 = q1.register_with(HandlePolicy::default());
        let mut h2 = q2.register_with(HandlePolicy::default());
        assert_eq!(h1.id(), h2.id());
        for k in 0..1_000u64 {
            h1.insert(k, k);
            h2.insert(k, k);
        }
        for _ in 0..1_000 {
            assert_eq!(h1.delete_min(), h2.delete_min());
        }
    }

    /// The config's fields are public, so `new` must check a struct literal
    /// the builders never saw: with zero shards, the first `register` would
    /// divide by zero.
    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn new_rejects_zero_shards() {
        let q = MultiQueue::<u64>::new(MultiQueueConfig {
            shards: 0,
            ..MultiQueueConfig::with_queues(4)
        });
        let _ = q.register();
    }

    #[test]
    #[should_panic(expected = "exceeds the lane count")]
    fn new_rejects_more_shards_than_lanes() {
        let _ = MultiQueue::<u64>::new(MultiQueueConfig {
            shards: 5,
            ..MultiQueueConfig::with_queues(4)
        });
    }

    #[test]
    #[should_panic(expected = "need at least one queue")]
    fn new_rejects_zero_queues() {
        let _ = MultiQueue::<u64>::new(MultiQueueConfig {
            queues: 0,
            ..MultiQueueConfig::with_queues(4)
        });
    }

    #[test]
    #[should_panic(expected = "d must be positive")]
    fn new_rejects_an_invalid_choice_rule() {
        let _ = MultiQueue::<u64>::new(MultiQueueConfig {
            choice: crate::ChoiceRule::DChoice(0),
            ..MultiQueueConfig::with_queues(4)
        });
    }

    #[test]
    #[should_panic(expected = "reserved as the empty-lane sentinel")]
    fn key_max_is_rejected_at_insert() {
        let q = queue(2, 1.0);
        q.register().insert(u64::MAX, 0);
    }

    #[test]
    fn key_max_minus_one_is_a_legal_key() {
        let q = queue(2, 1.0);
        let mut h = q.register();
        h.insert(u64::MAX - 1, 7);
        h.insert(3, 1);
        assert_eq!(h.delete_min(), Some((3, 1)));
        assert_eq!(h.delete_min(), Some((u64::MAX - 1, 7)));
    }

    #[test]
    fn relaxation_quality_is_order_n_sequentially() {
        // Sequential use mirrors the paper's sequential process, so the mean
        // rank of returned elements should be O(n). We measure it with the
        // timestamp/inversion methodology from rank-stats.
        use rank_stats::inversion::InversionCounter;
        let n = 8;
        let q = queue(n, 1.0);
        let total = 20_000u64;
        let mut h = q.register();
        for k in 0..total {
            h.insert(k, k);
        }
        let mut log = InversionCounter::new();
        let mut ts = 0u64;
        while let Some((k, _)) = h.delete_min() {
            log.record(ts, k);
            ts += 1;
        }
        let summary = log.summarize();
        assert_eq!(summary.removals, total);
        assert!(
            summary.mean_rank < 4.0 * n as f64,
            "mean rank {} should be O(n) for n={n}",
            summary.mean_rank
        );
    }

    #[test]
    fn lane_tops_reflect_contents() {
        let q = queue(2, 1.0);
        let mut h = q.register();
        h.insert(10, 0);
        h.insert(20, 0);
        let tops = q.lane_tops();
        let present: Vec<Key> = tops.into_iter().flatten().collect();
        assert!(!present.is_empty());
        for t in present {
            assert!(t == 10 || t == 20);
        }
    }

    #[test]
    fn concurrent_inserts_and_deletes_conserve_elements() {
        let threads = 4;
        let per_thread = 3_000u64;
        let q = queue(8, 0.5);
        let removed: Vec<u64> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for t in 0..threads {
                let q = &q;
                workers.push(scope.spawn(move || {
                    let mut handle = q.register();
                    let base = t as u64 * per_thread;
                    let mut got = Vec::new();
                    for i in 0..per_thread {
                        handle.insert(base + i, base + i);
                        // Interleave deletions to exercise contention.
                        if i % 2 == 1 {
                            if let Some((k, _)) = handle.delete_min() {
                                got.push(k);
                            }
                        }
                    }
                    got
                }));
            }
            workers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        // Drain what is left sequentially.
        let mut all = removed;
        all.extend(drain(&q));
        all.sort_unstable();
        let expected: Vec<u64> = (0..threads as u64 * per_thread).collect();
        assert_eq!(
            all, expected,
            "every inserted key must come out exactly once"
        );
    }

    #[test]
    fn batched_inserts_racing_drains_never_underflow_len() {
        // Regression for the batched-insert `len` underflow: a multi-entry
        // publish used to credit a queue-wide `len` only after releasing the
        // lane, so a drain scheduled into that window popped the elements
        // and `fetch_sub`'d `len` below zero — wrapping `approx_len()` to
        // ~2^64. Lane lengths are now copied from the heap under the lane
        // lock, so the sum cannot underflow; hammer `insert_all` groups
        // against batch-drains and assert it never exceeds the number of
        // elements ever inserted. The companion deterministic check lives in
        // `tests/check_multiqueue.rs`, which drives the explorer straight
        // into the window this test can only make probable.
        let threads = 4;
        let per_thread = 2_000u64;
        let total = threads as usize * per_thread as usize;
        let q = queue(4, 1.0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let q = &q;
                scope.spawn(move || {
                    let mut handle = q.register();
                    let base = t as u64 * per_thread;
                    let mut group = Vec::with_capacity(8);
                    let mut out = Vec::new();
                    for i in 0..per_thread {
                        group.push((base + i, base + i));
                        if i % 8 == 7 {
                            handle.insert_all(&mut group);
                            handle.delete_min_batch_into(4, &mut out);
                            let len = q.approx_len();
                            assert!(
                                len <= total,
                                "approx_len() exceeds total-inserted: {len} (len underflow)"
                            );
                        }
                    }
                });
            }
        });
        let remaining = drain(&q).len();
        assert_eq!(q.approx_len(), 0, "quiescent len is exact");
        assert!(remaining <= total);
    }

    #[test]
    fn operations_survive_a_stalled_lane_holder() {
        // Appendix C pathology: a thread holds a lane lock "forever". The
        // structure must remain usable (operations route around the held lane)
        // and must not lose or duplicate elements.
        let q = queue(4, 1.0);
        let mut h = q.register();
        for k in 0..1_000u64 {
            h.insert(k, k);
        }
        let popped = q.with_lane_locked(0, || {
            let mut popped = Vec::new();
            for k in 1_000..1_200u64 {
                h.insert(k, k);
            }
            for _ in 0..500 {
                if let Some((k, _)) = h.delete_min() {
                    popped.push(k);
                }
            }
            popped
        });
        assert!(
            !popped.is_empty(),
            "deleteMin must make progress around the stall"
        );
        let mut all = popped;
        all.extend(drain(&q));
        all.sort_unstable();
        assert_eq!(all, (0..1_200u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_under_a_lane_lock_leaves_the_lane_usable() {
        // An operation that panics while holding a lane lock must not take
        // the lane down with it: the lock does not poison, so the lane
        // locks again, and no element is lost or duplicated.
        let q = queue(2, 1.0);
        let mut h = q.register();
        for k in 0..200u64 {
            h.insert(k, k);
        }
        let lengths = q.lane_lengths();
        assert!(lengths[0] > 0, "the held lane holds elements: {lengths:?}");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.with_lane_locked(0, || panic!("operation panicked under a lane lock"))
        }));
        assert!(outcome.is_err(), "the panic propagates to the caller");
        assert_eq!(q.lane_lengths(), lengths, "the panic moved no element");
        q.with_lane_locked(0, || {});
        let mut all = drain(&q);
        all.sort_unstable();
        assert_eq!(all, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn beta_zero_still_drains_correctly() {
        let q = queue(4, 0.0);
        let mut h = q.register();
        for k in 0..500u64 {
            h.insert(k, k);
        }
        drop(h);
        assert_eq!(drain(&q).len(), 500);
    }

    #[test]
    fn approx_len_tracks_operations_sequentially() {
        let q = queue(4, 1.0);
        let mut h = q.register();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        assert_eq!(q.approx_len(), 100);
        for _ in 0..40 {
            h.delete_min();
        }
        assert_eq!(q.approx_len(), 60);
    }

    #[test]
    fn sharded_inserts_stay_in_their_stride() {
        let q =
            MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_shards(4).with_seed(3));
        assert_eq!((q.topology().lanes, q.topology().shards), (8, 4));
        // Handle ids 0..4 map to shards 0..4 by default.
        let mut handles: Vec<_> = (0..4).map(|_| q.register()).collect();
        for (s, h) in handles.iter_mut().enumerate() {
            for k in 0..64u64 {
                h.insert(k * 4 + s as u64, 0);
            }
        }
        let lengths = q.lane_lengths();
        assert_eq!(lengths.iter().sum::<usize>(), 256);
        // Shard s owns lanes {s, s+4}: each shard's 64 inserts landed there.
        for s in 0..4 {
            assert_eq!(
                lengths[s] + lengths[s + 4],
                64,
                "shard {s} inserts must stay in its stride: {lengths:?}"
            );
        }
        drop(handles);
        assert_eq!(drain(&q).len(), 256);
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MultiQueue<u64>>();
        assert_send_sync::<MultiQueue<Vec<u8>>>();
    }
}
