//! The concurrent (1 + β) MultiQueue — sharded and elastic.
//!
//! # Lanes, shards and the active prefix
//!
//! The queue allocates `config.queues` lanes up front but only the first
//! `active` of them participate in normal operation. The pair
//! `(epoch, active)` is packed into one `AtomicU64` (the **lane table**), so
//! every reader observes a consistent resize state from a single load — a
//! concurrent `delete_min` can never see a torn resize. The active lanes are
//! partitioned into `config.shards` *insert shards* by stride (shard `s`
//! owns lanes `s, s + shards, …`): a lane's shard never changes, and any
//! active count `≥ shards` keeps every shard non-empty.
//!
//! Handles publish inserts into their own shard (sticky-lane generalised to
//! sticky-shard) while `delete_min` samples across **all** active lanes, so
//! the paper's rank argument is unchanged — sharding only narrows where a
//! given session's inserts land, which buys cache locality exactly like
//! sticky lanes did, one level up.
//!
//! # The elastic resize protocol
//!
//! Resizes (cooperative, triggered by an [`ElasticPolicy`] controller or by
//! [`MultiQueue::resize_active`]) are serialised by a resize mutex and obey
//! one invariant: **an element can only ever sit in a lane that was active
//! when it was pushed, and retiring a lane moves its contents back into the
//! active prefix before the resize completes.** Concretely:
//!
//! * *Grow* bumps the lane table; newly activated lanes start empty (they
//!   were drained when retired, or never used).
//! * *Shrink* first bumps the lane table (epoch + 1, smaller active count),
//!   then locks each retired lane in turn, drains it with the same
//!   `drain_heap` core the public removal paths use, and re-publishes the
//!   elements into the surviving prefix.
//! * *Insert* validates its target lane **after** acquiring the lane lock:
//!   if the lane table no longer covers the lane, the insert releases and
//!   retries elsewhere. Because the retirement drain needs that same lock
//!   and runs strictly after the table bump, every push either happens
//!   before the drain (and is moved) or observes the retirement (and goes
//!   elsewhere) — key conservation by construction, no epoch re-validation
//!   on the read side needed.
//! * Lanes below [`MultiQueueConfig::min_active_lanes`] are never retired,
//!   so the blocking fallbacks (retry budget exhausted) target those and
//!   need no validation loop.
//!
//! See `DESIGN.md` §7 for the full argument.
//!
//! [`ElasticPolicy`]: crate::config::ElasticPolicy

use crate::sync::{AtomicU64, Ordering};

use crate::sync::Mutex;
use crossbeam_utils::CachePadded;

use rank_stats::inversion::TimestampedRemoval;
use rank_stats::rng::{RandomSource, SplitMix64, Xoshiro256};
use seq_pq::{BinaryHeap, SequentialPriorityQueue};

use crate::config::MultiQueueConfig;
use crate::handle::{HandlePolicy, MqHandle};
use crate::lane::{Lane, LaneGuard, EMPTY_TOP};
use crate::obs::QueueObs;
use crate::traits::{Key, QueueTopology, SharedPq};
use std::sync::Arc;

/// Low half of the packed lane table: the active lane count.
const ACTIVE_MASK: u64 = 0xFFFF_FFFF;

/// What one [`MultiQueue::drain_best_with`] call did, beyond the drained
/// elements themselves: the retry accounting the handle layer turns into
/// [`HandleStats`](crate::HandleStats) counters and the elastic controller
/// turns into resize decisions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DrainOutcome {
    /// Number of elements appended to the caller's buffer.
    pub drained: usize,
    /// Retry-loop iterations lost to contention or peek/lock races (the
    /// total the handle layer reports; includes `sparse_retries`).
    pub contended_retries: u64,
    /// Subset of `contended_retries` where every *sampled* top looked empty
    /// while the structure was not — the over-provisioning signal the
    /// elastic controller shrinks on, as opposed to lost lock races (which
    /// it grows on).
    pub sparse_retries: u64,
    /// Whether a zero-element result came from a quiescent-empty observation
    /// (the summed lane lengths read as zero — after every sampled top
    /// looked empty, or after an exhaustive steal scan found every lane
    /// empty) rather than from `max == 0`.
    pub observed_empty: bool,
}

impl DrainOutcome {
    /// The `max == 0` no-op outcome.
    fn nothing() -> Self {
        Self {
            drained: 0,
            contended_retries: 0,
            sparse_retries: 0,
            observed_empty: false,
        }
    }
}

/// The elastic controller's mutable state (all touched off the lock-free hot
/// path only when [`MultiQueueConfig::elastic`] is set).
#[derive(Debug, Default)]
struct Elastic {
    /// Operations observed since the last controller decision.
    window_ops: AtomicU64,
    /// Try-lock failures (insert and delete side) in the current window.
    window_lock: AtomicU64,
    /// Sparse delete samples (all sampled tops empty, structure non-empty)
    /// in the current window.
    window_sparse: AtomicU64,
    /// Decision windows left to skip after the last resize (hysteresis).
    cooldown: AtomicU64,
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
/// [`MultiQueueConfig`] for sizing, the choice rule (β / d), sharding and
/// elasticity; see the [module documentation](self) for the resize
/// protocol.
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
    /// Packed `(epoch << 32) | active` lane table; a single load gives a
    /// consistent resize view. Written only under `resize_mutex`.
    lane_table: AtomicU64,
    /// Serialises resizes; held across the whole shrink drain, so a grow
    /// can never interleave with a retirement in progress.
    resize_mutex: Mutex<()>,
    /// Completed grow / shrink events (diagnostics + [`QueueTopology`]).
    grow_events: AtomicU64,
    shrink_events: AtomicU64,
    elastic: Elastic,
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
    /// Creates an empty MultiQueue. An elastic configuration starts at its
    /// [`min_active_lanes`](MultiQueueConfig::min_active_lanes) floor; a
    /// static one starts (and stays) at full capacity.
    pub fn new(config: MultiQueueConfig) -> Self {
        assert!(
            config.shards <= config.queues,
            "shard count exceeds the lane capacity"
        );
        let lanes = (0..config.queues)
            .map(|_| CachePadded::new(Lane::new()))
            .collect();
        let initial_active = config.min_active_lanes() as u64;
        Self {
            lanes,
            lane_table: AtomicU64::new(initial_active),
            resize_mutex: Mutex::new(()),
            grow_events: AtomicU64::new(0),
            shrink_events: AtomicU64::new(0),
            elastic: Elastic::default(),
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

    /// Number of allocated internal lanes (the capacity `n`; see
    /// [`active_lanes`](MultiQueue::active_lanes) for the live count).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of currently active lanes (the prefix participating in
    /// inserts and sampled removals). Equal to [`lanes`](MultiQueue::lanes)
    /// for a static configuration.
    pub fn active_lanes(&self) -> usize {
        (self.lane_table.load(Ordering::Acquire) & ACTIVE_MASK) as usize
    }

    /// The resize epoch: incremented by every completed grow or shrink.
    pub fn resize_epoch(&self) -> u64 {
        self.lane_table.load(Ordering::Acquire) >> 32
    }

    /// Number of handles registered so far (never decreases; dropped handles
    /// do not return their id).
    pub fn registered_handles(&self) -> u64 {
        self.next_handle_id.load(Ordering::Relaxed)
    }

    /// The cached top key of every allocated lane (`None` for empty lanes);
    /// a diagnostic snapshot, not linearizable.
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

    /// Per-lane element counts over every allocated lane (retired lanes read
    /// zero once their drain completed), as each lane's last lock holder
    /// published them: exact when the structure is quiescent (tests and
    /// diagnostics).
    pub fn lane_lengths(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.len()).collect()
    }

    /// A zero-lock bound on the *lane rank* of `key`: one plus the number of
    /// active lanes whose cached top is strictly smaller. This is the live
    /// counterpart of the paper's rank error (each counted lane holds at
    /// least one element smaller than `key`, so the value lower-bounds the
    /// element rank while upper-bounding the count of lanes a perfect
    /// `delete_min` would have preferred — the quantity the (1 + β) analysis
    /// bounds at O(active lanes)).
    ///
    /// The probe reads the same cached lane tops `delete_min` samples: one
    /// `Acquire` load of the lane table plus one relaxed top load per
    /// active lane, no lane locks. Races bias the estimate
    /// *conservatively* for a just-removed `key`: a stale-low top belongs
    /// to a not-yet-linearized removal (its element genuinely coexisted
    /// with the removal and counts), and a not-yet-published insert is
    /// absent from the estimate exactly as it was absent from the queue
    /// (DESIGN.md §12 spells out the bias argument).
    pub fn lane_rank_bound(&self, key: Key) -> u64 {
        let active = self.active_lanes().min(self.lanes.len());
        let mut better = 0u64;
        for lane in &self.lanes[..active] {
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
    /// same seed, policies and registration order replays exactly.
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

    /// A random lane of `shard` below `limit` (strided shard layout). With
    /// one shard this is a uniform draw over `[0, limit)`, bit-compatible
    /// with the pre-sharding engine's streams.
    pub(crate) fn stride_lane(&self, rng: &mut Xoshiro256, shard: usize, limit: usize) -> usize {
        let shards = self.config.shards;
        if shards == 1 {
            return rng.next_index(limit);
        }
        debug_assert!(shard < shards && shard < limit, "shard outside the table");
        let in_shard = (limit - shard).div_ceil(shards);
        shard + shards * rng.next_index(in_shard)
    }

    /// Resizes the active lane set to `target` (clamped to
    /// `[min_active_lanes, queues]`), draining retired lanes back into the
    /// surviving prefix on shrink. Returns whether the active count changed.
    ///
    /// Safe to call concurrently with any other operation (resizes are
    /// serialised internally); also the entry point tests use to force
    /// grow/shrink events. A no-op (returning `false`) when `target` clamps
    /// to the current count.
    pub fn resize_active(&self, target: usize) -> bool {
        let guard = self.resize_mutex.lock();
        self.resize_locked(&guard, target)
    }

    /// The resize body; the caller holds `resize_mutex`.
    fn resize_locked(&self, _guard: &crate::sync::MutexGuard<'_, ()>, target: usize) -> bool {
        let target = target.clamp(self.config.min_active_lanes(), self.lanes.len());
        let table = self.lane_table.load(Ordering::Acquire);
        let active = (table & ACTIVE_MASK) as usize;
        if target == active {
            return false;
        }
        let epoch = (table >> 32) + 1;
        // Publish the new table first: after this store no insert can commit
        // into a lane `>= target`. The push-side validation runs under the
        // lane lock the drain below takes after this store, so an insert
        // that locks the lane after the drain released it reads this
        // `Release` store through the mutex's release/acquire pair.
        self.lane_table
            .store((epoch << 32) | target as u64, Ordering::Release);
        if target > active {
            self.grow_events.fetch_add(1, Ordering::Relaxed);
        } else {
            // Retire lanes [target, active): drain each one and re-publish
            // its elements into the surviving prefix. One lane lock at a
            // time — never two — so the lock order cannot deadlock against
            // operations. The drain reuses the same `drain_heap` core as the
            // public removal paths — uninstrumented (`log: None`): moved
            // elements never leave the structure, so a shrink is invisible
            // to the rank methodology.
            let mut moved: Vec<(Key, V)> = Vec::new();
            for retired in target..active {
                let mut guard = self.lanes[retired].lock();
                self.drain_heap(&mut guard, usize::MAX, &mut moved, None);
            }
            // Spread the refugees across the surviving lanes in chunks, one
            // destination lock at a time (never two lane locks at once).
            // Order within a chunk is irrelevant — the destination heap
            // re-sorts — so draining off the tail is fine and allocation-free.
            if !moved.is_empty() {
                let chunk = moved.len().div_ceil(target);
                let mut dst = 0usize;
                while !moved.is_empty() {
                    let take = chunk.min(moved.len());
                    let mut guard = self.lanes[dst % target].lock();
                    for (key, value) in moved.drain(moved.len() - take..) {
                        guard.push(key, value);
                    }
                    dst += 1;
                }
            }
            self.shrink_events.fetch_add(1, Ordering::Relaxed);
        }
        // A fresh resize opens the hysteresis window.
        if let Some(policy) = &self.config.elastic {
            self.elastic
                .cooldown
                .store(u64::from(policy.cooldown_checks), Ordering::Relaxed);
        }
        if let Some(obs) = &self.obs {
            obs.on_resize(epoch, active, target);
        }
        true
    }

    /// Folds one operation's contention accounting into the controller
    /// window and runs a resize decision when the window closes. Called with
    /// **no lane locks held**. A no-op for static configurations.
    fn elastic_tick(&self, ops: u64, lock_retries: u64, sparse_retries: u64) {
        if let Some(obs) = &self.obs {
            obs.on_ops(ops, lock_retries, sparse_retries);
        }
        let Some(policy) = &self.config.elastic else {
            return;
        };
        if lock_retries > 0 {
            self.elastic
                .window_lock
                .fetch_add(lock_retries, Ordering::Relaxed);
        }
        if sparse_retries > 0 {
            self.elastic
                .window_sparse
                .fetch_add(sparse_retries, Ordering::Relaxed);
        }
        let seen = self.elastic.window_ops.fetch_add(ops, Ordering::Relaxed) + ops;
        if seen < policy.check_interval {
            return;
        }
        // Window closed: at most one thread becomes the controller (the
        // others keep operating; they will close a later window).
        let Some(guard) = self.resize_mutex.try_lock() else {
            return;
        };
        let window_ops = self.elastic.window_ops.swap(0, Ordering::Relaxed);
        if window_ops < policy.check_interval {
            // Another controller consumed this window between our counter
            // bump and the lock. Return the partial count we just stole so
            // the next window's rate denominator stays honest (its lock and
            // sparse increments are already recorded against it).
            self.elastic
                .window_ops
                .fetch_add(window_ops, Ordering::Relaxed);
            return;
        }
        let lock = self.elastic.window_lock.swap(0, Ordering::Relaxed);
        let sparse = self.elastic.window_sparse.swap(0, Ordering::Relaxed);
        let cooldown = self.elastic.cooldown.load(Ordering::Relaxed);
        if cooldown > 0 {
            self.elastic.cooldown.store(cooldown - 1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                obs.on_controller_tick(0, lock, sparse);
            }
            return;
        }
        let lock_rate = lock as f64 / window_ops as f64;
        let sparse_rate = sparse as f64 / window_ops as f64;
        let active = self.active_lanes();
        let mut decision = 0u64;
        if lock_rate > policy.grow_threshold && active < self.lanes.len() {
            // Contention collapse forming: double the active set.
            self.resize_locked(&guard, (active * 2).min(self.lanes.len()));
            decision = 1;
        } else if sparse_rate > policy.shrink_threshold
            && lock_rate < policy.grow_threshold * 0.5
            && active > self.config.min_active_lanes()
        {
            // Over-provisioned: sampled lanes keep coming up empty while
            // locks are uncontended. Halve the active set.
            self.resize_locked(&guard, active / 2);
            decision = 2;
        }
        if let Some(obs) = &self.obs {
            obs.on_controller_tick(decision, lock, sparse);
        }
    }

    /// Locks lane `q` if its lock is free and the lane is still active once
    /// locked: the under-lock re-validation of the module docs, which a
    /// lane retired while we raced for it fails.
    fn try_lock_active(&self, q: usize) -> Option<LaneGuard<'_, V>> {
        let guard = self.lanes[q].try_lock()?;
        (q < self.active_lanes()).then_some(guard)
    }

    /// Inserts `(key, value)` into the handle's shard: the sticky `hint`
    /// first when present (and still active), then random shard lanes, then
    /// a blocking lock on a permanently active floor lane once the retry
    /// budget is exhausted (heavy oversubscription). A lane that is locked,
    /// or was retired under foot, costs one contended retry and a fresh
    /// draw — the paper's rule. Returns the contended-retry count for
    /// [`HandleStats`](crate::HandleStats).
    pub(crate) fn insert_with(
        &self,
        rng: &mut Xoshiro256,
        shard: usize,
        hint: Option<usize>,
        key: Key,
        value: V,
    ) -> u64 {
        debug_assert!(key != EMPTY_TOP, "keys are validated at the handle layer");
        let mut lock_retries = 0u64;
        let (lane, fell_back) = 'published: {
            // A sticky hint can go stale across a shrink; skip it then.
            if let Some(q) = hint.filter(|&q| q < self.active_lanes()) {
                if let Some(mut guard) = self.try_lock_active(q) {
                    guard.push(key, value);
                    break 'published (q, false);
                }
                lock_retries += 1;
            }
            for _ in 0..self.config.max_retries {
                let q = self.stride_lane(rng, shard, self.active_lanes());
                if let Some(mut guard) = self.try_lock_active(q) {
                    guard.push(key, value);
                    break 'published (q, false);
                }
                lock_retries += 1;
            }
            // Floor lanes are never retired, so no validation loop.
            let q = self.stride_lane(rng, shard, self.config.min_active_lanes());
            self.lanes[q].lock().push(key, value);
            (q, true)
        };
        if let Some(obs) = &self.obs {
            if fell_back || lock_retries >= self.config.contention_event_threshold {
                obs.on_lane_contention(lane, lock_retries);
            }
        }
        self.elastic_tick(1, lock_retries, 0);
        lock_retries
    }

    /// Publishes a whole insert batch under a single lane lock (the batched
    /// MultiQueue refinement: one random choice and one lock acquisition
    /// amortised over the batch, at a bounded rank-quality cost), with the
    /// same contention strategy as [`insert_with`](Self::insert_with).
    /// Returns the contended-retry count.
    pub(crate) fn insert_batch_with(
        &self,
        rng: &mut Xoshiro256,
        shard: usize,
        hint: Option<usize>,
        batch: &mut Vec<(Key, V)>,
    ) -> u64 {
        if batch.is_empty() {
            return 0;
        }
        let count = batch.len();
        let mut lock_retries = 0u64;
        let mut publish = |heap: &mut BinaryHeap<V>| {
            for (key, value) in batch.drain(..) {
                heap.push(key, value);
            }
        };
        let (lane, fell_back) = 'published: {
            let mut target = match hint {
                Some(q) if q < self.active_lanes() => q,
                _ => self.stride_lane(rng, shard, self.active_lanes()),
            };
            for _ in 0..self.config.max_retries {
                if let Some(mut guard) = self.try_lock_active(target) {
                    publish(&mut guard);
                    break 'published (target, false);
                }
                lock_retries += 1;
                target = self.stride_lane(rng, shard, self.active_lanes());
            }
            let target = self.stride_lane(rng, shard, self.config.min_active_lanes());
            publish(&mut self.lanes[target].lock());
            (target, true)
        };
        if let Some(obs) = &self.obs {
            if fell_back || lock_retries >= self.config.contention_event_threshold {
                obs.on_lane_contention(lane, lock_retries);
            }
        }
        self.elastic_tick(count as u64, lock_retries, 0);
        lock_retries
    }

    /// Picks the victim lane for one deleteMin attempt following the
    /// configured [`ChoiceRule`](crate::ChoiceRule) over the **active**
    /// lanes, using only the cached tops (no locks are taken, exactly like
    /// the original MultiQueue's unsynchronised peek). `scratch` is the
    /// caller's reusable sample buffer.
    fn choose_victim(&self, rng: &mut Xoshiro256, scratch: &mut Vec<usize>) -> Option<usize> {
        let active = self.active_lanes();
        self.config
            .choice
            .choose_by_key(rng, active, scratch, |lane| {
                let top = self.lanes[lane].top();
                (top != EMPTY_TOP).then_some(top)
            })
    }

    /// The lanes' published lengths, summed over every allocated lane:
    /// exact when the structure is quiescent.
    fn len_sum(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// The core removal step shared by `delete_min` and `delete_min_batch`:
    /// repeated choice-rule attempts over the active lanes, then a single
    /// lane lock under which up to `max` elements are drained (appended to
    /// `out`), then the deterministic steal fallback so the structure can
    /// always be emptied. Every drained element comes from one lane, so one
    /// lock acquisition and one random choice are amortised over the whole
    /// batch.
    ///
    /// The returned [`DrainOutcome`] carries, besides the drain count, the
    /// retry accounting the handle layer folds into
    /// [`HandleStats`](crate::HandleStats): how many retry-loop iterations
    /// were lost to contention or peek/lock races (with the sparse-sample
    /// subset broken out for the elastic controller), and whether a
    /// zero-element result came from a *quiescent-empty observation* (the
    /// summed lane lengths read as zero once every sampled top looked empty,
    /// or after the exhaustive locked steal scan found nothing) — the
    /// distinction schedulers need between "no work exists" and "work exists
    /// but this attempt lost races".
    ///
    /// When `log` is set (instrumented sessions), every drained element is
    /// stamped with a coherent queue timestamp **while the lane lock is
    /// held**, so the recorded removal order is the order the removals took
    /// effect — concurrent batches cannot interleave inside each other's
    /// logs. Elements moved by a shrink are not logged: they never leave the
    /// structure.
    pub(crate) fn drain_best_with(
        &self,
        rng: &mut Xoshiro256,
        scratch: &mut Vec<usize>,
        max: usize,
        out: &mut Vec<(Key, V)>,
        log: Option<&mut Vec<TimestampedRemoval>>,
    ) -> DrainOutcome {
        let outcome = self.drain_best_inner(rng, scratch, max, out, log);
        self.elastic_tick(
            (outcome.drained as u64).max(1),
            outcome.contended_retries - outcome.sparse_retries,
            outcome.sparse_retries,
        );
        outcome
    }

    /// [`drain_best_with`](MultiQueue::drain_best_with) minus the controller
    /// tick (which must run with no lane lock held).
    fn drain_best_inner(
        &self,
        rng: &mut Xoshiro256,
        scratch: &mut Vec<usize>,
        max: usize,
        out: &mut Vec<(Key, V)>,
        mut log: Option<&mut Vec<TimestampedRemoval>>,
    ) -> DrainOutcome {
        if max == 0 {
            return DrainOutcome::nothing();
        }
        let mut contended_retries = 0u64;
        let mut sparse_retries = 0u64;
        for _ in 0..self.config.max_retries {
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
                // samples (and tell the controller the lanes look sparse).
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

    /// The steal path, symmetric to the sampled drain: scans **all
    /// allocated lanes** (not just the active prefix, so nothing mid-resize
    /// can hide from it) and drains up to `max` elements from the one with
    /// the globally smallest top (falling through to the other lanes if it
    /// empties under foot). Linear in the lane count; only used when the
    /// sampled lanes keep coming up empty or contended.
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

    fn register_policy(&self, policy: HandlePolicy) -> MqHandle<'_, V> {
        self.register_with(policy)
    }

    fn approx_len(&self) -> usize {
        self.len_sum()
    }

    fn topology(&self) -> QueueTopology {
        // One load of the packed lane table keeps (active, epoch) mutually
        // consistent even when a resize races the snapshot.
        let table = self.lane_table.load(Ordering::Acquire);
        QueueTopology {
            active_lanes: (table & ACTIVE_MASK) as usize,
            max_lanes: self.lanes.len(),
            shards: self.config.shards,
            grows: self.grow_events.load(Ordering::Relaxed),
            shrinks: self.shrink_events.load(Ordering::Relaxed),
            resize_epoch: table >> 32,
        }
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ElasticPolicy;
    use crate::traits::PqHandle;
    use std::collections::HashSet;

    fn queue(queues: usize, beta: f64) -> MultiQueue<u64> {
        MultiQueue::new(
            MultiQueueConfig::with_queues(queues)
                .with_beta(beta)
                .with_seed(42),
        )
    }

    fn elastic_queue(queues: usize, min: usize) -> MultiQueue<u64> {
        MultiQueue::new(
            MultiQueueConfig::with_queues(queues)
                .with_seed(42)
                .with_elastic(ElasticPolicy::default().with_min_lanes(min)),
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
        assert_eq!(q.active_lanes(), 4, "static queues start at capacity");
        assert_eq!(q.resize_epoch(), 0);
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
        // Regression for the batched-insert `len` underflow: a batch flush
        // used to credit a queue-wide `len` only after releasing the lane,
        // so a drain scheduled into that window popped the elements and
        // `fetch_sub`'d `len` below zero — wrapping `approx_len()` to ~2^64.
        // Lane lengths are now copied from the heap under the lane lock, so
        // the sum cannot underflow; hammer batch-flushes against
        // batch-drains and assert it never exceeds the number of elements
        // ever inserted. The companion deterministic check lives in
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
                    let mut handle = q.register_with(HandlePolicy::default().with_insert_batch(8));
                    let base = t as u64 * per_thread;
                    let mut out = Vec::new();
                    for i in 0..per_thread {
                        handle.insert(base + i, base + i);
                        if i % 8 == 7 {
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
    fn elastic_queue_starts_at_the_floor() {
        let q = elastic_queue(16, 4);
        assert_eq!(q.lanes(), 16);
        assert_eq!(q.active_lanes(), 4);
        assert_eq!(q.resize_epoch(), 0);
        let shape = q.topology();
        assert_eq!(shape.active_lanes, 4);
        assert_eq!(shape.max_lanes, 16);
        assert_eq!(shape.shards, 1);
        assert_eq!(shape.resize_events(), 0);
        assert_eq!(shape.resize_epoch, 0);
    }

    #[test]
    fn manual_resize_moves_the_active_prefix_and_epoch() {
        let q = elastic_queue(16, 2);
        assert!(q.resize_active(8));
        assert_eq!(q.active_lanes(), 8);
        assert_eq!(q.resize_epoch(), 1);
        assert!(q.resize_active(2));
        assert_eq!(q.active_lanes(), 2);
        assert_eq!(q.resize_epoch(), 2);
        // Clamped targets that land on the current count are no-ops.
        assert!(!q.resize_active(0), "clamps to the floor (already there)");
        assert!(!q.resize_active(2));
        assert!(q.resize_active(1_000_000), "clamps to capacity");
        assert_eq!(q.active_lanes(), 16);
        let shape = q.topology();
        assert_eq!(shape.grows, 2);
        assert_eq!(shape.shrinks, 1);
        assert_eq!(shape.resize_events(), 3);
        assert_eq!(shape.resize_epoch, 3, "every resize bumps the epoch");
    }

    #[test]
    fn static_queue_refuses_to_resize() {
        let q = queue(8, 1.0);
        // min_active_lanes == queues for static configs: every target clamps
        // to the full capacity.
        assert!(!q.resize_active(2));
        assert_eq!(q.active_lanes(), 8);
    }

    #[test]
    fn shrink_conserves_every_element() {
        let q = elastic_queue(16, 2);
        q.resize_active(16);
        let mut h = q.register();
        for k in 0..2_000u64 {
            h.insert(k, k);
        }
        // Everything below the live tide line moves into the prefix.
        assert!(q.resize_active(2));
        assert_eq!(q.approx_len(), 2_000, "a shrink never changes the count");
        let lengths = q.lane_lengths();
        assert_eq!(lengths.iter().sum::<usize>(), 2_000);
        assert!(
            lengths[2..].iter().all(|&l| l == 0),
            "retired lanes must be empty after the shrink: {lengths:?}"
        );
        drop(h);
        let mut out = drain(&q);
        out.sort_unstable();
        assert_eq!(out, (0..2_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn grow_exposes_new_lanes_to_inserts() {
        let q = elastic_queue(8, 2);
        let mut h = q.register();
        for k in 0..64u64 {
            h.insert(k, k);
        }
        let lengths = q.lane_lengths();
        assert!(
            lengths[2..].iter().all(|&l| l == 0),
            "only the active prefix may hold elements: {lengths:?}"
        );
        q.resize_active(8);
        for k in 64..4_096u64 {
            h.insert(k, k);
        }
        let lengths = q.lane_lengths();
        assert!(
            lengths[2..].iter().any(|&l| l > 0),
            "grown lanes must start taking inserts: {lengths:?}"
        );
        drop(h);
        assert_eq!(drain(&q).len(), 4_096);
    }

    #[test]
    fn concurrent_resizes_conserve_elements() {
        // The conformance property at engine level: hammer inserts/deletes
        // from several threads while a controller thread forces grows and
        // shrinks; every key must come out exactly once.
        let threads = 4;
        let per_thread = 2_000u64;
        let q = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(16)
                .with_seed(11)
                .with_elastic(ElasticPolicy::default().with_min_lanes(2)),
        );
        let stop = std::sync::atomic::AtomicBool::new(false);
        let removed: Vec<u64> = std::thread::scope(|scope| {
            let resizer = scope.spawn(|| {
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    q.resize_active(if flip { 16 } else { 2 });
                    flip = !flip;
                    std::thread::yield_now();
                }
            });
            let mut workers = Vec::new();
            for t in 0..threads {
                let q = &q;
                workers.push(scope.spawn(move || {
                    let mut handle = q.register();
                    let base = t as u64 * per_thread;
                    let mut got = Vec::new();
                    for i in 0..per_thread {
                        handle.insert(base + i, base + i);
                        if i % 2 == 1 {
                            if let Some((k, _)) = handle.delete_min() {
                                got.push(k);
                            }
                        }
                    }
                    got
                }));
            }
            let removed = workers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            stop.store(true, Ordering::Relaxed);
            resizer.join().unwrap();
            removed
        });
        let mut all = removed;
        all.extend(drain(&q));
        all.sort_unstable();
        assert_eq!(all, (0..threads as u64 * per_thread).collect::<Vec<_>>());
    }

    #[test]
    fn controller_grows_under_forced_lock_contention() {
        // Hold the only non-floor... actually: hold one of the two active
        // lanes so half the try-locks fail, then push operations through.
        // The controller must react by growing the active set.
        let q = std::sync::Arc::new(MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(8).with_seed(5).with_elastic(
                ElasticPolicy::default()
                    .with_min_lanes(2)
                    .with_check_interval(64)
                    .with_thresholds(0.05, 0.9)
                    .with_cooldown_checks(0),
            ),
        ));
        assert_eq!(q.active_lanes(), 2);
        let q2 = std::sync::Arc::clone(&q);
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let b2 = std::sync::Arc::clone(&barrier);
        let holder = std::thread::spawn(move || {
            q2.with_lane_locked(0, || {
                b2.wait(); // lane 0 held from here on
                std::thread::sleep(std::time::Duration::from_millis(200));
            })
        });
        barrier.wait();
        let mut h = q.register();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut k = 0u64;
        while q.active_lanes() == 2 && std::time::Instant::now() < deadline {
            h.insert(k, k);
            k += 1;
        }
        holder.join().unwrap();
        assert!(
            q.active_lanes() > 2,
            "sustained lock contention must grow the active set"
        );
        assert!(q.topology().grows >= 1);
    }

    #[test]
    fn controller_shrinks_sparse_idle_lanes() {
        // Many active lanes, a single element bouncing: almost every sampled
        // top is empty, so the sparse rate is high and contention zero — the
        // controller must shrink towards the floor.
        let q = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(16).with_seed(5).with_elastic(
                ElasticPolicy::default()
                    .with_min_lanes(2)
                    .with_check_interval(128)
                    .with_thresholds(0.5, 0.05)
                    .with_cooldown_checks(0),
            ),
        );
        q.resize_active(16);
        assert_eq!(q.active_lanes(), 16);
        let mut h = q.register();
        for round in 0..50_000u64 {
            h.insert(round % 1_000, 0);
            h.delete_min();
            if q.active_lanes() == 2 {
                break;
            }
        }
        assert!(
            q.active_lanes() < 16,
            "a sparse workload must shrink the active set (still at {})",
            q.active_lanes()
        );
        assert!(q.topology().shrinks >= 1);
    }

    #[test]
    fn sharded_inserts_stay_in_their_stride() {
        let q =
            MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_shards(4).with_seed(3));
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
    fn sharded_elastic_keeps_every_shard_populated() {
        // With 4 shards the floor clamps to 4 even though min_lanes = 1, so
        // every shard always owns at least one active lane.
        let q = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(16)
                .with_shards(4)
                .with_seed(9)
                .with_elastic(ElasticPolicy::default().with_min_lanes(1)),
        );
        assert_eq!(q.active_lanes(), 4);
        let mut handles: Vec<_> = (0..4).map(|_| q.register()).collect();
        for (s, h) in handles.iter_mut().enumerate() {
            for k in 0..32u64 {
                h.insert(k * 8 + s as u64, 0);
            }
        }
        q.resize_active(16);
        for (s, h) in handles.iter_mut().enumerate() {
            for k in 32..64u64 {
                h.insert(k * 8 + s as u64, 0);
            }
        }
        q.resize_active(4);
        assert_eq!(q.approx_len(), 4 * 64);
        drop(handles);
        assert_eq!(drain(&q).len(), 4 * 64);
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MultiQueue<u64>>();
        assert_send_sync::<MultiQueue<Vec<u8>>>();
    }
}
