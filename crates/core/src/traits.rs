//! The handle-based session API shared by the MultiQueue and the baseline
//! implementations.
//!
//! The paper's (1 + β) MultiQueue is defined in terms of *threads*: each
//! thread owns private randomness. The API mirrors that structure with an
//! explicit two-level contract:
//!
//! * [`SharedPq`] is the thread-safe queue itself. The only way to operate on
//!   it is to [`register`](SharedPq::register) a session, which returns a
//!   handle.
//! * [`PqHandle`] is an owned, `&mut self` session object carrying all
//!   operation-local state — the per-handle RNG stream, its insert shard and
//!   instrumentation log — so the shared structure's hot path never consults
//!   thread-local storage.
//!
//! Handles are cheap to create and [`Send`], so the idiomatic pattern is one
//! handle per worker thread:
//!
//! ```
//! use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
//!
//! let queue = MultiQueue::<u64>::new(MultiQueueConfig::for_threads(2));
//! std::thread::scope(|scope| {
//!     for t in 0..2u64 {
//!         let queue = &queue;
//!         scope.spawn(move || {
//!             let mut handle = queue.register();
//!             handle.insert(10 * t, t);
//!             handle.delete_min();
//!         });
//!     }
//! });
//! ```
//!
//! For registries that must hold heterogeneous queues behind one pointer,
//! [`DynSharedPq`] provides the type-erased form (`Arc<dyn DynSharedPq<V>>`),
//! which itself implements [`SharedPq`] with boxed handles.

use rank_stats::inversion::TimestampedRemoval;

/// The priority key type: smaller keys are higher priority.
pub type Key = u64;

/// The one reserved key value: `Key::MAX` doubles as the internal empty-lane
/// sentinel, so it cannot be stored. [`check_key`] rejects it at insert.
pub const RESERVED_KEY: Key = Key::MAX;

/// Validates a key on the insert path.
///
/// # Panics
///
/// Panics if `key == Key::MAX` ([`RESERVED_KEY`]): that value is reserved as
/// the internal "empty lane" sentinel, and storing it would make a legitimate
/// element indistinguishable from an empty lane during the unsynchronised
/// peeks of the (1 + β) removal rule.
#[inline]
#[track_caller]
pub fn check_key(key: Key) {
    assert!(
        key != RESERVED_KEY,
        "key u64::MAX is reserved as the empty-lane sentinel and cannot be inserted"
    );
}

/// Per-handle operation counters, returned by [`PqHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Number of elements inserted through this handle.
    pub inserts: u64,
    /// Number of successful `delete_min` calls.
    pub removals: u64,
    /// Number of `delete_min` calls that found the structure (apparently)
    /// empty.
    pub failed_removals: u64,
    /// Subset of [`failed_removals`](HandleStats::failed_removals) where the
    /// structure was observed **quiescently empty** — the element count read
    /// as zero once the sampled lanes looked empty, or after an exhaustive
    /// locked scan found nothing — as opposed to a removal lost to
    /// contention races. Schedulers use this to tell "no work
    /// exists right now" (back off, consult termination) apart from "work
    /// exists but this session lost races" (retry immediately), which
    /// [`contended_retries`](HandleStats::contended_retries) accounts.
    pub empty_polls: u64,
    /// Internal retry-loop iterations lost to contention or peek/lock races,
    /// on **both** the removal and the insert side. Removal side: a sampled
    /// lane's lock was held, every sampled top looked empty while the
    /// structure was not, or a lane emptied between the unsynchronised peek
    /// and the lock. Insert side: each lost `try_lock` counts one retry,
    /// after which the insert draws another lane. Always
    /// `0` for exact centralized structures, which block instead of
    /// retrying. Retries are *not* operations and do not count towards
    /// [`operations`](HandleStats::operations).
    pub contended_retries: u64,
    /// Operations refused by an *enclosing* admission layer (quota, rate or
    /// lifecycle shedding in a service/registry wrapper) before they reached
    /// the queue. Queues themselves never increment this — a handle's own
    /// counter is always `0` — but it rides in `HandleStats` so per-tenant
    /// aggregates carry attempted-but-shed work through the same
    /// [`merge`](HandleStats::merge) path as everything else. Refusals are
    /// not queue operations and do not count towards
    /// [`operations`](HandleStats::operations).
    pub refusals: u64,
}

impl HandleStats {
    /// Total operations issued through the handle (retries and refusals
    /// excluded).
    pub fn operations(&self) -> u64 {
        self.inserts + self.removals + self.failed_removals
    }

    /// Accumulates another handle's counters into this one.
    ///
    /// Handles count per session; anything that reports across sessions — a
    /// scheduler pool, a server aggregating live connections — folds the
    /// per-handle values together with this. Addition is saturating so a
    /// fold over pathological counters degrades to a pinned value instead
    /// of a panic in debug builds.
    pub fn merge(&mut self, other: &HandleStats) {
        self.inserts = self.inserts.saturating_add(other.inserts);
        self.removals = self.removals.saturating_add(other.removals);
        self.failed_removals = self.failed_removals.saturating_add(other.failed_removals);
        self.empty_polls = self.empty_polls.saturating_add(other.empty_polls);
        self.contended_retries = self
            .contended_retries
            .saturating_add(other.contended_retries);
        self.refusals = self.refusals.saturating_add(other.refusals);
    }
}

/// A queue's internal layout, returned by [`SharedPq::topology`]: the
/// MultiQueue reports its lane and shard counts, centralized structures the
/// trivial [`QueueTopology::centralized`] shape. Both are fixed at
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueTopology {
    /// Number of lanes (the paper's `n`).
    pub lanes: usize,
    /// Insert shard count the lanes are partitioned into.
    pub shards: usize,
}

impl QueueTopology {
    /// The shape of a centralized (single-structure) queue: one lane, one
    /// shard. The default for every backend without lanes.
    pub fn centralized() -> Self {
        Self {
            lanes: 1,
            shards: 1,
        }
    }
}

/// An owned, single-session view of a [`SharedPq`].
///
/// All methods take `&mut self`: a handle is owned by exactly one logical
/// thread of execution and carries that session's private state (RNG, logs).
/// The underlying queue handles cross-handle synchronisation; handles never
/// need external locking. A handle holds no elements of its own: every
/// insert has reached the shared structure when its call returns.
pub trait PqHandle<V>: Send {
    /// Inserts an entry.
    ///
    /// # Panics
    ///
    /// Panics if `key == Key::MAX` (see [`check_key`]).
    fn insert(&mut self, key: Key, value: V);

    /// Inserts every entry of `items` in order, leaving `items` empty (its
    /// capacity is kept, so one buffer can be reused across calls).
    ///
    /// The default implementation [`insert`](PqHandle::insert)s each entry
    /// in turn. The MultiQueue overrides it to take one lock per lane the
    /// entries drew rather than one per entry: every entry still draws its
    /// own lane exactly as `insert` would, so where the entries land is
    /// unchanged, but `b` entries over `n` lanes lock only the
    /// `n · (1 − (1 − 1/n)^b)` distinct lanes they draw on average.
    ///
    /// # Panics
    ///
    /// Panics if any key is `Key::MAX` (see [`check_key`]).
    fn insert_all(&mut self, items: &mut Vec<(Key, V)>) {
        for (key, value) in items.drain(..) {
            self.insert(key, value);
        }
    }

    /// Removes an entry with a small key.
    ///
    /// For *exact* implementations this is the global minimum; for *relaxed*
    /// implementations (the point of the paper) it is an element whose rank
    /// among all present elements is small in expectation. Returns `None`
    /// when the structure is observed empty; because of concurrency this is a
    /// best-effort emptiness check, and callers that need a linearizable
    /// emptiness test should quiesce first.
    fn delete_min(&mut self) -> Option<(Key, V)>;

    /// Removes up to `max` small-keyed entries in one batched operation,
    /// appending them to `out` and returning how many were appended.
    ///
    /// The default implementation loops [`delete_min`](PqHandle::delete_min)
    /// `max` times, which is correct for every queue; implementations with a
    /// cheaper bulk path (the MultiQueue drains one lane under a single lock)
    /// override it. A batch may legitimately return fewer than `max` entries
    /// while the structure is non-empty — batching trades exhaustiveness for
    /// amortised synchronisation — but a non-empty structure always yields at
    /// least one entry.
    ///
    /// Statistics: a batch that returns `0` entries counts as one failed
    /// removal in [`stats`](PqHandle::stats). Because the default
    /// implementation detects the end of a partial batch by a `delete_min`
    /// that comes back empty, it *also* records one failed removal when a
    /// non-empty batch stops early at an exhausted structure; bulk overrides
    /// (the MultiQueue) stop at the lane boundary instead and record none.
    /// Compare failed-removal counts across queue types accordingly.
    ///
    /// `out` is caller-owned and only appended to, so callers can reuse one
    /// buffer across calls.
    fn delete_min_batch_into(&mut self, max: usize, out: &mut Vec<(Key, V)>) -> usize {
        let before = out.len();
        for _ in 0..max {
            match self.delete_min() {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
        out.len() - before
    }

    /// This session's operation counters.
    fn stats(&self) -> HandleStats;

    /// Drains the rank-instrumentation log collected so far (timestamped
    /// removals in the Section 5 methodology). Empty unless the handle was
    /// registered with an instrumenting policy.
    fn take_log(&mut self) -> Vec<TimestampedRemoval> {
        Vec::new()
    }
}

impl<V, H: PqHandle<V> + ?Sized> PqHandle<V> for Box<H> {
    fn insert(&mut self, key: Key, value: V) {
        (**self).insert(key, value);
    }
    fn insert_all(&mut self, items: &mut Vec<(Key, V)>) {
        (**self).insert_all(items);
    }
    fn delete_min(&mut self) -> Option<(Key, V)> {
        (**self).delete_min()
    }
    fn delete_min_batch_into(&mut self, max: usize, out: &mut Vec<(Key, V)>) -> usize {
        (**self).delete_min_batch_into(max, out)
    }
    fn stats(&self) -> HandleStats {
        (**self).stats()
    }
    fn take_log(&mut self) -> Vec<TimestampedRemoval> {
        (**self).take_log()
    }
}

/// A thread-safe (relaxed or exact) min-priority queue operated through
/// registered session handles.
///
/// This is the interface the parallel Dijkstra application and the benchmark
/// harness program against; every structure the paper compares (MultiQueue
/// variants, the skiplist queue, the k-LSM-style queue, the coarse-locked
/// heap) implements it.
pub trait SharedPq<V>: Send + Sync {
    /// The session handle type; borrows the queue, so it is naturally used
    /// with scoped threads (or from behind an `Arc` kept alive by the
    /// caller).
    type Handle<'q>: PqHandle<V>
    where
        Self: 'q;

    /// Opens a new session on this queue.
    ///
    /// Registration is cheap (an atomic id allocation plus RNG seeding where
    /// applicable) but not free; callers should register once per worker, not
    /// once per operation.
    ///
    /// # Example
    ///
    /// ```
    /// use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
    ///
    /// let queue = MultiQueue::<u32>::new(MultiQueueConfig::for_threads(2));
    /// // One session per logical worker; all operations go through it.
    /// let mut session = queue.register();
    /// session.insert(7, 70);
    /// assert_eq!(session.delete_min(), Some((7, 70)));
    /// assert_eq!(session.stats().removals, 1);
    /// ```
    fn register(&self) -> Self::Handle<'_>;

    /// An approximate element count (exact when the structure is quiescent).
    fn approx_len(&self) -> usize;

    /// Whether the structure appears empty (same caveats as
    /// [`approx_len`](SharedPq::approx_len)).
    fn is_empty(&self) -> bool {
        self.approx_len() == 0
    }

    /// The structure's internal layout (lanes and shards). The default
    /// reports the trivial [`QueueTopology::centralized`] shape; the
    /// MultiQueue overrides it with its lane and shard counts.
    fn topology(&self) -> QueueTopology {
        QueueTopology::centralized()
    }

    /// A short human-readable name used in benchmark tables.
    fn name(&self) -> String;
}

/// Object-safe form of [`SharedPq`] for registries holding heterogeneous
/// queues behind one pointer type (`Arc<dyn DynSharedPq<V>>`).
///
/// Every `SharedPq` automatically implements it, and `dyn DynSharedPq<V>`
/// itself implements [`SharedPq`] (with boxed handles), so generic consumers
/// like `parallel_sssp` accept both concrete and erased queues.
pub trait DynSharedPq<V: 'static>: Send + Sync {
    /// Opens a new boxed session on this queue.
    fn register_dyn(&self) -> Box<dyn PqHandle<V> + '_>;

    /// See [`SharedPq::approx_len`]. (The `_dyn` suffix keeps concrete queue
    /// types unambiguous when both traits are in scope; on an erased queue,
    /// prefer the [`SharedPq`] methods, which `dyn DynSharedPq` implements.)
    fn approx_len_dyn(&self) -> usize;

    /// See [`SharedPq::is_empty`].
    fn is_empty_dyn(&self) -> bool;

    /// See [`SharedPq::topology`].
    fn topology_dyn(&self) -> QueueTopology;

    /// See [`SharedPq::name`].
    fn name_dyn(&self) -> String;
}

impl<V: 'static, Q: SharedPq<V>> DynSharedPq<V> for Q {
    fn register_dyn(&self) -> Box<dyn PqHandle<V> + '_> {
        Box::new(self.register())
    }
    fn approx_len_dyn(&self) -> usize {
        SharedPq::approx_len(self)
    }
    fn is_empty_dyn(&self) -> bool {
        SharedPq::is_empty(self)
    }
    fn topology_dyn(&self) -> QueueTopology {
        SharedPq::topology(self)
    }
    fn name_dyn(&self) -> String {
        SharedPq::name(self)
    }
}

impl<V: 'static> SharedPq<V> for dyn DynSharedPq<V> {
    type Handle<'q> = Box<dyn PqHandle<V> + 'q>;

    fn register(&self) -> Self::Handle<'_> {
        self.register_dyn()
    }
    fn approx_len(&self) -> usize {
        self.approx_len_dyn()
    }
    fn is_empty(&self) -> bool {
        self.is_empty_dyn()
    }
    fn topology(&self) -> QueueTopology {
        self.topology_dyn()
    }
    fn name(&self) -> String {
        self.name_dyn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A trivially synchronised reference implementation used to check the
    /// trait contracts and the dyn-erasure layer.
    struct Locked(std::sync::Mutex<Vec<(Key, u64)>>);

    /// Borrowed session over [`Locked`]; counts its own operations.
    struct LockedHandle<'q> {
        queue: &'q Locked,
        stats: HandleStats,
    }

    impl Locked {
        fn new() -> Self {
            Self(std::sync::Mutex::new(Vec::new()))
        }
    }

    impl SharedPq<u64> for Locked {
        type Handle<'q> = LockedHandle<'q>;
        fn register(&self) -> LockedHandle<'_> {
            LockedHandle {
                queue: self,
                stats: HandleStats::default(),
            }
        }
        fn approx_len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn name(&self) -> String {
            "locked-vec".to_string()
        }
    }

    impl PqHandle<u64> for LockedHandle<'_> {
        fn insert(&mut self, key: Key, value: u64) {
            check_key(key);
            self.stats.inserts += 1;
            self.queue.0.lock().unwrap().push((key, value));
        }
        fn delete_min(&mut self) -> Option<(Key, u64)> {
            let mut items = self.queue.0.lock().unwrap();
            let idx = items
                .iter()
                .enumerate()
                .min_by_key(|(_, (k, _))| *k)
                .map(|(i, _)| i);
            match idx {
                Some(i) => {
                    self.stats.removals += 1;
                    Some(items.swap_remove(i))
                }
                None => {
                    // A locked scan that finds nothing is a quiescent-empty
                    // observation, not a lost race.
                    self.stats.failed_removals += 1;
                    self.stats.empty_polls += 1;
                    None
                }
            }
        }
        fn stats(&self) -> HandleStats {
            self.stats
        }
    }

    #[test]
    fn register_insert_delete_roundtrip() {
        let q = Locked::new();
        let mut h = q.register();
        assert!(q.is_empty());
        h.insert(3, 30);
        h.insert(1, 10);
        assert_eq!(q.approx_len(), 2);
        assert_eq!(h.delete_min(), Some((1, 10)));
        assert_eq!(h.delete_min(), Some((3, 30)));
        assert_eq!(h.delete_min(), None);
        assert_eq!(
            h.stats(),
            HandleStats {
                inserts: 2,
                removals: 2,
                failed_removals: 1,
                empty_polls: 1,
                contended_retries: 0,
                refusals: 0,
            }
        );
        assert_eq!(h.stats().operations(), 5, "retries are not operations");
        assert!(h.take_log().is_empty(), "no instrumentation by default");
    }

    #[test]
    fn default_batch_impl_loops_delete_min() {
        let q = Locked::new();
        let mut h = q.register();
        for k in [4u64, 2, 9, 1] {
            h.insert(k, k * 10);
        }
        let mut out = Vec::new();
        // The default implementation keeps popping across the whole structure.
        assert_eq!(h.delete_min_batch_into(3, &mut out), 3);
        assert_eq!(out, vec![(1, 10), (2, 20), (4, 40)]);
        // Reuses the same buffer, appending.
        assert_eq!(h.delete_min_batch_into(8, &mut out), 1);
        assert_eq!(out.len(), 4);
        assert_eq!(h.stats().removals, 4);
        // Batch of zero touches nothing.
        assert_eq!(h.delete_min_batch_into(0, &mut out), 0);
    }

    #[test]
    fn two_handles_share_one_queue() {
        let q = Locked::new();
        let mut a = q.register();
        let mut b = q.register();
        a.insert(5, 50);
        assert_eq!(b.delete_min(), Some((5, 50)));
    }

    #[test]
    #[should_panic(expected = "reserved as the empty-lane sentinel")]
    fn reserved_key_is_rejected() {
        let q = Locked::new();
        q.register().insert(Key::MAX, 0);
    }

    #[test]
    fn dyn_erasure_round_trips() {
        let q: Arc<dyn DynSharedPq<u64>> = Arc::new(Locked::new());
        let mut h = q.register_dyn();
        h.insert(2, 20);
        h.insert(7, 70);
        assert_eq!(q.approx_len(), 2);
        assert_eq!(h.delete_min(), Some((2, 20)));
        assert_eq!(q.name(), "locked-vec");
        // The erased queue is itself a SharedPq, so generic consumers work.
        fn generic_drain<Q: SharedPq<u64> + ?Sized>(q: &Q) -> usize {
            let mut h = q.register();
            let mut n = 0;
            while h.delete_min().is_some() {
                n += 1;
            }
            n
        }
        assert_eq!(generic_drain(&*q), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn boxed_handles_forward_everything() {
        let q = Locked::new();
        let mut h: Box<dyn PqHandle<u64> + '_> = Box::new(q.register());
        h.insert(9, 90);
        assert_eq!(h.delete_min(), Some((9, 90)));
        h.insert(3, 30);
        let mut out = Vec::new();
        assert_eq!(h.delete_min_batch_into(4, &mut out), 1);
        assert_eq!(out, vec![(3, 30)]);
        assert_eq!(h.stats().inserts, 2);
        assert!(h.take_log().is_empty());
    }

    #[test]
    fn stats_merge_accumulates_every_counter() {
        let mut total = HandleStats::default();
        let a = HandleStats {
            inserts: 3,
            removals: 2,
            failed_removals: 1,
            empty_polls: 1,
            contended_retries: 7,
            refusals: 4,
        };
        let b = HandleStats {
            inserts: 10,
            removals: 20,
            failed_removals: 30,
            empty_polls: 25,
            contended_retries: 0,
            refusals: 40,
        };
        total.merge(&a);
        total.merge(&b);
        assert_eq!(
            total,
            HandleStats {
                inserts: 13,
                removals: 22,
                failed_removals: 31,
                empty_polls: 26,
                contended_retries: 7,
                refusals: 44,
            }
        );
        // Merging an empty stats value is the identity.
        let before = total;
        total.merge(&HandleStats::default());
        assert_eq!(total, before);
    }

    /// Pins the intended overflow behaviour of [`HandleStats::merge`]:
    /// **saturating**, per field, never wrapping and never panicking. A
    /// long-lived server folds per-session counters forever; a pathological
    /// (or adversarial) session must degrade the aggregate to a pinned
    /// `u64::MAX`, not wrap it back to a small number or abort a debug
    /// build.
    #[test]
    fn stats_merge_saturates_every_field_independently() {
        let maxed = HandleStats {
            inserts: u64::MAX,
            removals: u64::MAX,
            failed_removals: u64::MAX,
            empty_polls: u64::MAX,
            contended_retries: u64::MAX,
            refusals: u64::MAX,
        };
        let small = HandleStats {
            inserts: 1,
            removals: 2,
            failed_removals: 3,
            empty_polls: 4,
            contended_retries: 5,
            refusals: 6,
        };
        // MAX + anything pins at MAX (both merge directions).
        let mut a = maxed;
        a.merge(&small);
        assert_eq!(a, maxed, "saturation must pin, not wrap");
        let mut b = small;
        b.merge(&maxed);
        assert_eq!(b, maxed);
        // Each field saturates independently: overflow one, the others add
        // normally.
        for field in 0..6usize {
            let mut near = HandleStats::default();
            fn pick_field(field: usize) -> impl Fn(&mut HandleStats) -> &mut u64 {
                move |s| match field {
                    0 => &mut s.inserts,
                    1 => &mut s.removals,
                    2 => &mut s.failed_removals,
                    3 => &mut s.empty_polls,
                    4 => &mut s.contended_retries,
                    _ => &mut s.refusals,
                }
            }
            let pick = pick_field(field);
            *pick(&mut near) = u64::MAX - 1;
            near.merge(&small);
            assert_eq!(*pick(&mut near), u64::MAX, "field {field} must saturate");
            let mut expected = small;
            *pick(&mut expected) = u64::MAX;
            assert_eq!(near, expected, "field {field}: the others add normally");
        }
        // Saturation composes: once pinned, further merges stay pinned.
        let mut pinned = maxed;
        pinned.merge(&small);
        pinned.merge(&small);
        assert_eq!(pinned, maxed);
    }

    #[test]
    fn default_topology_is_the_centralized_shape() {
        let q = Locked::new();
        let shape = q.topology();
        assert_eq!(shape, QueueTopology::centralized());
        assert_eq!(shape.lanes, 1);
        assert_eq!(shape.shards, 1);
        // Through the erased form too.
        let e: &dyn DynSharedPq<u64> = &q;
        assert_eq!(e.topology_dyn(), QueueTopology::centralized());
        assert_eq!(SharedPq::topology(e), QueueTopology::centralized());
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>(_: T) {}
        let q = Locked::new();
        assert_send(q.register());
    }
}
