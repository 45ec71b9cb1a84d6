//! One lane: a mutex-guarded sequential heap plus the two words lock-free
//! readers look at.
//!
//! A [`Lane`] is the paper's "sequential priority queue behind a lock"
//! (DESIGN.md §13). Next to the heap it caches two values that every
//! [`LaneGuard`] republishes, still under the lock, when it is released:
//!
//! - **`top`** — the lane minimum ([`EMPTY_TOP`] when empty), read with one
//!   relaxed load by the d-choice sampler, the steal scan's candidate pass
//!   and the rank probe. A stale value costs at most one retry: the sampler
//!   only uses it to pick a lane to `try_lock`, and the drain re-reads the
//!   heap under the lock.
//! - **`len`** — the heap's element count. [`MultiQueue::approx_len`]
//!   sums these instead of keeping a queue-wide counter, so no operation
//!   writes a cache line that other lanes' operations also write.
//!
//! [`MultiQueue::approx_len`]: crate::SharedPq::approx_len

use std::ops::{Deref, DerefMut};

use seq_pq::{BinaryHeap, SequentialPriorityQueue};

use crate::sync::{AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};

/// Sentinel published in a lane's cached top when the lane holds no
/// element. Inserting `u64::MAX` as a key is rejected at the API boundary
/// (`check_key`) so the sentinel is unambiguous.
pub(crate) const EMPTY_TOP: u64 = u64::MAX;

/// One lane: the locked heap and its published top and length.
#[derive(Debug)]
pub(crate) struct Lane<V> {
    heap: Mutex<BinaryHeap<V>>,
    /// Cached minimum key, [`EMPTY_TOP`] when the lane is empty.
    top: AtomicU64,
    /// Cached element count.
    len: AtomicUsize,
}

impl<V> Lane<V> {
    pub(crate) fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            top: AtomicU64::new(EMPTY_TOP),
            len: AtomicUsize::new(0),
        }
    }

    /// Takes the lane lock if it is free.
    pub(crate) fn try_lock(&self) -> Option<LaneGuard<'_, V>> {
        let heap = self.heap.try_lock()?;
        Some(LaneGuard { lane: self, heap })
    }

    /// Takes the lane lock, blocking until the holder releases it. Only the
    /// fallbacks (an insert whose retry budget ran out, the steal scan) and
    /// [`MultiQueue::with_lane_locked`](crate::MultiQueue::with_lane_locked)
    /// block.
    pub(crate) fn lock(&self) -> LaneGuard<'_, V> {
        LaneGuard {
            lane: self,
            heap: self.heap.lock(),
        }
    }

    /// The top published by the last released guard.
    pub(crate) fn top(&self) -> u64 {
        self.top.load(Ordering::Relaxed)
    }

    /// The length published by the last released guard.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// The lane lock, held; dereferences to the heap. Dropping it publishes the
/// heap's top and length before the lock is released.
pub(crate) struct LaneGuard<'a, V> {
    lane: &'a Lane<V>,
    heap: MutexGuard<'a, BinaryHeap<V>>,
}

impl<V> Deref for LaneGuard<'_, V> {
    type Target = BinaryHeap<V>;
    fn deref(&self) -> &BinaryHeap<V> {
        &self.heap
    }
}

impl<V> DerefMut for LaneGuard<'_, V> {
    fn deref_mut(&mut self) -> &mut BinaryHeap<V> {
        &mut self.heap
    }
}

impl<V> Drop for LaneGuard<'_, V> {
    fn drop(&mut self) {
        // Runs before the `heap` field's guard drops, so both stores are
        // made under the lock: each lane has one writer at a time.
        let top = self.heap.peek_key().unwrap_or(EMPTY_TOP);
        self.lane.top.store(top, Ordering::Relaxed);
        self.lane.len.store(self.heap.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lock_is_exclusive() {
        let lane: Lane<u32> = Lane::new();
        let g = lane.try_lock().expect("uncontended");
        assert!(lane.try_lock().is_none());
        drop(g);
        assert!(lane.try_lock().is_some());
    }

    #[test]
    fn release_publishes_top_and_len() {
        let lane: Lane<u32> = Lane::new();
        {
            let mut g = lane.lock();
            g.push(7, 70);
            g.push(5, 50);
            // Nothing is published while the lock is held.
            assert_eq!((lane.top(), lane.len()), (EMPTY_TOP, 0));
        }
        assert_eq!((lane.top(), lane.len()), (5, 2));
        {
            let mut g = lane.try_lock().expect("uncontended");
            assert_eq!(g.pop(), Some((5, 50)));
            assert_eq!(g.pop(), Some((7, 70)));
        }
        assert_eq!((lane.top(), lane.len()), (EMPTY_TOP, 0));
    }
}
