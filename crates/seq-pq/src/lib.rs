//! Sequential priority queue substrates.
//!
//! The MultiQueue of the paper is built from `n` *sequential* priority queues,
//! each protected by its own lock (the original implementation uses boost
//! d-ary heaps). This crate provides two interchangeable sequential
//! implementations behind the [`SequentialPriorityQueue`] trait:
//!
//! * [`BinaryHeap`] — an array-backed 4-ary min-heap, like the artifact's;
//!   the lane heap of the concurrent MultiQueue. It keeps the name it had
//!   while it was binary, since the façade, the baselines and the benchmark
//!   use it by that name and the pop order did not change (ties still pop
//!   in insertion order). A pop that leaves it under a quarter full halves
//!   its capacity, down to a page of entries or its `with_capacity`
//!   reservation.
//! * [`SkipListPq`] — a randomized skiplist keeping all
//!   elements in sorted order, mirroring the structure used by skiplist-based
//!   concurrent priority queues such as Linden–Jonsson.
//!
//! All queues are **min**-queues over `(key, value)` pairs: `pop` returns the
//! entry with the smallest key, matching the paper's convention that a smaller
//! label means a higher priority.
//!
//! # Example
//!
//! ```
//! use seq_pq::{BinaryHeap, SequentialPriorityQueue};
//!
//! let mut pq = BinaryHeap::new();
//! pq.push(30, "c");
//! pq.push(10, "a");
//! pq.push(20, "b");
//! assert_eq!(pq.peek(), Some((10, &"a")));
//! assert_eq!(pq.pop(), Some((10, "a")));
//! assert_eq!(pq.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_heap;
pub mod skiplist;

pub use binary_heap::BinaryHeap;
pub use skiplist::SkipListPq;

/// The priority key type used throughout the workspace.
///
/// Smaller keys are higher priority. `u64` covers timestamps, path distances
/// and the strictly increasing labels of the sequential process.
pub type Key = u64;

/// A sequential min-priority queue over `(Key, V)` entries.
///
/// Implementations are not thread-safe by themselves; the concurrent
/// MultiQueue wraps each instance in its own lock.
pub trait SequentialPriorityQueue<V> {
    /// Inserts an entry.
    fn push(&mut self, key: Key, value: V);

    /// Returns the minimum-key entry without removing it.
    fn peek(&self) -> Option<(Key, &V)>;

    /// Returns the minimum key without removing it (cheaper than [`Self::peek`]
    /// for implementations that cache it).
    fn peek_key(&self) -> Option<Key> {
        self.peek().map(|(k, _)| k)
    }

    /// Removes and returns the minimum-key entry.
    fn pop(&mut self) -> Option<(Key, V)>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Returns `true` if the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries.
    fn clear(&mut self);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: SequentialPriorityQueue<u64> + Default>() {
        let mut q = Q::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        q.push(5, 50);
        q.push(3, 30);
        q.push(8, 80);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_key(), Some(3));
        assert_eq!(q.pop(), Some((3, 30)));
        assert_eq!(q.pop(), Some((5, 50)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn all_backends_satisfy_the_trait_contract() {
        exercise::<BinaryHeap<u64>>();
        exercise::<SkipListPq<u64>>();
    }
}
