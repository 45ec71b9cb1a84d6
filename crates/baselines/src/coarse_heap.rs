//! A single 4-ary heap (`seq_pq::BinaryHeap`) behind one global lock.
//!
//! The simplest *exact* concurrent priority queue. Every operation serialises
//! on the one lock, so throughput is flat (or falls) as threads are added —
//! the sequential bottleneck that the impossibility results cited in the
//! paper's introduction make unavoidable for exact semantics, and the reason
//! relaxed designs like the MultiQueue exist.
//!
//! The structure is *flat* (sessions carry no private state), so its
//! [`SharedPq`] implementation hands out [`FlatHandle`] sessions via
//! [`FlatOps`].

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use choice_pq::{FlatHandle, FlatOps, Key, SharedPq};
use seq_pq::{BinaryHeap, SequentialPriorityQueue};

/// An exact concurrent priority queue: one lock, one heap.
#[derive(Debug)]
pub struct CoarseHeap<V> {
    heap: Mutex<BinaryHeap<V>>,
    len: AtomicUsize,
}

impl<V> CoarseHeap<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Creates an empty queue with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::with_capacity(capacity)),
            len: AtomicUsize::new(0),
        }
    }
}

impl<V> Default for CoarseHeap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Send> FlatOps<V> for CoarseHeap<V> {
    fn flat_insert(&self, key: Key, value: V) {
        let mut heap = self.heap.lock();
        heap.push(key, value);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    fn flat_delete_min(&self) -> Option<(Key, V)> {
        let mut heap = self.heap.lock();
        let popped = heap.pop();
        if popped.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }
}

impl<V: Send> SharedPq<V> for CoarseHeap<V> {
    type Handle<'q>
        = FlatHandle<'q, Self, V>
    where
        Self: 'q;

    fn register(&self) -> Self::Handle<'_> {
        FlatHandle::new(self)
    }

    fn approx_len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn name(&self) -> String {
        "coarse-locked-heap".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choice_pq::PqHandle;
    use std::collections::HashSet;

    #[test]
    fn exact_semantics_sequentially() {
        let q = CoarseHeap::new();
        let mut h = q.register();
        for k in [9u64, 2, 7, 4, 1] {
            h.insert(k, k * 10);
        }
        assert_eq!(q.approx_len(), 5);
        let mut out = Vec::new();
        while let Some((k, v)) = h.delete_min() {
            assert_eq!(v, k * 10);
            out.push(k);
        }
        assert_eq!(out, vec![1, 2, 4, 7, 9]);
        assert!(q.is_empty());
        assert_eq!(h.delete_min(), None);
        assert_eq!(q.name(), "coarse-locked-heap");
        assert_eq!(h.stats().inserts, 5);
        assert_eq!(h.stats().removals, 5);
    }

    #[test]
    fn concurrent_conservation() {
        let threads = 4;
        let per_thread = 2_000u64;
        let q = CoarseHeap::with_capacity(1024);
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
                        if i % 3 == 2 {
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
        let mut all: HashSet<u64> = removed.into_iter().collect();
        let mut h = q.register();
        while let Some((k, _)) = h.delete_min() {
            assert!(all.insert(k), "duplicate key {k}");
        }
        assert_eq!(all.len() as u64, threads as u64 * per_thread);
    }

    #[test]
    fn exactness_under_interleaving() {
        // Because the heap is exact, a delete_min never returns a key larger
        // than one that is still present from an earlier insert batch.
        let q = CoarseHeap::new();
        let mut h = q.register();
        h.insert(100, ());
        h.insert(1, ());
        assert_eq!(h.delete_min().map(|(k, _)| k), Some(1));
        h.insert(50, ());
        assert_eq!(h.delete_min().map(|(k, _)| k), Some(50));
        assert_eq!(h.delete_min().map(|(k, _)| k), Some(100));
    }

    #[test]
    #[should_panic(expected = "reserved as the empty-lane sentinel")]
    fn reserved_key_rejected() {
        let q = CoarseHeap::new();
        q.register().insert(u64::MAX, ());
    }
}
