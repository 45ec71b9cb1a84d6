//! Array-backed 4-ary min-heap.
//!
//! This is the lane heap of the concurrent MultiQueue, and the exact heap of
//! the coarse-lock and k-LSM baselines and of the Dijkstra oracle. It is
//! written from scratch (rather than wrapping `std::collections::BinaryHeap`)
//! so that we control tie-breaking, expose `peek_key` without constructing a
//! `Reverse` wrapper, and keep insertion-order stability for equal keys —
//! useful when the sequential process inserts strictly increasing labels and
//! we want deterministic behaviour for duplicate priorities in applications.
//!
//! # Layout
//!
//! The entries form an implicit tree with four children per node: the parent
//! of slot `i` is `(i - 1) / 4` and its children are `4i + 1 ..= 4i + 4`, as in
//! the d-ary heaps of the paper's artifact. The tree is half as deep as a
//! binary one (a lane of 250 000 entries has 10 levels instead of 18), so a
//! push's sift-up crosses at most half as many levels, each a
//! hard-to-predict branch, and a pop's sift-down, which runs from the root
//! towards a leaf, makes at most half as many moves, each picking the least
//! of up to four adjacent children (LaMarca and Ladner, "The influence of
//! caches on the performance of heaps", 1996).
//!
//! Entries are ordered by `(key, insertion sequence)`, a total order, so the
//! pop sequence is the stable sort of the pushes, whatever the layout.
//!
//! # Capacity
//!
//! The backing `Vec` grows by doubling as usual, and a pop hands drained
//! capacity back: when it leaves fewer than a quarter of the slots in use,
//! the capacity halves (the table contraction of CLRS §17.4). A halving
//! leaves the heap under half full, so at least a quarter of the new
//! capacity in pushes or pops passes before the capacity changes again:
//! both stay amortised O(1), and pushes and pops alternating at the
//! boundary do not reallocate each time. The capacity never drops below one
//! 4 KiB page of entries (170 entries of 24 bytes for a `u64` value) or
//! below what [`BinaryHeap::with_capacity`] reserved, whichever is larger.
//! So a lane drained after a burst frees its memory instead of keeping its
//! peak until it is dropped; the check costs one compare per pop.
//!
//! The type keeps the name `BinaryHeap`, which it had while the layout was
//! binary: it is the public name under which the façade prelude, the
//! baselines and the benchmark's bare-heap layer use it, and renaming it
//! would change those callers for no change in behaviour.

use crate::{Key, SequentialPriorityQueue};

/// Children per node.
const ARITY: usize = 4;

/// The least capacity a pop shrinks to, in bytes of entries.
const PAGE: usize = 4096;

/// An array-backed 4-ary min-heap of `(Key, V)` entries (see the
/// [module docs](crate::binary_heap) for the layout and the name).
///
/// Ties on `Key` are broken by insertion order (earlier insertions pop first),
/// which makes the structure stable and keeps runs reproducible.
#[derive(Clone, Debug)]
pub struct BinaryHeap<V> {
    // Each slot stores (key, sequence, value); `sequence` implements stability.
    entries: Vec<(Key, u64, V)>,
    next_sequence: u64,
    /// Capacity a pop never shrinks below: one page of entries, or the
    /// `with_capacity` reservation if larger.
    floor: usize,
}

impl<V> Default for BinaryHeap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BinaryHeap<V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty heap with space reserved for `capacity` entries,
    /// which pops keep reserved (see the [module docs](crate::binary_heap)).
    pub fn with_capacity(capacity: usize) -> Self {
        let entries = Vec::with_capacity(capacity);
        let page = PAGE / std::mem::size_of::<(Key, u64, V)>();
        Self {
            floor: page.max(entries.capacity()),
            entries,
            next_sequence: 0,
        }
    }

    /// Current capacity of the backing storage.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn less(&self, a: usize, b: usize) -> bool {
        let (ka, sa, _) = &self.entries[a];
        let (kb, sb, _) = &self.entries[b];
        (ka, sa) < (kb, sb)
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            if self.less(idx, parent) {
                self.entries.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let len = self.entries.len();
        loop {
            let first = ARITY * idx + 1;
            if first >= len {
                break;
            }
            let mut smallest = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.less(child, smallest) {
                    smallest = child;
                }
            }
            if !self.less(smallest, idx) {
                break;
            }
            self.entries.swap(idx, smallest);
            idx = smallest;
        }
    }

    /// Checks the heap invariant; used by tests and `debug_assert!`s.
    pub fn is_valid_heap(&self) -> bool {
        (1..self.entries.len()).all(|i| !self.less(i, (i - 1) / ARITY))
    }

    /// Iterates over all entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        self.entries.iter().map(|(k, _, v)| (*k, v))
    }
}

impl<V> SequentialPriorityQueue<V> for BinaryHeap<V> {
    fn push(&mut self, key: Key, value: V) {
        let seq = self.next_sequence;
        self.next_sequence += 1;
        self.entries.push((key, seq, value));
        self.sift_up(self.entries.len() - 1);
    }

    fn peek(&self) -> Option<(Key, &V)> {
        self.entries.first().map(|(k, _, v)| (*k, v))
    }

    fn peek_key(&self) -> Option<Key> {
        self.entries.first().map(|(k, _, _)| *k)
    }

    fn pop(&mut self) -> Option<(Key, V)> {
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let (key, _, value) = self.entries.pop().expect("checked non-empty");
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        let capacity = self.entries.capacity();
        if self.entries.len() < capacity / 4 && capacity > self.floor {
            self.entries.shrink_to(self.floor.max(capacity / 2));
        }
        Some((key, value))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next_sequence = 0;
    }
}

impl<V> FromIterator<(Key, V)> for BinaryHeap<V> {
    fn from_iter<I: IntoIterator<Item = (Key, V)>>(iter: I) -> Self {
        let mut heap = Self::new();
        for (k, v) in iter {
            heap.push(k, v);
        }
        heap
    }
}

impl<V> Extend<(Key, V)> for BinaryHeap<V> {
    fn extend<I: IntoIterator<Item = (Key, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.push(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_heap() {
        let mut h: BinaryHeap<()> = BinaryHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.peek_key(), None);
        assert_eq!(h.pop(), None);
        assert!(h.is_valid_heap());
    }

    #[test]
    fn push_pop_sorted_order() {
        let mut h = BinaryHeap::new();
        for k in [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 0] {
            h.push(k, k * 10);
        }
        assert!(h.is_valid_heap());
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            assert_eq!(v, k * 10);
            out.push(k);
        }
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = BinaryHeap::new();
        h.push(5, "first");
        h.push(5, "second");
        h.push(5, "third");
        assert_eq!(h.pop(), Some((5, "first")));
        assert_eq!(h.pop(), Some((5, "second")));
        assert_eq!(h.pop(), Some((5, "third")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = BinaryHeap::new();
        h.push(2, 'b');
        h.push(1, 'a');
        assert_eq!(h.peek(), Some((1, &'a')));
        assert_eq!(h.peek_key(), Some(1));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn clear_resets_state() {
        let mut h: BinaryHeap<u32> = (0..10u64).map(|k| (k, k as u32)).collect();
        assert_eq!(h.len(), 10);
        h.clear();
        assert!(h.is_empty());
        h.push(3, 3);
        assert_eq!(h.pop(), Some((3, 3)));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: BinaryHeap<&str> = vec![(3, "c"), (1, "a")].into_iter().collect();
        h.extend(vec![(2, "b")]);
        assert_eq!(h.pop(), Some((1, "a")));
        assert_eq!(h.pop(), Some((2, "b")));
        assert_eq!(h.pop(), Some((3, "c")));
    }

    #[test]
    fn interleaved_push_pop_maintains_invariant() {
        let mut h = BinaryHeap::new();
        for round in 0..50u64 {
            for k in 0..20u64 {
                h.push((k * 7919 + round * 104729) % 1000, ());
            }
            for _ in 0..10 {
                h.pop();
            }
            assert!(h.is_valid_heap());
        }
    }

    #[test]
    fn iter_visits_every_entry() {
        let h: BinaryHeap<u64> = (0..25u64).map(|k| (k, k)).collect();
        let mut keys: Vec<Key> = h.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..25).collect::<Vec<u64>>());
    }

    /// Entries of a `BinaryHeap<u64>` that fit in one page (170).
    const PAGE_OF_U64_ENTRIES: usize = PAGE / std::mem::size_of::<(Key, u64, u64)>();

    #[test]
    fn a_drained_heap_shrinks_to_a_page() {
        let mut h = BinaryHeap::new();
        for k in 0..100_000u64 {
            h.push(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20, k);
        }
        assert!(h.capacity() >= 100_000);
        let mut previous = None;
        while let Some((k, _)) = h.pop() {
            assert!(previous <= Some(k), "pop order broke while shrinking");
            previous = Some(k);
        }
        assert!(
            h.capacity() <= PAGE_OF_U64_ENTRIES,
            "a drained heap keeps {} slots",
            h.capacity()
        );
    }

    #[test]
    fn pushes_and_pops_at_the_boundary_do_not_reallocate_each_time() {
        let mut h = BinaryHeap::new();
        for k in 0..100_000u64 {
            h.push(k, ());
        }
        let full = h.capacity();
        while h.len() >= full / 4 {
            h.pop();
        }
        let mut capacities = vec![h.capacity()];
        for k in 0..10_000u64 {
            h.push(k, ());
            capacities.push(h.capacity());
            h.pop();
            capacities.push(h.capacity());
        }
        let changes = capacities.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes <= 2, "capacity changed {changes} times");
        assert!(h.is_valid_heap());
    }

    #[test]
    fn a_with_capacity_reservation_survives_a_drain() {
        let mut h = BinaryHeap::with_capacity(10_000);
        let reserved = h.capacity();
        assert!(reserved >= 10_000);
        // Fill the reservation exactly, then grow past it, draining each time.
        for n in [reserved, 3 * reserved] {
            for k in 0..n as u64 {
                h.push(k, k);
            }
            while h.pop().is_some() {}
            assert_eq!(h.capacity(), reserved, "after {n} pushes");
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_matches_sorted_input(keys in proptest::collection::vec(0u64..16, 0..300)) {
            // Keys from a small range, so ties are common; each value is its
            // insertion index, so the popped pairs show tie order at every
            // depth. Popping everything passes through every size below the
            // largest, and with it every `len % 4`.
            let mut heap = BinaryHeap::new();
            for (i, &k) in keys.iter().enumerate() {
                heap.push(k, i);
                prop_assert!(heap.is_valid_heap());
            }
            let mut popped = Vec::new();
            while let Some(entry) = heap.pop() {
                popped.push(entry);
                prop_assert!(heap.is_valid_heap());
            }
            let mut expected: Vec<(Key, usize)> = keys.iter().copied().zip(0..).collect();
            expected.sort_by_key(|&(k, _)| k); // stable: equal keys keep insertion order
            prop_assert_eq!(popped, expected);
        }

        #[test]
        fn prop_len_tracks_operations(ops in proptest::collection::vec(0u64..12, 0..400)) {
            // 0..8 = push that key (ties are common), 8..12 = pop: two pushes
            // to each pop, so the heap grows a few levels deep and its length
            // crosses every `len % 4` on the way up and down. Every pop is
            // checked against a `(key, seq)`-ordered model.
            let mut heap = BinaryHeap::new();
            let mut model = BTreeMap::new();
            for (seq, op) in ops.into_iter().enumerate() {
                if op < 8 {
                    heap.push(op, seq);
                    model.insert((op, seq), seq);
                } else {
                    let expected = model.pop_first().map(|((k, _), v)| (k, v));
                    prop_assert_eq!(heap.pop(), expected);
                }
                prop_assert_eq!(heap.len(), model.len());
                prop_assert!(heap.is_valid_heap());
            }
        }

        #[test]
        fn prop_peek_is_minimum(keys in proptest::collection::vec(0u64..1_000, 1..100)) {
            let heap: BinaryHeap<()> = keys.iter().map(|&k| (k, ())).collect();
            let min = *keys.iter().min().unwrap();
            prop_assert_eq!(heap.peek_key(), Some(min));
        }
    }
}
