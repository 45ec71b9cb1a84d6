//! Order-statistics multiset over a bounded integer universe.
//!
//! The sequential process inserts labels `0..M` and repeatedly asks: "what is
//! the rank of label `x` among the labels still present?" and "which label is
//! currently the `k`-th smallest?". [`OrderStatisticsSet`] answers both in
//! `O(log M)` using a [`FenwickTree`], and grows
//! its universe on demand so callers never need to pre-declare `M`.

use crate::fenwick::FenwickTree;

/// A multiset of `u64` keys from a bounded universe supporting rank and select.
///
/// Ranks are 1-based, matching the paper's convention that the best possible
/// removal has rank 1.
#[derive(Clone, Debug, Default)]
pub struct OrderStatisticsSet {
    tree: FenwickTree,
    len: u64,
}

impl OrderStatisticsSet {
    /// Creates an empty set with capacity for keys in `[0, capacity)`.
    ///
    /// The capacity grows automatically when larger keys are inserted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tree: FenwickTree::new(capacity),
            len: 0,
        }
    }

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Number of elements currently stored (counting multiplicity).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn ensure_capacity(&mut self, key: u64) {
        let needed = key as usize + 1;
        if needed > self.tree.len() {
            // Geometric growth, rebuilding the tree from the old prefix sums.
            let new_len = needed.next_power_of_two().max(64);
            let mut counts = vec![0u64; new_len];
            for (i, count) in counts.iter_mut().enumerate().take(self.tree.len()) {
                *count = self.tree.range_sum(i, i);
            }
            self.tree = FenwickTree::from_counts(&counts);
        }
    }

    /// Inserts one occurrence of `key`.
    pub fn insert(&mut self, key: u64) {
        self.ensure_capacity(key);
        self.tree.add(key as usize, 1);
        self.len += 1;
    }

    /// Removes one occurrence of `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        if (key as usize) >= self.tree.len() || self.count(key) == 0 {
            return false;
        }
        self.tree.sub(key as usize, 1);
        self.len -= 1;
        true
    }

    /// Number of stored occurrences of `key`.
    pub fn count(&self, key: u64) -> u64 {
        if (key as usize) >= self.tree.len() {
            0
        } else {
            self.tree.range_sum(key as usize, key as usize)
        }
    }

    /// Returns `true` if at least one occurrence of `key` is stored.
    pub fn contains(&self, key: u64) -> bool {
        self.count(key) > 0
    }

    /// The 1-based rank of `key`: the number of stored elements with value
    /// `<= key` (including `key` itself if present). This matches the paper's
    /// definition "the number of elements currently in the system which have
    /// lower label than it (including itself)".
    pub fn rank(&self, key: u64) -> u64 {
        if self.tree.is_empty() {
            return 0;
        }
        let idx = (key as usize).min(self.tree.len() - 1);
        self.tree.prefix_sum(idx)
    }

    /// Returns the `k`-th smallest stored key (0-based), or `None` if `k >= len()`.
    pub fn select(&self, k: u64) -> Option<u64> {
        if k >= self.len {
            return None;
        }
        self.tree.find_by_prefix(k + 1).map(|i| i as u64)
    }

    /// The smallest stored key, if any.
    pub fn min(&self) -> Option<u64> {
        self.select(0)
    }

    /// The largest stored key, if any.
    pub fn max(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            self.select(self.len - 1)
        }
    }

    /// Removes and returns the rank of `key` in a single operation: the common
    /// pattern when charging a removal its rank cost.
    ///
    /// Returns `None` (and does not modify the set) if `key` is not present.
    pub fn remove_and_rank(&mut self, key: u64) -> Option<u64> {
        if !self.contains(key) {
            return None;
        }
        let r = self.rank(key);
        self.remove(key);
        Some(r)
    }
}

impl FromIterator<u64> for OrderStatisticsSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut set = Self::new();
        for k in iter {
            set.insert(k);
        }
        set
    }
}

impl Extend<u64> for OrderStatisticsSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RandomSource, Xoshiro256};
    use std::collections::BTreeMap;

    #[test]
    fn empty_set_queries() {
        let s = OrderStatisticsSet::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.rank(10), 0);
        assert_eq!(s.select(0), None);
        assert_eq!(s.count(3), 0);
    }

    #[test]
    fn insert_rank_select_roundtrip() {
        let mut s = OrderStatisticsSet::with_capacity(16);
        for k in [5u64, 1, 9, 3, 7] {
            s.insert(k);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(9));
        assert_eq!(s.rank(1), 1);
        assert_eq!(s.rank(5), 3);
        assert_eq!(s.rank(9), 5);
        assert_eq!(s.rank(6), 3); // 1,3,5 are <= 6
        assert_eq!(s.select(0), Some(1));
        assert_eq!(s.select(2), Some(5));
        assert_eq!(s.select(4), Some(9));
        assert_eq!(s.select(5), None);
    }

    #[test]
    fn duplicates_are_counted() {
        let mut s = OrderStatisticsSet::new();
        s.insert(4);
        s.insert(4);
        s.insert(4);
        assert_eq!(s.count(4), 3);
        assert_eq!(s.rank(4), 3);
        assert!(s.remove(4));
        assert_eq!(s.count(4), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut s = OrderStatisticsSet::new();
        s.insert(2);
        assert!(!s.remove(3));
        assert!(!s.remove(100_000));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_and_rank_charges_correct_cost() {
        let mut s: OrderStatisticsSet = (0..10u64).collect();
        // Removing the minimum costs rank 1.
        assert_eq!(s.remove_and_rank(0), Some(1));
        // Now removing key 5 costs rank 5 (1,2,3,4,5 remain below or equal).
        assert_eq!(s.remove_and_rank(5), Some(5));
        assert_eq!(s.remove_and_rank(5), None);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn capacity_grows_on_demand() {
        let mut s = OrderStatisticsSet::with_capacity(4);
        s.insert(2);
        s.insert(1_000);
        s.insert(70_000);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max(), Some(70_000));
        assert_eq!(s.rank(1_000), 2);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: OrderStatisticsSet = vec![3u64, 1, 2].into_iter().collect();
        s.extend([10u64, 0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.select(0), Some(0));
        assert_eq!(s.select(4), Some(10));
    }

    #[test]
    fn randomized_against_btreemap_reference() {
        let mut rng = Xoshiro256::seeded(2718);
        let mut set = OrderStatisticsSet::with_capacity(64);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let universe = 200u64;
        for _ in 0..3_000 {
            let key = rng.next_below(universe);
            if rng.next_bool(0.6) {
                set.insert(key);
                *reference.entry(key).or_insert(0) += 1;
            } else {
                let expected = reference.get(&key).copied().unwrap_or(0) > 0;
                assert_eq!(set.remove(key), expected);
                if expected {
                    let c = reference.get_mut(&key).unwrap();
                    *c -= 1;
                    if *c == 0 {
                        reference.remove(&key);
                    }
                }
            }
            // Spot-check rank and select against the reference.
            let probe = rng.next_below(universe);
            let expected_rank: u64 = reference
                .iter()
                .filter(|(k, _)| **k <= probe)
                .map(|(_, c)| *c)
                .sum();
            assert_eq!(set.rank(probe), expected_rank);
            let total: u64 = reference.values().sum();
            assert_eq!(set.len(), total);
            if total > 0 {
                let k = rng.next_below(total);
                let mut acc = 0;
                let mut expected_select = None;
                for (key, c) in &reference {
                    acc += c;
                    if acc > k {
                        expected_select = Some(*key);
                        break;
                    }
                }
                assert_eq!(set.select(k), expected_select);
            }
        }
    }
}
