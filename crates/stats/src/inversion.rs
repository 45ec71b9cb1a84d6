//! Timestamp-based rank-inversion accounting.
//!
//! Section 5 of the paper measures the "mean rank returned" of the concurrent
//! MultiQueue by recording, for every `deleteMin`, a coherent timestamp and
//! the removed key, then post-processing the merged log: a removal's rank
//! error is the number of keys that were removed *later* (by any thread) but
//! have a *smaller* key — i.e. elements that were still present and better
//! when the removal happened.
//!
//! [`InversionCounter`] implements exactly that post-processing step. For a
//! log of `R` removals it runs in `O(R log R)` using a Fenwick tree over the
//! key ranks.
//!
//! # Memory
//!
//! The analysis sorts the log in place (16 bytes per removal) and numbers
//! the keys through a `u32` argsort instead of a sorted `u64` copy. One
//! `u32` buffer holds each removal's key number and then, after the Fenwick
//! sweep, its rank; the ranks are widened to `u64` only once the tree is
//! dropped. So the peak is 28 bytes per removal, the log included: the log,
//! the `u32` buffer, and one of the argsort (4 bytes), the tree (8 bytes
//! per distinct key) or the widened ranks (8 bytes). That matters on the
//! benchmark's `mq_pairs` workload, whose rank phase analyses 2 M removals
//! and sets the run's memory peak (DESIGN.md §10).

use crate::fenwick::FenwickTree;

/// One `deleteMin` observation: when it happened and which key it returned.
///
/// Timestamps only need to be totally ordered and consistent across threads;
/// the concurrent queue implementations use a global atomic counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimestampedRemoval {
    /// Monotonic timestamp at which the removal took effect.
    pub timestamp: u64,
    /// The key (priority label) that was removed; smaller is higher priority.
    pub key: u64,
}

impl TimestampedRemoval {
    /// Convenience constructor.
    pub fn new(timestamp: u64, key: u64) -> Self {
        Self { timestamp, key }
    }
}

/// Summary of the rank errors of a removal log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InversionSummary {
    /// Number of removals analysed.
    pub removals: u64,
    /// Mean rank of a removal (1 = perfect, i.e. the global minimum was taken).
    pub mean_rank: f64,
    /// Maximum rank over all removals.
    pub max_rank: u64,
    /// Total number of pairwise inversions (later-removed smaller keys summed
    /// over all removals).
    pub total_inversions: u64,
}

/// Post-processor computing per-removal ranks from a merged removal log.
#[derive(Clone, Debug, Default)]
pub struct InversionCounter {
    log: Vec<TimestampedRemoval>,
}

impl InversionCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observation (in any order; the log is sorted on analysis).
    pub fn record(&mut self, timestamp: u64, key: u64) {
        self.log.push(TimestampedRemoval::new(timestamp, key));
    }

    /// Appends a batch of observations, e.g. one thread's private log.
    pub fn record_all<I: IntoIterator<Item = TimestampedRemoval>>(&mut self, items: I) {
        self.log.extend(items);
    }

    /// Number of recorded removals.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Returns `true` if no removals have been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Computes the rank of each removal in timestamp order.
    ///
    /// The rank of a removal is 1 plus the number of keys removed strictly
    /// later that are strictly smaller — those keys must have been present
    /// (and preferable) at the time of this removal, so this is a lower bound
    /// on the true instantaneous rank, and equals it when every inserted key
    /// is eventually removed (the benchmark drains the queue).
    ///
    /// The log is sorted in place and stays recorded, so the counter can
    /// take more removals and be analysed again.
    ///
    /// # Panics
    ///
    /// Panics if the log holds more than `u32::MAX` removals.
    pub fn per_removal_ranks(&mut self) -> Vec<u64> {
        self.ranks().into_iter().map(u64::from).collect()
    }

    /// Computes the aggregate summary of the recorded log (sorting it in
    /// place, as [`per_removal_ranks`](Self::per_removal_ranks) does).
    ///
    /// # Panics
    ///
    /// Panics if the log holds more than `u32::MAX` removals.
    pub fn summarize(&mut self) -> InversionSummary {
        let ranks = self.ranks();
        if ranks.is_empty() {
            return InversionSummary::default();
        }
        let removals = ranks.len() as u64;
        // A rank is at most the number of removals from it on, so the sum
        // is at most n(n + 1)/2 < 2^63 for n <= u32::MAX.
        let (total, max_rank) = ranks.iter().fold((0u64, 0u32), |(total, max), &r| {
            (total + u64::from(r), max.max(r))
        });
        InversionSummary {
            removals,
            mean_rank: total as f64 / removals as f64,
            max_rank: u64::from(max_rank),
            total_inversions: total - removals,
        }
    }

    /// The ranks in timestamp order, in one `u32` buffer that first holds
    /// each removal's dense key number: the log, this buffer and either the
    /// key argsort or the Fenwick tree are all that is live at once.
    fn ranks(&mut self) -> Vec<u32> {
        let n = self.log.len();
        assert!(
            u32::try_from(n).is_ok(),
            "the log holds {n} removals; an analysis numbers at most u32::MAX"
        );
        self.log.sort_unstable();
        let log = &self.log;

        // Number the keys densely in key order, equal keys alike, so the
        // Fenwick tree has one slot per distinct key.
        let mut by_key: Vec<u32> = (0..n as u32).collect();
        by_key.sort_unstable_by_key(|&i| log[i as usize].key);
        let mut ranks = vec![0u32; n];
        let mut distinct = 0u32;
        let mut previous = None;
        for &i in &by_key {
            let key = log[i as usize].key;
            if previous != Some(key) {
                previous = Some(key);
                distinct += 1;
            }
            ranks[i as usize] = distinct - 1;
        }
        drop(by_key);

        // Sweep from the latest removal backwards, maintaining the multiset of
        // keys removed after the current one; each rank overwrites its
        // removal's key number.
        let mut later = FenwickTree::new(distinct as usize);
        for slot in ranks.iter_mut().rev() {
            let idx = *slot as usize;
            // Keys removed later that are strictly smaller than this key.
            let smaller_later = if idx == 0 {
                0
            } else {
                later.prefix_sum(idx - 1)
            };
            later.add(idx, 1);
            *slot = smaller_later as u32 + 1;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RandomSource, Xoshiro256};

    fn brute_force_ranks(log: &[TimestampedRemoval]) -> Vec<u64> {
        let mut sorted = log.to_vec();
        sorted.sort_unstable();
        sorted
            .iter()
            .enumerate()
            .map(|(i, r)| {
                1 + sorted[i + 1..]
                    .iter()
                    .filter(|later| later.key < r.key)
                    .count() as u64
            })
            .collect()
    }

    #[test]
    fn perfectly_ordered_log_has_rank_one() {
        let mut c = InversionCounter::new();
        for t in 0..100u64 {
            c.record(t, t); // removed in exactly increasing key order
        }
        let summary = c.summarize();
        assert_eq!(summary.removals, 100);
        assert_eq!(summary.mean_rank, 1.0);
        assert_eq!(summary.max_rank, 1);
        assert_eq!(summary.total_inversions, 0);
    }

    #[test]
    fn reversed_log_has_maximal_inversions() {
        let mut c = InversionCounter::new();
        let n = 50u64;
        for t in 0..n {
            c.record(t, n - t); // strictly decreasing keys: worst case
        }
        let summary = c.summarize();
        assert_eq!(summary.removals, n);
        // The first removal sees all n-1 later smaller keys, the last sees 0.
        assert_eq!(summary.max_rank, n);
        assert_eq!(summary.total_inversions, n * (n - 1) / 2);
    }

    #[test]
    fn empty_log_summary_is_default() {
        let mut c = InversionCounter::new();
        assert!(c.is_empty());
        assert_eq!(c.summarize(), InversionSummary::default());
        assert!(c.per_removal_ranks().is_empty());
    }

    #[test]
    fn single_swap_costs_one_inversion() {
        let mut c = InversionCounter::new();
        c.record(0, 2);
        c.record(1, 1);
        c.record(2, 3);
        let ranks = c.per_removal_ranks();
        assert_eq!(ranks, vec![2, 1, 1]);
        let s = c.summarize();
        assert_eq!(s.total_inversions, 1);
        assert_eq!(s.max_rank, 2);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut c = InversionCounter::new();
        // Same events as `single_swap_costs_one_inversion` but recorded out of
        // timestamp order (threads merge their logs arbitrarily).
        c.record(2, 3);
        c.record(0, 2);
        c.record(1, 1);
        assert_eq!(c.per_removal_ranks(), vec![2, 1, 1]);
    }

    #[test]
    fn duplicate_keys_do_not_count_as_inversions() {
        let mut c = InversionCounter::new();
        c.record(0, 5);
        c.record(1, 5);
        c.record(2, 5);
        let s = c.summarize();
        assert_eq!(s.total_inversions, 0);
        assert_eq!(s.mean_rank, 1.0);
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = Xoshiro256::seeded(909);
        for _ in 0..20 {
            let n = 1 + rng.next_index(200);
            let mut c = InversionCounter::new();
            let mut log = Vec::new();
            for t in 0..n as u64 {
                let key = rng.next_below(50);
                c.record(t, key);
                log.push(TimestampedRemoval::new(t, key));
            }
            assert_eq!(c.per_removal_ranks(), brute_force_ranks(&log));
        }
    }

    /// The ranks' fold, as `summarize` should report it.
    fn summary_of(ranks: &[u64]) -> InversionSummary {
        if ranks.is_empty() {
            return InversionSummary::default();
        }
        let total: u64 = ranks.iter().sum();
        InversionSummary {
            removals: ranks.len() as u64,
            mean_rank: total as f64 / ranks.len() as f64,
            max_rank: ranks.iter().copied().max().unwrap_or(0),
            total_inversions: total - ranks.len() as u64,
        }
    }

    #[test]
    fn shuffled_logs_analysed_twice_match_brute_force() {
        let mut rng = Xoshiro256::seeded(2_025);
        for round in 0..60 {
            let n = 1 + rng.next_index(300);
            // Even rounds tie almost every key; odd ones draw from all of u64.
            let narrow = round % 2 == 0;
            let mut timestamps: Vec<u64> = (0..n as u64).collect();
            rng.shuffle(&mut timestamps);
            let log: Vec<TimestampedRemoval> = timestamps
                .into_iter()
                .map(|t| {
                    let key = if narrow {
                        rng.next_below(8)
                    } else {
                        rng.next_u64()
                    };
                    TimestampedRemoval::new(t, key)
                })
                .collect();
            // Two analyses: after the first part of the log, then after the
            // rest, whose timestamps interleave with the first part's. Each
            // part goes in through a mix of `record` and `record_all` calls.
            let split = rng.next_index(n + 1);
            let mut c = InversionCounter::new();
            for recorded in [&log[..split], &log[..]] {
                let mut rest = &log[c.len()..recorded.len()];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(1 + rng.next_index(rest.len()));
                    if let [one] = chunk {
                        c.record(one.timestamp, one.key);
                    } else {
                        c.record_all(chunk.iter().copied());
                    }
                    rest = tail;
                }
                let expected = brute_force_ranks(recorded);
                assert_eq!(c.per_removal_ranks(), expected, "round {round}");
                assert_eq!(c.summarize(), summary_of(&expected), "round {round}");
                assert_eq!(c.len(), recorded.len());
            }
        }
    }

    #[test]
    fn record_all_merges_thread_logs() {
        let mut c = InversionCounter::new();
        let thread_a = vec![
            TimestampedRemoval::new(0, 10),
            TimestampedRemoval::new(2, 30),
        ];
        let thread_b = vec![
            TimestampedRemoval::new(1, 20),
            TimestampedRemoval::new(3, 5),
        ];
        c.record_all(thread_a);
        c.record_all(thread_b);
        assert_eq!(c.len(), 4);
        let ranks = c.per_removal_ranks();
        // Order by timestamp: keys 10, 20, 30, 5 -> ranks 2, 2, 2, 1.
        assert_eq!(ranks, vec![2, 2, 2, 1]);
    }
}
