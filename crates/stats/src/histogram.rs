//! Histograms for summarising rank-cost distributions: [`LogHistogram`],
//! with power-of-two buckets, for long-tailed rank distributions where only
//! the order of magnitude matters (e.g. Figure 2's log-scale mean-rank
//! plot).

/// A histogram with power-of-two buckets: bucket `i` covers `[2^(i-1), 2^i)`,
/// bucket 0 covers the single value 0.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty log-bucketed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The reported upper bound of bucket `i`: `2^i`, except bucket 0
    /// (exactly 0) and the top bucket 64, whose bound saturates to
    /// `u64::MAX` instead of overflowing `1 << 64`.
    fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all recorded observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile: returns the upper bound of the bucket where
    /// the quantile falls (a factor-of-two overestimate at worst).
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(Self::bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Iterates over `(bucket_upper_bound, count)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn log_histogram_stats_and_quantile() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 3, 7, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.2).abs() < 1e-9);
        assert_eq!(h.quantile_upper_bound(0.0), Some(0));
        // 100 lives in bucket [64,128) whose upper bound is 128.
        assert_eq!(h.quantile_upper_bound(1.0), Some(128));
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(5);
        b.record(9);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 9);
        let total: u64 = a.iter_nonzero().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
    }

    /// Regression: values in the top bucket (`[2^63, u64::MAX]`) report a
    /// saturated `u64::MAX` bound rather than overflowing `1 << 64`.
    #[test]
    fn log_histogram_top_bucket_saturates() {
        let mut h = LogHistogram::new();
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile_upper_bound(0.5), Some(2));
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
        let pairs: Vec<_> = h.iter_nonzero().collect();
        assert_eq!(pairs, vec![(2, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn log_histogram_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.9), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }
}
