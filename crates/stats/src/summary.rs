//! Streaming summaries.
//!
//! Experiments report the mean and maximum of rank costs and latencies.
//! [`StreamingSummary`] accumulates count/mean/variance/min/max in constant
//! space (Welford's algorithm). Quantiles come from the log-bucketed
//! [`LogHistogram`](crate::histogram::LogHistogram).

/// Constant-space running summary: count, mean, variance, min, max.
#[derive(Clone, Debug, Default)]
pub struct StreamingSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records an integer observation.
    pub fn record_u64(&mut self, value: u64) {
        self.record(value as f64);
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &StreamingSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = new_mean;
        self.m2 = new_m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the observations (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest recorded observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_summary_basics() {
        let mut s = StreamingSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn streaming_summary_merge_matches_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = StreamingSummary::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = StreamingSummary::new();
        let mut right = StreamingSummary::new();
        for &v in &values[..37] {
            left.record(v);
        }
        for &v in &values[37..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingSummary::new();
        a.record(1.0);
        a.record(3.0);
        let b = StreamingSummary::new();
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&b);
        assert_eq!((a.count(), a.mean(), a.variance()), before);
        let mut c = StreamingSummary::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_single_sample_variance_is_zero() {
        let mut s = StreamingSummary::new();
        s.record(42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.mean(), 42.0);
    }
}
