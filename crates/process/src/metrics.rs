//! Rank-cost summaries of a process run.

/// Aggregate rank-cost statistics of a batch of removals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankCostSummary {
    /// Number of removals performed.
    pub removals: u64,
    /// Mean rank of a removed element (1 = always optimal).
    pub mean_rank: f64,
    /// Maximum rank over all removals in the batch.
    pub max_rank: u64,
}

/// Accumulator used while a process runs; converts into a [`RankCostSummary`].
#[derive(Clone, Debug, Default)]
pub struct RankCostAccumulator {
    count: u64,
    sum: u128,
    max: u64,
}

impl RankCostAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the rank of one removal.
    pub fn record(&mut self, rank: u64) {
        self.count += 1;
        self.sum += u128::from(rank);
        self.max = self.max.max(rank);
    }

    /// Number of removals recorded so far.
    pub fn removals(&self) -> u64 {
        self.count
    }

    /// Running mean rank (0 when nothing was recorded).
    pub fn mean_rank(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Running maximum rank.
    pub fn max_rank(&self) -> u64 {
        self.max
    }

    /// Produces the final summary.
    pub fn finish(&self) -> RankCostSummary {
        RankCostSummary {
            removals: self.count,
            mean_rank: self.mean_rank(),
            max_rank: self.max,
        }
    }
}

/// A time series of rank costs sampled at fixed intervals, used to check that
/// the two-choice bounds are flat in `t` while single-choice diverges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankTimeSeries {
    /// Number of removals between consecutive samples.
    pub interval: u64,
    /// `(removals_so_far, mean_rank_over_last_interval, max_rank_over_last_interval)`.
    pub points: Vec<(u64, f64, u64)>,
}

impl RankTimeSeries {
    /// Creates an empty series with the given sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            interval,
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, removals: u64, mean_rank: f64, max_rank: u64) {
        self.points.push((removals, mean_rank, max_rank));
    }

    /// Fits `mean_rank ≈ a·sqrt(removals)` by least squares through the
    /// origin and returns `a`; used to verify the Ω(√t) divergence of the
    /// single-choice process. Returns 0 when there are no points.
    pub fn sqrt_growth_coefficient(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &(t, mean, _) in &self.points {
            let x = (t as f64).sqrt();
            num += x * mean;
            den += x * x;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_basic_statistics() {
        let mut acc = RankCostAccumulator::new();
        for r in [1u64, 1, 2, 4, 100] {
            acc.record(r);
        }
        assert_eq!(acc.removals(), 5);
        assert_eq!(acc.max_rank(), 100);
        let s = acc.finish();
        assert_eq!(s.removals, 5);
        assert_eq!(s.max_rank, 100);
        assert!((s.mean_rank - 21.6).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_finishes_cleanly() {
        let s = RankCostAccumulator::new().finish();
        assert_eq!(s.removals, 0);
        assert_eq!(s.mean_rank, 0.0);
        assert_eq!(s.max_rank, 0);
    }

    #[test]
    fn time_series_summaries() {
        let mut ts = RankTimeSeries::new(100);
        ts.push(100, 5.0, 20);
        ts.push(200, 6.0, 18);
        ts.push(300, 5.5, 40);
        assert_eq!(ts.points.len(), 3);
        assert!(ts.sqrt_growth_coefficient() > 0.0);
    }

    #[test]
    fn sqrt_growth_fit_recovers_coefficient() {
        let mut ts = RankTimeSeries::new(1);
        for t in (1..=100u64).map(|k| k * 100) {
            ts.push(t, 3.0 * (t as f64).sqrt(), 0);
        }
        let a = ts.sqrt_growth_coefficient();
        assert!((a - 3.0).abs() < 1e-9, "fit {a}");
    }

    #[test]
    fn empty_time_series() {
        let ts = RankTimeSeries::new(10);
        assert!(ts.points.is_empty());
        assert_eq!(ts.sqrt_growth_coefficient(), 0.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = RankTimeSeries::new(0);
    }
}
