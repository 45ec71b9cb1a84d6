//! Per-class lateness accounting.
//!
//! The paper's quality metric for a relaxed queue is the *rank* of a removed
//! element. At the scheduler layer the metric users actually feel is
//! **lateness**: how far past its deadline a task started executing. This
//! module turns the workspace's log histogram
//! ([`choice_obs::LogHistogram`]) into a per-priority-class
//! lateness tracker; the traffic engine records into one tracker per worker
//! and merges them afterwards (same pattern as the per-handle rank logs).
//!
//! Lateness is recorded in nanoseconds; a task that starts at or before its
//! deadline records `0` and counts as *on time*. The log-bucketed quantiles
//! are upper bounds within a factor of two — the right precision for a
//! metric spanning nanoseconds to seconds.
//!
//! Under admission control a task has a third outcome besides on-time and
//! late: **refused** — shed by a quota or rate limiter before it ever
//! reached a queue. Refusals are first-class here
//! ([`LatenessTracker::record_refusal`]): they count toward a class's
//! demand but not toward its executed work, so the on-time fraction stays
//! an honest property of what actually ran while
//! [`ClassLateness::completion_fraction`] reports how much of the offered
//! load was served at all.

use std::sync::Arc;

use choice_obs::{Counter, Histogram, LogHistogram, ObsHub};

/// Lateness distribution of one priority class.
#[derive(Clone, Debug, Default)]
pub struct ClassLateness {
    /// Tasks of this class executed.
    pub executed: u64,
    /// Tasks that started at or before their deadline.
    pub on_time: u64,
    /// Tasks of this class shed by an admission layer (quota, rate limit,
    /// queue lifecycle) before execution. Refused tasks record no lateness:
    /// they never ran.
    pub refused: u64,
    /// Lateness histogram in nanoseconds (on-time tasks record `0`).
    pub lateness_ns: LogHistogram,
}

impl ClassLateness {
    /// Fraction of executed tasks that ran on time (1.0 when nothing ran).
    /// Refused tasks are excluded — this measures the quality of what ran.
    pub fn on_time_fraction(&self) -> f64 {
        if self.executed == 0 {
            1.0
        } else {
            self.on_time as f64 / self.executed as f64
        }
    }

    /// Total demand this class offered: executed plus refused tasks.
    pub fn demand(&self) -> u64 {
        self.executed + self.refused
    }

    /// Fraction of offered tasks that were actually executed rather than
    /// shed (1.0 when nothing was offered).
    pub fn completion_fraction(&self) -> f64 {
        let demand = self.demand();
        if demand == 0 {
            1.0
        } else {
            self.executed as f64 / demand as f64
        }
    }

    /// Upper bound on the `q`-quantile of lateness (factor-of-two
    /// precision, never above the largest lateness recorded), truncated to
    /// whole microseconds; `0` when nothing ran.
    pub fn lateness_quantile_us(&self, q: f64) -> u64 {
        self.lateness_ns
            .quantile_upper_bound(q)
            .map(|ns| ns / 1_000)
            .unwrap_or(0)
    }

    /// Mean lateness in microseconds.
    pub fn mean_lateness_us(&self) -> f64 {
        self.lateness_ns.mean() / 1_000.0
    }
}

/// The obs-registry mirror of one class: the same samples flow into a
/// shared, sharded [`Histogram`] so external observers (`MetricsDump`,
/// bench reports) read lateness from metrics snapshots.
#[derive(Clone, Debug)]
struct ClassMirror {
    lateness_ns: Arc<Histogram>,
    refusals: Arc<Counter>,
}

/// Per-class lateness tracker: one [`ClassLateness`] per priority class.
#[derive(Clone, Debug)]
pub struct LatenessTracker {
    classes: Vec<ClassLateness>,
    /// Obs mirrors (one per class) when built with
    /// [`with_obs`](LatenessTracker::with_obs); empty otherwise.
    mirrors: Vec<ClassMirror>,
}

impl LatenessTracker {
    /// Creates a tracker for `classes` priority classes.
    pub fn new(classes: usize) -> Self {
        Self {
            classes: (0..classes).map(|_| ClassLateness::default()).collect(),
            mirrors: Vec::new(),
        }
    }

    /// Creates a tracker that additionally mirrors every sample into `hub`'s
    /// metrics registry: histogram `sched_lateness_ns{class=...}` and counter
    /// `sched_refusals_total{class=...}`. A metrics snapshot of the mirror
    /// is a [`LogHistogram`] like the local tracker's, so their quantiles
    /// agree. Several trackers (e.g. one per worker) may
    /// mirror into the same hub — the cells are shared and sharded.
    pub fn with_obs(classes: usize, hub: &ObsHub) -> Self {
        let mut tracker = Self::new(classes);
        tracker.mirrors = (0..classes)
            .map(|c| {
                let class = c.to_string();
                ClassMirror {
                    lateness_ns: hub
                        .metrics()
                        .histogram("sched_lateness_ns", &[("class", &class)]),
                    refusals: hub
                        .metrics()
                        .counter("sched_refusals_total", &[("class", &class)]),
                }
            })
            .collect();
        tracker
    }

    /// Records one task execution: `lateness_ns == 0` means on time.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn record(&mut self, class: usize, lateness_ns: u64) {
        let c = &mut self.classes[class];
        c.executed += 1;
        if lateness_ns == 0 {
            c.on_time += 1;
        }
        c.lateness_ns.record(lateness_ns);
        if let Some(mirror) = self.mirrors.get(class) {
            mirror.lateness_ns.record(lateness_ns);
        }
    }

    /// Records one task of `class` refused by admission control (the task
    /// never executed, so no lateness is recorded).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn record_refusal(&mut self, class: usize) {
        self.classes[class].refused += 1;
        if let Some(mirror) = self.mirrors.get(class) {
            mirror.refusals.inc();
        }
    }

    /// Merges another tracker (e.g. another worker's) into this one.
    ///
    /// Obs mirrors are left untouched: each tracker already mirrored its own
    /// samples at record time, so re-mirroring here would double-count.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &LatenessTracker) {
        assert_eq!(
            self.classes.len(),
            other.classes.len(),
            "cannot merge trackers with different class counts"
        );
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.executed += theirs.executed;
            mine.on_time += theirs.on_time;
            mine.refused += theirs.refused;
            mine.lateness_ns.merge(&theirs.lateness_ns);
        }
    }

    /// The per-class distributions.
    pub fn classes(&self) -> &[ClassLateness] {
        &self.classes
    }

    /// Total tasks recorded across all classes.
    pub fn executed(&self) -> u64 {
        self.classes.iter().map(|c| c.executed).sum()
    }

    /// Total refusals recorded across all classes.
    pub fn refused(&self) -> u64 {
        self.classes.iter().map(|c| c.refused).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_classifies_on_time() {
        let mut t = LatenessTracker::new(2);
        t.record(0, 0);
        t.record(0, 1_500);
        t.record(1, 0);
        assert_eq!(t.executed(), 3);
        let c0 = &t.classes()[0];
        assert_eq!(c0.executed, 2);
        assert_eq!(c0.on_time, 1);
        assert!((c0.on_time_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(t.classes()[1].on_time_fraction(), 1.0);
        // 1_500 ns lives in the [1024, 2048) bucket, capped at the max:
        // 1 µs in whole microseconds.
        assert_eq!(c0.lateness_quantile_us(1.0), 1);
        assert!((c0.mean_lateness_us() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_per_class() {
        let mut a = LatenessTracker::new(1);
        let mut b = LatenessTracker::new(1);
        a.record(0, 0);
        b.record(0, 10_000);
        b.record(0, 0);
        b.record_refusal(0);
        a.merge(&b);
        assert_eq!(a.classes()[0].executed, 3);
        assert_eq!(a.classes()[0].on_time, 2);
        assert_eq!(a.classes()[0].refused, 1);
        assert_eq!(a.classes()[0].lateness_ns.count(), 3);
    }

    #[test]
    fn refusals_count_toward_demand_not_execution() {
        let mut t = LatenessTracker::new(2);
        t.record(0, 0);
        t.record(0, 500);
        t.record_refusal(0);
        t.record_refusal(0);
        assert_eq!(t.executed(), 2);
        assert_eq!(t.refused(), 2);
        let c0 = &t.classes()[0];
        assert_eq!(c0.demand(), 4);
        assert!((c0.completion_fraction() - 0.5).abs() < 1e-12);
        // On-time fraction measures only what ran: 1 of 2 executed on time.
        assert!((c0.on_time_fraction() - 0.5).abs() < 1e-12);
        // Refusals record no lateness samples.
        assert_eq!(c0.lateness_ns.count(), 2);
        // An untouched class reports full completion.
        assert_eq!(t.classes()[1].completion_fraction(), 1.0);
    }

    #[test]
    fn empty_tracker_is_benign() {
        let t = LatenessTracker::new(3);
        assert_eq!(t.executed(), 0);
        assert_eq!(t.classes()[2].lateness_quantile_us(0.99), 0);
        assert_eq!(t.classes()[0].on_time_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "different class counts")]
    fn mismatched_merge_panics() {
        let mut a = LatenessTracker::new(1);
        a.merge(&LatenessTracker::new(2));
    }

    #[test]
    fn obs_mirror_sees_every_sample_and_refusal() {
        let hub = ObsHub::new();
        let mut a = LatenessTracker::with_obs(2, &hub);
        let mut b = LatenessTracker::with_obs(2, &hub);
        a.record(0, 0);
        a.record(0, 1_500);
        b.record(0, 3_000);
        b.record(1, 0);
        b.record_refusal(1);
        // Merging must not re-mirror: the hub already holds every sample.
        a.merge(&b);
        let snap = hub.metrics().snapshot();
        let c0 = snap
            .histogram("sched_lateness_ns", &[("class", "0")])
            .expect("class 0 mirrored");
        assert_eq!(c0.count(), 3, "both trackers share the class-0 cells");
        // Quantiles agree with the local tracker (the same histogram type).
        assert_eq!(
            c0.quantile_upper_bound(1.0),
            a.classes()[0].lateness_ns.quantile_upper_bound(1.0)
        );
        let c1 = snap
            .histogram("sched_lateness_ns", &[("class", "1")])
            .expect("class 1 mirrored");
        assert_eq!(c1.count(), 1);
        assert_eq!(
            snap.counter("sched_refusals_total", &[("class", "1")]),
            Some(1)
        );
    }
}
