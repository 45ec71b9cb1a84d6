//! Windowed rates: a small ring of periodic [`MetricsSnapshot`]s whose
//! deltas turn cumulative counters into *rates* and lifetime histograms
//! into *recent* quantiles.
//!
//! Cumulative counters answer "how many ever"; operators ask "how many per
//! second right now" and "what is the p99 over the last ten seconds". A
//! [`RateWindow`] keeps the last N `(timestamp, snapshot)` pairs pushed
//! into it — the server pushes one on every `MetricsDump`, the scheduler
//! pushes one when a run completes — and derives, between the oldest and
//! newest retained snapshot:
//!
//! * per-counter rates (`window_rate_per_sec{metric=...}`), and
//! * per-histogram windowed p99s (`window_p99{metric=...}`) from
//!   bucket-wise deltas — only samples recorded *inside* the window count.
//!
//! Rendering follows the registry's exposition discipline (gauge-style
//! lines, escaped labels), so the window section of a dump stays
//! scrapeable. The window holds whole snapshots rather than pre-diffed
//! rates so late-registered metrics join cleanly: a counter absent from
//! the oldest snapshot is treated as starting from zero.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::metrics::{LogHistogram, MetricRow, MetricsSnapshot};

/// Default number of snapshots a [`RateWindow`] retains. At the 1 Hz-ish
/// push cadence of a scraped server this spans roughly the "last 10s".
pub const DEFAULT_WINDOW_SLOTS: usize = 12;

/// A ring of timestamped metrics snapshots with delta-derived rates.
#[derive(Debug)]
pub struct RateWindow {
    capacity: usize,
    inner: Mutex<VecDeque<(u64, MetricsSnapshot)>>,
}

/// Rates and windowed quantiles derived from a [`RateWindow`]'s span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowRates {
    /// Nanoseconds between the oldest and newest retained snapshot.
    pub span_ns: u64,
    /// Snapshots currently retained.
    pub samples: usize,
    /// Per-counter rate over the span, in events per second.
    pub rates_per_sec: Vec<MetricRow<f64>>,
    /// Per-histogram p99 upper bound over samples recorded inside the span.
    pub p99s: Vec<MetricRow<u64>>,
}

impl RateWindow {
    /// A window retaining up to `capacity` snapshots (minimum 2 — one delta
    /// needs two endpoints).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(2),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// The configured snapshot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no snapshot has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Pushes one timestamped snapshot, evicting the oldest beyond
    /// capacity. Out-of-order timestamps (a manual clock stepping back) are
    /// accepted; the delta span saturates at zero and reports no rates.
    pub fn push(&self, now_ns: u64, snapshot: MetricsSnapshot) {
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back((now_ns, snapshot));
    }

    /// Derives rates and windowed p99s between the oldest and newest
    /// retained snapshot. `None` until two snapshots with a positive time
    /// span are present.
    pub fn rates(&self) -> Option<WindowRates> {
        let inner = self.inner.lock();
        let (oldest_ts, oldest) = inner.front()?;
        let (newest_ts, newest) = inner.back()?;
        let span_ns = newest_ts.saturating_sub(*oldest_ts);
        if span_ns == 0 {
            return None;
        }
        let span_secs = span_ns as f64 / 1e9;
        let mut rates_per_sec = Vec::new();
        for row in &newest.counters {
            let before = lookup_counter(oldest, row).unwrap_or(0);
            let delta = row.value.saturating_sub(before);
            rates_per_sec.push(MetricRow {
                name: row.name.clone(),
                labels: row.labels.clone(),
                value: delta as f64 / span_secs,
            });
        }
        let mut p99s = Vec::new();
        for row in &newest.histograms {
            let delta = match lookup_histogram(oldest, row) {
                Some(before) => histogram_delta(before, &row.value),
                None => row.value.clone(),
            };
            if let Some(p99) = delta.quantile_upper_bound(0.99) {
                p99s.push(MetricRow {
                    name: row.name.clone(),
                    labels: row.labels.clone(),
                    value: p99,
                });
            }
        }
        Some(WindowRates {
            span_ns,
            samples: inner.len(),
            rates_per_sec,
            p99s,
        })
    }

    /// Renders the window as scrapeable exposition lines (`window_span_seconds`,
    /// `window_rate_per_sec{metric=...}`, `window_p99{metric=...}`); empty
    /// until [`rates`](Self::rates) has a span to report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let Some(rates) = self.rates() else {
            return String::new();
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# TYPE window_span_seconds gauge\nwindow_span_seconds {}",
            rates.span_ns as f64 / 1e9
        );
        if !rates.rates_per_sec.is_empty() {
            out.push_str("# TYPE window_rate_per_sec gauge\n");
        }
        for row in &rates.rates_per_sec {
            render_window_sample(
                &mut out,
                "window_rate_per_sec",
                row.name.as_str(),
                &row.labels,
            );
            let _ = writeln!(out, " {}", row.value);
        }
        if !rates.p99s.is_empty() {
            out.push_str("# TYPE window_p99 gauge\n");
        }
        for row in &rates.p99s {
            render_window_sample(&mut out, "window_p99", row.name.as_str(), &row.labels);
            let _ = writeln!(out, " {}", row.value);
        }
        out
    }
}

/// Writes `family{metric="name",k="v",...}` with the registry's escaping.
fn render_window_sample(out: &mut String, family: &str, metric: &str, labels: &[(String, String)]) {
    use std::fmt::Write as _;
    let _ = write!(out, "{family}{{metric=\"{}\"", escape(metric));
    for (k, v) in labels {
        let _ = write!(out, ",{k}=\"{}\"", escape(v));
    }
    let _ = write!(out, "}}");
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn row_matches<A, B>(row: &MetricRow<A>, like: &MetricRow<B>) -> bool {
    row.name == like.name && row.labels == like.labels
}

fn lookup_counter(snapshot: &MetricsSnapshot, like: &MetricRow<u64>) -> Option<u64> {
    snapshot
        .counters
        .iter()
        .find(|r| row_matches(r, like))
        .map(|r| r.value)
}

fn lookup_histogram<'a>(
    snapshot: &'a MetricsSnapshot,
    like: &MetricRow<LogHistogram>,
) -> Option<&'a LogHistogram> {
    snapshot
        .histograms
        .iter()
        .find(|r| row_matches(r, like))
        .map(|r| &r.value)
}

/// Bucket-wise `newest - oldest`: the distribution of samples recorded
/// inside the window. Counts saturate (a reset metric degrades to "whole
/// newest" rather than underflowing); `max` keeps the lifetime max, which
/// is at least the window's, so quantiles capped at it stay upper bounds.
fn histogram_delta(oldest: &LogHistogram, newest: &LogHistogram) -> LogHistogram {
    let mut delta = newest.clone();
    for (b, old) in delta.buckets.iter_mut().zip(oldest.buckets.iter()) {
        *b = b.saturating_sub(*old);
    }
    delta.sum = newest.sum.saturating_sub(oldest.sum);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn snap_with(registry: &MetricsRegistry) -> MetricsSnapshot {
        registry.snapshot()
    }

    #[test]
    fn two_snapshots_yield_counter_rates() {
        let registry = MetricsRegistry::new();
        let ops = registry.counter("ops_total", &[("queue", "q")]);
        let window = RateWindow::new(4);
        window.push(0, snap_with(&registry));
        ops.add(500);
        window.push(2_000_000_000, snap_with(&registry)); // 2s later
        let rates = window.rates().expect("positive span");
        assert_eq!(rates.span_ns, 2_000_000_000);
        assert_eq!(rates.samples, 2);
        let rate = rates
            .rates_per_sec
            .iter()
            .find(|r| r.name == "ops_total")
            .expect("ops rate");
        assert!((rate.value - 250.0).abs() < 1e-9, "rate {}", rate.value);
    }

    #[test]
    fn windowed_p99_sees_only_recent_samples() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("lat_ns", &[]);
        // Old regime: large values.
        for _ in 0..1000 {
            hist.record(1 << 20);
        }
        let window = RateWindow::new(4);
        window.push(0, snap_with(&registry));
        // New regime inside the window: small values.
        for _ in 0..100 {
            hist.record(8);
        }
        window.push(1_000_000_000, snap_with(&registry));
        let rates = window.rates().unwrap();
        let p99 = rates.p99s.iter().find(|r| r.name == "lat_ns").unwrap();
        assert!(
            p99.value <= 16,
            "windowed p99 {} must ignore the old regime",
            p99.value
        );
        // The lifetime p99 would have been dominated by the old regime.
        let lifetime = snap_with(&registry);
        let lifetime_p99 = lifetime
            .histogram("lat_ns", &[])
            .unwrap()
            .quantile_upper_bound(0.99)
            .unwrap();
        assert!(lifetime_p99 >= 1 << 20);
    }

    #[test]
    fn eviction_keeps_the_window_bounded() {
        let registry = MetricsRegistry::new();
        let ops = registry.counter("ops_total", &[]);
        let window = RateWindow::new(3);
        for i in 0..10u64 {
            ops.add(10);
            window.push(i * 1_000_000_000, snap_with(&registry));
        }
        assert_eq!(window.len(), 3);
        let rates = window.rates().unwrap();
        // Span covers pushes 7..9: two seconds, 20 ops.
        assert_eq!(rates.span_ns, 2_000_000_000);
        let rate = &rates.rates_per_sec[0];
        assert!((rate.value - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_span_means_no_rates() {
        let registry = MetricsRegistry::new();
        let window = RateWindow::new(4);
        assert!(window.rates().is_none(), "empty window");
        window.push(5, snap_with(&registry));
        assert!(window.rates().is_none(), "single snapshot");
        window.push(5, snap_with(&registry));
        assert!(window.rates().is_none(), "zero span");
        assert_eq!(window.render(), "");
    }

    #[test]
    fn late_registered_counters_start_from_zero() {
        let registry = MetricsRegistry::new();
        let window = RateWindow::new(4);
        window.push(0, snap_with(&registry));
        let late = registry.counter("late_total", &[]);
        late.add(30);
        window.push(3_000_000_000, snap_with(&registry));
        let rates = window.rates().unwrap();
        let rate = rates
            .rates_per_sec
            .iter()
            .find(|r| r.name == "late_total")
            .unwrap();
        assert!((rate.value - 10.0).abs() < 1e-9);
    }

    #[test]
    fn render_is_scrapeable() {
        let registry = MetricsRegistry::new();
        let ops = registry.counter("ops_total", &[("queue", "a\"b")]);
        let hist = registry.histogram("lat_ns", &[]);
        let window = RateWindow::new(4);
        window.push(0, snap_with(&registry));
        ops.add(100);
        hist.record(42);
        window.push(1_000_000_000, snap_with(&registry));
        let text = window.render();
        assert!(text.contains("window_span_seconds 1"));
        assert!(text.contains("window_rate_per_sec{metric=\"ops_total\",queue=\"a\\\"b\"} 100"));
        assert!(text.contains("window_p99{metric=\"lat_ns\"} 42"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "unscrapeable line: {line}"
            );
        }
    }
}
