//! The lock-free metrics core: counters, gauges, and log-bucketed histograms
//! registered by name + label set, sharded per thread.
//!
//! # Sharding
//!
//! Every metric cell is an array of [`SHARD_COUNT`] cache-padded atomics.
//! Each thread is assigned one shard index round-robin on first use
//! (a thread-local, set once), so a hot-path increment is a single
//! `fetch_add` on a cache line no other thread is writing — the same
//! false-sharing discipline the MultiQueue's cache-padded lanes use. [`snapshot`]
//! merges the shards with plain atomic loads.
//!
//! # Consistency
//!
//! A snapshot is *per-cell consistent, monotone, and conserved*: each
//! metric's value is a sum of per-shard atomic loads, so it can never tear
//! within a shard (loads are atomic), never goes backwards across snapshots
//! (shards only grow for counters), and after writers quiesce it equals
//! exactly the number of recorded operations. Snapshots are **not** atomic
//! *across* metrics: two counters incremented by the same thread may be
//! caught one-apart mid-flight. Histogram sample counts are *derived from
//! the bucket sums* rather than kept in a separate cell, so "bucket totals
//! equal recorded-sample counts" holds by construction in every snapshot.
//!
//! [`snapshot`]: MetricsRegistry::snapshot

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

/// Number of per-thread shards in every metric cell. A power of two; more
/// shards than this many concurrent writers simply alias (still correct,
/// occasionally contended).
pub const SHARD_COUNT: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
}

/// This thread's shard index (assigned round-robin on first use).
#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|s| *s)
}

fn new_shards() -> [CachePadded<AtomicU64>; SHARD_COUNT] {
    std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0)))
}

/// A monotonically increasing sharded counter.
#[derive(Debug)]
pub struct Counter {
    shards: [CachePadded<AtomicU64>; SHARD_COUNT],
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: new_shards(),
        }
    }

    /// Adds one (a single uncontended `fetch_add` on the hot path).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value: the sum over shards (saturating).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.load(Ordering::Acquire)))
    }
}

/// A sharded signed gauge (deltas only — a sharded cell has no meaningful
/// `set`). The value is the sum of per-shard deltas.
#[derive(Debug)]
pub struct Gauge {
    /// Per-shard running delta, stored as two's-complement `u64` so wrapping
    /// adds of negative deltas sum correctly modulo 2^64.
    shards: [CachePadded<AtomicU64>; SHARD_COUNT],
}

impl Gauge {
    fn new() -> Self {
        Self {
            shards: new_shards(),
        }
    }

    /// Applies a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.shards[shard_index()].fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value: the wrapping sum over shards, reinterpreted as
    /// signed (exact as long as the true value fits in `i64`).
    pub fn value(&self) -> i64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.load(Ordering::Acquire))) as i64
    }
}

/// Number of power-of-two buckets: bucket 0 holds the value 0, bucket
/// `i >= 1` covers `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A sharded log-bucketed histogram: the concurrent form of
/// [`LogHistogram`], which [`snapshot`](Histogram::snapshot) merges it
/// into.
#[derive(Debug)]
pub struct Histogram {
    shards: [CachePadded<HistogramShard>; SHARD_COUNT],
}

#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The reported upper bound of bucket `i`: 0 for bucket 0, `2^i` above it,
/// saturating to `u64::MAX` in the top bucket (`[2^63, 2^64)`) instead of
/// overflowing `1 << 64`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| {
                CachePadded::new(HistogramShard {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    sum: AtomicU64::new(0),
                    max: AtomicU64::new(0),
                })
            }),
        }
    }

    /// Records one observation: one bucket `fetch_add`, a wrapping sum add,
    /// and a `fetch_max`, all on this thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges the shards into an owned histogram. Each shard's sum is a
    /// wrapping `u64`, which sums of nanoseconds over one run stay far
    /// below.
    pub fn snapshot(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for shard in &self.shards {
            for (acc, b) in merged.buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc = acc.saturating_add(b.load(Ordering::Acquire));
            }
            merged.sum += u128::from(shard.sum.load(Ordering::Acquire));
            merged.max = merged.max.max(shard.max.load(Ordering::Acquire));
        }
        merged
    }
}

/// A log-bucketed histogram with power-of-two buckets (bucket 0 holds the
/// value 0, bucket `i >= 1` covers `[2^(i-1), 2^i)`): the workspace's one
/// histogram type, for rank and latency distributions where only the order
/// of magnitude matters. A single writer records into it directly; a
/// [`Histogram`] snapshots into it. The sample count is derived from the
/// bucket totals, so count and buckets cannot disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    pub(crate) buckets: [u64; HISTOGRAM_BUCKETS],
    pub(crate) sum: u128,
    pub(crate) max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples — by construction the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Approximate `q`-quantile: the upper bound of the bucket where the
    /// quantile falls, capped at [`max`](Self::max) (a factor-of-two
    /// overestimate at worst, and never above the largest value recorded),
    /// `None` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates over `(bucket upper bound, count)` pairs with non-zero
    /// counts, in bucket order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
    }
}

/// A metric identity: name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

fn metric_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// The registry of named metrics. Registration (the `counter` / `gauge` /
/// `histogram` lookups) takes a mutex; the returned handles are `Arc`s whose
/// hot-path operations are lock-free — register once, increment forever.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(
            self.inner
                .lock()
                .counters
                .entry(metric_key(name, labels))
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::clone(
            self.inner
                .lock()
                .gauges
                .entry(metric_key(name, labels))
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        Arc::clone(
            self.inner
                .lock()
                .histograms
                .entry(metric_key(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Merges every metric's shards into an owned snapshot (sorted by name,
    /// then labels). See the module docs for the exact consistency contract.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|((name, labels), c)| MetricRow {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.value(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|((name, labels), g)| MetricRow {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|((name, labels), h)| MetricRow {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: h.snapshot(),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// One metric in a snapshot: identity plus merged value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricRow<T> {
    /// Metric name as registered.
    pub name: String,
    /// Sorted label pairs as registered.
    pub labels: Vec<(String, String)>,
    /// Merged value at snapshot time.
    pub value: T,
}

/// An owned view of every registered metric at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name then labels.
    pub counters: Vec<MetricRow<u64>>,
    /// Gauges, sorted by name then labels.
    pub gauges: Vec<MetricRow<i64>>,
    /// Histograms, sorted by name then labels.
    pub histograms: Vec<MetricRow<LogHistogram>>,
}

fn row_matches<T>(row: &MetricRow<T>, name: &str, labels: &[(&str, &str)]) -> bool {
    row.name == name
        && row.labels.len() == labels.len()
        && labels
            .iter()
            .all(|(k, v)| row.labels.iter().any(|(rk, rv)| rk == k && rv == v))
}

impl MetricsSnapshot {
    /// The value of counter `name{labels}`, if registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| row_matches(r, name, labels))
            .map(|r| r.value)
    }

    /// The value of gauge `name{labels}`, if registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|r| row_matches(r, name, labels))
            .map(|r| r.value)
    }

    /// The snapshot of histogram `name{labels}`, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|r| row_matches(r, name, labels))
            .map(|r| &r.value)
    }

    /// Renders the snapshot in the Prometheus plaintext exposition format
    /// (`name{label="value"} 123` lines with `# TYPE` headers; histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for row in &self.counters {
            type_line(&mut out, &row.name, "counter");
            render_sample(&mut out, &row.name, &row.labels, None, row.value);
        }
        for row in &self.gauges {
            type_line(&mut out, &row.name, "gauge");
            let _ = write!(out, "{}", row.name);
            render_labels(&mut out, &row.labels, None);
            let _ = writeln!(out, " {}", row.value);
        }
        for row in &self.histograms {
            type_line(&mut out, &row.name, "histogram");
            let hist = &row.value;
            let count = hist.count();
            let mut cumulative = 0u64;
            for (i, &c) in hist.buckets.iter().enumerate() {
                cumulative += c;
                if c == 0 && cumulative != count {
                    continue; // keep the dump short: only boundary + non-empty buckets
                }
                let le = if i == 0 {
                    "0".to_string()
                } else if i == 64 {
                    u64::MAX.to_string()
                } else {
                    ((1u64 << i) - 1).to_string()
                };
                render_sample(
                    &mut out,
                    &format!("{}_bucket", row.name),
                    &row.labels,
                    Some(("le", &le)),
                    cumulative,
                );
                if cumulative == count {
                    break;
                }
            }
            render_sample(
                &mut out,
                &format!("{}_bucket", row.name),
                &row.labels,
                Some(("le", "+Inf")),
                count,
            );
            render_sample(
                &mut out,
                &format!("{}_sum", row.name),
                &row.labels,
                None,
                hist.sum,
            );
            render_sample(
                &mut out,
                &format!("{}_count", row.name),
                &row.labels,
                None,
                count,
            );
        }
        out
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        );
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: impl std::fmt::Display,
) {
    out.push_str(name);
    render_labels(out, labels, extra);
    let _ = writeln!(out, " {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trips_through_registry_and_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", &[("queue", "default")]);
        c.inc();
        c.add(9);
        // Re-registering the same identity returns the same cell.
        let again = reg.counter("ops_total", &[("queue", "default")]);
        again.inc();
        assert_eq!(c.value(), 11);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops_total", &[("queue", "default")]), Some(11));
        assert_eq!(snap.counter("ops_total", &[("queue", "other")]), None);
        assert_eq!(snap.counter("nope", &[]), None);
    }

    #[test]
    fn label_order_does_not_split_identities() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauge_goes_up_and_down_across_threads() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("inflight", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..1000 {
                        g.inc();
                    }
                    for _ in 0..600 {
                        g.dec();
                    }
                });
            }
        });
        assert_eq!(g.value(), 4 * 400);
        g.add(-(4 * 400));
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn histogram_bucket_totals_equal_sample_counts_by_construction() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[("op", "insert")]);
        for v in [0u64, 1, 1, 3, 200, 5_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count());
        assert_eq!(snap.max(), 5_000_000);
        assert_eq!(snap.sum(), 5_000_205);
        assert_eq!(snap.quantile_upper_bound(0.0), Some(0));
        assert!(snap.quantile_upper_bound(1.0).unwrap() >= 5_000_000);
    }

    #[test]
    fn log_histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
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
        // 100 lives in bucket [64,128), whose upper bound 128 is capped at
        // the max.
        assert_eq!(h.quantile_upper_bound(1.0), Some(100));
    }

    /// Regression: a quantile never reads above the largest recorded value.
    /// 1 500 lives in bucket [1024, 2048), whose upper bound alone would
    /// report 2 048.
    #[test]
    fn quantiles_are_capped_at_the_max() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1_500);
        assert_eq!(h.quantile_upper_bound(1.0), Some(1_500));
        assert_eq!(h.quantile_upper_bound(0.5), Some(0));
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

    /// The sharded cell and the plain histogram are one type's two faces:
    /// values written from four threads snapshot to exactly the buckets,
    /// sum and max that one `LogHistogram` fed the same values holds.
    #[test]
    fn sharded_snapshot_equals_one_plain_histogram() {
        let sharded = Histogram::new();
        let values =
            |t: u64| (0..5_000u64).map(move |i| (i * 7_919 + t * 104_729) % (1 << (i % 40)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let sharded = &sharded;
                s.spawn(move || values(t).for_each(|v| sharded.record(v)));
            }
        });
        let mut plain = LogHistogram::new();
        (0..4).flat_map(values).for_each(|v| plain.record(v));
        assert_eq!(plain.count(), 20_000);
        assert_eq!(sharded.snapshot(), plain);
    }

    #[test]
    fn concurrent_counting_is_conserved_and_monotone() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("churn", &[]);
        let threads = 4;
        let per_thread = 50_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
            // Snapshots taken mid-churn never tear or regress.
            let reg = Arc::clone(&reg);
            s.spawn(move || {
                let mut last = 0u64;
                for _ in 0..100 {
                    let v = reg.snapshot().counter("churn", &[]).unwrap();
                    assert!(v >= last, "snapshot went backwards: {v} < {last}");
                    assert!(v <= threads as u64 * per_thread);
                    last = v;
                }
            });
        });
        assert_eq!(c.value(), threads as u64 * per_thread);
    }

    #[test]
    fn prometheus_rendering_is_parseable_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("ops_total", &[("queue", "q\"1")]).add(3);
        reg.gauge("inflight", &[]).add(-2);
        let h = reg.histogram("lat_ns", &[]);
        h.record(0);
        h.record(5);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{queue=\"q\\\"1\"} 3"));
        assert!(text.contains("inflight -2"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 5"));
        assert!(text.contains("lat_ns_count 2"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn quantiles_match_the_log_bucket_contract() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(100_000); // bucket [65536, 131072)
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_bound(0.5), Some(128));
        assert_eq!(snap.quantile_upper_bound(0.99), Some(128));
        assert_eq!(snap.quantile_upper_bound(1.0), Some(100_000));
    }

    /// Regression: a sample in the top bucket [2^63, 2^64) must saturate
    /// the quantile upper bound to u64::MAX, not overflow `1 << 64`.
    #[test]
    fn quantile_saturates_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_bound(1.0), Some(u64::MAX));
        assert_eq!(snap.quantile_upper_bound(0.5), Some(u64::MAX));
    }

    /// Regression: newlines in label values must be escaped per the
    /// exposition format, or they split the sample line.
    #[test]
    fn prometheus_labels_escape_newlines() {
        let reg = MetricsRegistry::new();
        reg.counter("ops_total", &[("queue", "a\nb")]).inc();
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("ops_total{queue=\"a\\nb\"} 1"));
        assert!(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .all(|l| l.ends_with(" 1")),
            "no sample line is split"
        );
    }
}
