//! Measurement helpers shared by the workloads: quantiles, windowed rates,
//! block timing, exact rank accounting and the process memory high-water
//! mark.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use rank_stats::rng::Xoshiro256;
use rank_stats::FenwickTree;

use crate::Report;

/// A deterministic generator for one input stream of a run: the run's seed
/// mixed with a per-stream salt.
pub fn rng(seed: u64, salt: u64) -> Xoshiro256 {
    Xoshiro256::seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The mean of the middle half of `values` (the interquartile mean). Over
/// the windows of a run it drops the quarter hit hardest by a host stall,
/// like a median, but averages the rest, so a host whose speed shifts
/// every second or two does not flip the figure between its modes.
pub fn midmean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of nothing");
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// How many consecutive windows a measured phase of `seconds` is split
/// into for rates and percentiles: one per 100 ms, at least ten.
pub fn windows(seconds: f64) -> usize {
    ((seconds * 10.0).round() as usize).max(10)
}

/// The `q`-quantile (nearest rank) of each of `windows` consecutive windows
/// of the samples, interquartile mean over the windows, in µs. `sources` hold samples
/// in time order (one per thread); window `w` takes the `w`-th slice of
/// each. A stall lands in few windows and is trimmed away. A window
/// that leaves fewer than ten samples beyond its quantile fails the run's
/// checks: that percentile was not measured.
pub fn windowed_us(
    sources: &[&[u64]],
    windows: usize,
    q: f64,
    what: &str,
    report: &mut Report,
) -> f64 {
    let mut per_window = Vec::with_capacity(windows);
    let mut window = Vec::new();
    for w in 0..windows {
        window.clear();
        for s in sources {
            window.extend_from_slice(&s[s.len() * w / windows..s.len() * (w + 1) / windows]);
        }
        window.sort_unstable();
        let n = window.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        report.check(n >= rank + 10, || {
            format!("{what}: a window of {n} samples leaves fewer than ten beyond the {q} quantile")
        });
        per_window.push(window.get(rank - 1).map_or(0.0, |&ns| ns as f64 / 1e3));
    }
    midmean(&mut per_window)
}

/// Sets `<prefix>_p50_us` and `<prefix>_p99_us` from [`windowed_us`].
pub fn set_p50_p99(
    report: &mut Report,
    prefix: &str,
    sources: &[&[u64]],
    windows: usize,
    what: &str,
) {
    for (q, suffix) in [(0.50, "p50_us"), (0.99, "p99_us")] {
        let value = windowed_us(sources, windows, q, what, report);
        report.set(&format!("{prefix}_{suffix}"), value);
    }
}

/// A fixed-size latency sample buffer, written through once at creation so
/// the process's memory does not depend on how many samples a run takes.
/// Past capacity it keeps the most recent samples.
pub struct Samples {
    buf: Vec<u64>,
    written: usize,
}

impl Samples {
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: vec![u64::MAX; capacity],
            written: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        let capacity = self.buf.len();
        self.buf[self.written % capacity] = ns;
        self.written += 1;
    }

    /// The kept samples, oldest first.
    pub fn into_ordered(mut self) -> Vec<u64> {
        let capacity = self.buf.len();
        if self.written > capacity {
            self.buf.rotate_left(self.written % capacity);
        } else {
            self.buf.truncate(self.written);
        }
        self.buf
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ns_per(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Times `rounds` calls of `block`, each doing `ops` operations, and returns
/// the median nanoseconds per operation. Blocks amortise the clock reads
/// over many sub-µs calls; the median drops rounds hit by preemption.
pub fn block_ns(rounds: usize, ops: usize, mut block: impl FnMut(usize)) -> f64 {
    let mut per_op: Vec<f64> = (0..rounds)
        .map(|round| {
            let t0 = Instant::now();
            block(round);
            ns_per(t0.elapsed(), ops as u64)
        })
        .collect();
    median(&mut per_op)
}

/// Cache-line padded progress counter, one per busy thread, read by the
/// measuring thread through [`windowed_rate`].
#[repr(align(128))]
#[derive(Default)]
pub struct Progress(pub AtomicU64);

/// Samples a monotone completion counter once per window until `seconds`
/// have passed, returning the interquartile mean of the per-window rates
/// (ops/s).
pub fn windowed_rate(seconds: f64, mut progress: impl FnMut() -> u64) -> f64 {
    let windows = windows(seconds);
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let start = Instant::now();
    let mut last = (start, progress());
    let mut rates = Vec::with_capacity(windows);
    for w in 1..=windows {
        let due = start + window * w as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sample = (Instant::now(), progress());
        let dt = sample.0.duration_since(last.0).as_secs_f64();
        rates.push((sample.1 - last.1) as f64 / dt.max(1e-9));
        last = sample;
    }
    midmean(&mut rates)
}

/// Per-window completion rates for a loop that runs on the measuring thread
/// itself: call [`RateWindows::tick`] with the running completion count.
pub struct RateWindows {
    window: Duration,
    last: (Instant, u64),
    rates: Vec<f64>,
}

impl RateWindows {
    pub fn new(seconds: f64) -> Self {
        let windows = windows(seconds);
        Self {
            window: Duration::from_secs_f64(seconds / windows as f64),
            last: (Instant::now(), 0),
            rates: Vec::with_capacity(windows + 1),
        }
    }

    pub fn tick(&mut self, now: Instant, done: u64) {
        let dt = now.duration_since(self.last.0);
        if dt >= self.window {
            self.rates
                .push((done - self.last.1) as f64 / dt.as_secs_f64());
            self.last = (now, done);
        }
    }

    /// The interquartile mean of the per-window rates.
    pub fn midmean(mut self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        midmean(&mut self.rates)
    }
}

/// Key count and wrapping key sum, for conservation checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub sum: u64,
}

impl Tally {
    pub fn add(&mut self, key: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key);
    }

    pub fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Rank accounting over an exactly known set of present keys: a removal's
/// rank is 1 plus the number of present keys strictly smaller than it.
pub struct PresentKeys {
    keys: Vec<u64>,
    tree: FenwickTree,
    pub ranks: RankTally,
}

impl PresentKeys {
    /// `universe` must contain every key that will be added.
    pub fn new(mut universe: Vec<u64>) -> Self {
        universe.sort_unstable();
        universe.dedup();
        let tree = FenwickTree::new(universe.len().max(1));
        Self {
            keys: universe,
            tree,
            ranks: RankTally::default(),
        }
    }

    fn index(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k < key)
    }

    pub fn add(&mut self, key: u64) {
        let i = self.index(key);
        self.tree.add(i, 1);
    }

    /// Removes `key` and records its rank among the keys still present.
    pub fn remove_ranked(&mut self, key: u64) {
        let i = self.index(key);
        self.tree.sub(i, 1);
        let smaller = if i == 0 {
            0
        } else {
            self.tree.prefix_sum(i - 1)
        };
        self.ranks.record(smaller + 1);
    }
}

/// Removals per block for [`RankTally::max`].
const RANK_BLOCK: u64 = 1 << 14;

/// Running mean of removal ranks, and the worst rank of each block of
/// [`RANK_BLOCK`] removals.
#[derive(Clone, Debug, Default)]
pub struct RankTally {
    sum: u128,
    count: u64,
    block_max: u64,
    maxima: Vec<f64>,
}

impl RankTally {
    pub fn record(&mut self, rank: u64) {
        self.sum += u128::from(rank);
        self.count += 1;
        self.block_max = self.block_max.max(rank);
        if self.count.is_multiple_of(RANK_BLOCK) {
            self.maxima.push(self.block_max as f64);
            self.block_max = 0;
        }
    }

    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// The worst rank of a block of 2^14 removals, median over the blocks.
    /// One run-wide maximum is a single extreme sample; this is its
    /// repeatable counterpart.
    pub fn max(&self) -> f64 {
        if self.maxima.is_empty() {
            return self.block_max as f64;
        }
        median(&mut self.maxima.clone())
    }
}

/// Removals whose key is smaller than the same consumer's previous removal,
/// per 1000 removals: the scheduler's own "deadline inversion" count,
/// applied to any consumer's removal order.
pub fn inversions_per_k(keys: impl IntoIterator<Item = u64>) -> f64 {
    let mut previous = 0u64;
    let mut removals = 0u64;
    let mut inversions = 0u64;
    for key in keys {
        if key < previous {
            inversions += 1;
        }
        previous = key;
        removals += 1;
    }
    inversions as f64 * 1000.0 / removals.max(1) as f64
}
