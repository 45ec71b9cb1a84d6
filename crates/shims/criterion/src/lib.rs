//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network registry, so this shim provides the
//! API subset the workspace benches use — `criterion_group!`/`criterion_main!`,
//! [`Criterion::bench_function`], [`Bencher::iter`]/[`Bencher::iter_batched`]
//! and [`BatchSize`] — backed by a simple wall-clock sampler: per sample the
//! setup closure runs untimed and the routine is timed, and the median / mean
//! / standard deviation over all samples are printed in a criterion-like
//! format. Numbers are comparable across runs on the same machine, which is
//! all the in-tree `BENCH_NOTES.md` methodology needs.
//!
//! Environment knobs: `BENCH_SAMPLES` (default 25) and `BENCH_WARMUP`
//! (default 3) control the per-benchmark sample counts. A knob that is set
//! but is not a positive integer panics, naming the knob and its value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How measured batches are sized. The shim times one routine call per sample
/// regardless, so the variants only exist for API compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state (setup dominates memory).
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// The benchmark driver handed to `criterion_group!` functions.
#[derive(Debug)]
pub struct Criterion {
    samples: usize,
    warmup: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let read = |name: &str, default: usize| {
            let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
            parse_count(name, value.as_deref(), default)
        };
        Self {
            samples: read("BENCH_SAMPLES", 25),
            warmup: read("BENCH_WARMUP", 3),
        }
    }
}

/// The count the knob `name` sets: `value` when set, `default` when unset.
///
/// # Panics
///
/// Panics, naming the knob and its value, when `value` is not a positive
/// integer: `BENCH_SAMPLES=1O` is a typo, not a request for the default.
fn parse_count(name: &str, value: Option<&str>, default: usize) -> usize {
    value.map_or(default, |v| {
        v.parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("{name}={v:?} is not a positive integer"))
    })
}

impl Criterion {
    /// Benchmarks `f`, printing a criterion-style result line.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.samples),
            sample_target: self.samples,
            warmup: self.warmup,
        };
        f(&mut bencher);
        bencher.report(name);
        self
    }
}

/// Collects timed samples for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_target: usize,
    warmup: usize,
}

impl Bencher {
    /// Times `routine` with no per-sample setup.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.warmup {
            let input = setup();
            black_box(routine(input));
        }
        for _ in 0..self.sample_target {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            let elapsed = start.elapsed();
            black_box(out);
            self.samples.push(elapsed);
        }
    }

    fn report(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<58} (no samples)");
            return;
        }
        let mut nanos: Vec<f64> = self.samples.iter().map(|d| d.as_nanos() as f64).collect();
        nanos.sort_by(|a, b| a.total_cmp(b));
        let median = nanos[nanos.len() / 2];
        let mean = nanos.iter().sum::<f64>() / nanos.len() as f64;
        let var =
            nanos.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / nanos.len().max(1) as f64;
        println!(
            "{name:<58} time: [median {} mean {} ± {}]",
            fmt_ns(median),
            fmt_ns(mean),
            fmt_ns(var.sqrt()),
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group: a function running each listed benchmark
/// function against a default [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        std::env::set_var("BENCH_SAMPLES", "4");
        std::env::set_var("BENCH_WARMUP", "1");
        let mut c = Criterion::default();
        let mut calls = 0u32;
        c.bench_function("shim/self_test", |b| {
            b.iter_batched(|| 21u64, |x| x * 2, BatchSize::SmallInput)
        });
        c.bench_function("shim/iter", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        assert!(calls >= 5, "warmup + samples must run the routine");
        std::env::remove_var("BENCH_SAMPLES");
        std::env::remove_var("BENCH_WARMUP");
    }

    #[test]
    fn knobs_read_an_unset_or_a_valid_value() {
        assert_eq!(parse_count("BENCH_SAMPLES", None, 25), 25);
        assert_eq!(parse_count("BENCH_SAMPLES", Some("2"), 25), 2);
    }

    #[test]
    #[should_panic(expected = "BENCH_WARMUP=\"0\" is not a positive integer")]
    fn a_malformed_knob_panics_with_its_value() {
        parse_count("BENCH_WARMUP", Some("0"), 3);
    }

    #[test]
    fn formats_scale() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with(" s"));
    }
}
