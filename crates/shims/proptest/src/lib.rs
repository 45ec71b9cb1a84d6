//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network registry, so this shim provides the
//! API subset the workspace tests use: the [`proptest!`] macro (with optional
//! `#![proptest_config(...)]` header), `prop_assert!`/`prop_assert_eq!`/
//! `prop_assert_ne!`, [`ProptestConfig::with_cases`], range strategies over
//! the integer and float primitives, [`collection::vec`] and [`option::of`].
//!
//! Differences from real proptest: no shrinking, and no persistence files —
//! regression corpora are checked in explicitly (see
//! `crates/service/proptest-regressions/`) and replayed by dedicated tests.
//!
//! **Every case has its own seed**, derived from the test's module path and
//! the case index. A failing case — `prop_assert*` or a plain panic inside
//! the body — reports that seed in a `PROPTEST_SEED=0x…` form straight from
//! the CI log, and running the test with that environment variable set
//! replays exactly the failing case (one case, same inputs), no matter how
//! the surrounding suite changed.
//!
//! Like real proptest, the `PROPTEST_CASES` environment variable overrides
//! the per-block case count (the CI stress job runs the suites with
//! `PROPTEST_CASES=256`). Unlike real proptest, which warns and falls back
//! to the default, a `PROPTEST_CASES` that is not a positive integer or a
//! `PROPTEST_SEED` that is not a seed panics, naming the variable and its
//! value: the test harness hides what a passing test prints, so a warning
//! would go unseen while the run silently did something else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Everything a `use proptest::prelude::*;` consumer expects.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The case count actually run: the `PROPTEST_CASES` environment
    /// variable when set (matching real proptest's override, used by the CI
    /// stress job), this configuration's `cases` otherwise.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when it is set but is not
    /// a positive `u32`.
    pub fn effective_cases(&self) -> u32 {
        self.cases_with_override(env_value("PROPTEST_CASES").as_deref())
    }

    /// [`effective_cases`](ProptestConfig::effective_cases) with the
    /// override value passed explicitly — the pure core, testable without
    /// mutating process-global environment (setenv racing getenv across
    /// parallel test threads is undefined behaviour on glibc).
    fn cases_with_override(&self, value: Option<&str>) -> u32 {
        value.map_or(self.cases, |v| {
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("PROPTEST_CASES={v:?} is not a positive u32"))
        })
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed `prop_assert*` inside a proptest case.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic generator handed to [`Strategy::sample`] (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

/// FNV-1a over a test's full name — the stable per-test base seed.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed of one proptest case: test name × case index, scrambled so
/// neighbouring cases draw unrelated streams. This is the value a failure
/// reports and [`seed_override`] replays.
pub fn case_seed(name: &str, case: u32) -> u64 {
    name_seed(name) ^ (u64::from(case).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An environment variable's value, if set; a value that is not UTF-8
/// comes back lossily converted, so it fails to parse like any other typo.
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Parses a `PROPTEST_SEED` value: hex with a `0x` prefix (the form
/// failures print) or plain decimal.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is
/// neither.
fn parse_seed(value: Option<&str>) -> Option<u64> {
    let v = value?;
    let trimmed = v.trim();
    let seed = match trimmed
        .strip_prefix("0x")
        .or_else(|| trimmed.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => trimmed.parse().ok(),
    };
    Some(seed.unwrap_or_else(|| {
        panic!("PROPTEST_SEED={v:?} is not a u64 (hex with a 0x prefix, or decimal)")
    }))
}

/// The seed pinned by the `PROPTEST_SEED` environment variable, if any.
/// When set, every `proptest!` test in the process runs exactly one case
/// with this seed — the replay mode a failure's message points at.
///
/// # Panics
///
/// Panics when the variable is set but is not a seed.
pub fn seed_override() -> Option<u64> {
    parse_seed(env_value("PROPTEST_SEED").as_deref())
}

impl TestRng {
    /// Seeds the generator from a test's name so each test draws an
    /// independent, stable stream.
    pub fn from_name(name: &str) -> Self {
        Self::from_seed(name_seed(name))
    }

    /// Seeds the generator from an explicit case seed (see [`case_seed`]).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Self { state: seed };
        rng.next_u64(); // one scramble step so similar seeds diverge
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift; bias is negligible for test-case generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator: the sampled subset of proptest's `Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($ty:ty),+) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain range: any value is in bounds.
                    rng.next_u64() as $ty
                } else {
                    lo + rng.below(span) as $ty
                }
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        // Include the upper endpoint by drawing over a closed grid.
        let t = rng.below(1 << 53) as f64 / ((1u64 << 53) - 1) as f64;
        self.start() + t * (self.end() - self.start())
    }
}

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option`s (≈½ `Some`).
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Some(value)` about half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

/// Fails the current proptest case when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current proptest case when the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

/// Fails the current proptest case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Declares property tests: each `fn` becomes a `#[test]` running its body
/// over random samples of the `name in strategy` arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($argpat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            // PROPTEST_SEED pins a single case: the replay mode every
            // failure's message points at.
            let forced = $crate::seed_override();
            let cases = if forced.is_some() { 1 } else { config.effective_cases() };
            for case in 0..cases {
                let seed = forced.unwrap_or_else(|| $crate::case_seed(test_name, case));
                let mut rng = $crate::TestRng::from_seed(seed);
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::core::result::Result<(), $crate::TestCaseError> {
                        $(let $argpat = $crate::Strategy::sample(&($strat), &mut rng);)+
                        $body
                        ::core::result::Result::Ok(())
                    },
                ));
                match outcome {
                    ::core::result::Result::Ok(::core::result::Result::Ok(())) => {}
                    ::core::result::Result::Ok(::core::result::Result::Err(error)) => {
                        panic!(
                            "proptest case {}/{} for `{}` failed \
                             (replay with PROPTEST_SEED=0x{:016x}): {}",
                            case + 1,
                            cases,
                            stringify!($name),
                            seed,
                            error
                        );
                    }
                    ::core::result::Result::Err(payload) => {
                        // A plain panic inside the body: make the seed
                        // visible in the CI log before re-raising it.
                        eprintln!(
                            "proptest case {}/{} for `{}` panicked \
                             (replay with PROPTEST_SEED=0x{:016x})",
                            case + 1,
                            cases,
                            stringify!($name),
                            seed
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn proptest_cases_override_replaces_the_configured_count() {
        // Exercised through the pure core — no env mutation, which would
        // race the parallel proptest blocks in this same binary reading
        // `PROPTEST_CASES` through `effective_cases`.
        let config = ProptestConfig::with_cases(3);
        assert_eq!(config.cases_with_override(Some("7")), 7);
        assert_eq!(config.cases_with_override(Some("256")), 256);
        assert_eq!(config.cases_with_override(None), 3);
        assert_eq!(ProptestConfig::with_cases(64).cases, 64);
    }

    #[test]
    fn a_malformed_proptest_cases_panics_with_its_value() {
        // Real proptest warns and falls back to the default here; the shim
        // refuses, because the harness hides a passing test's warning.
        let config = ProptestConfig::with_cases(3);
        for bad in ["not-a-number", "0", "", "-1", "256k"] {
            let message = std::panic::catch_unwind(|| config.cases_with_override(Some(bad)))
                .expect_err(bad)
                .downcast::<String>()
                .expect("a formatted panic message");
            assert_eq!(
                *message,
                format!("PROPTEST_CASES={bad:?} is not a positive u32")
            );
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        let mut c = crate::TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn every_case_has_a_stable_distinct_seed() {
        let seeds: Vec<u64> = (0..64).map(|i| crate::case_seed("mod::test", i)).collect();
        // Stable: recomputing gives the same seed (what makes the printed
        // PROPTEST_SEED replay the failing inputs)...
        assert_eq!(seeds[17], crate::case_seed("mod::test", 17));
        // ...and distinct across cases and test names.
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(crate::case_seed("other::test", 0), seeds[0]);
        // A replayed seed regenerates the exact sample stream.
        let mut live = crate::TestRng::from_seed(seeds[3]);
        let mut replay = crate::TestRng::from_seed(seeds[3]);
        for _ in 0..8 {
            assert_eq!(live.next_u64(), replay.next_u64());
        }
    }

    #[test]
    fn seed_override_parses_the_printed_form() {
        // Through the pure core — no env mutation (setenv racing getenv
        // across parallel test threads is undefined behaviour on glibc).
        assert_eq!(crate::parse_seed(Some("0x00000000000000ff")), Some(255));
        assert_eq!(crate::parse_seed(Some("0XFF")), Some(255));
        assert_eq!(crate::parse_seed(Some("123")), Some(123));
        assert_eq!(crate::parse_seed(Some(" 0x10 ")), Some(16));
        assert_eq!(crate::parse_seed(None), None);
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED=\"0xnope\" is not a u64")]
    fn a_malformed_seed_panics_instead_of_running_every_case() {
        crate::parse_seed(Some("0xnope"));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1_000 {
            let v = crate::Strategy::sample(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = crate::Strategy::sample(&(0.25f64..=0.75), &mut rng);
            assert!((0.25..=0.75).contains(&f));
            let o = crate::Strategy::sample(&crate::option::of(0u32..4), &mut rng);
            assert!(o.is_none() || o.unwrap() < 4);
            let xs = crate::Strategy::sample(&crate::collection::vec(0u8..9, 2..5), &mut rng);
            assert!(xs.len() >= 2 && xs.len() < 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_samples_and_asserts(mut xs in crate::collection::vec(0u64..100, 0..20), k in 1usize..4) {
            xs.sort_unstable();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(k.min(3), k);
            prop_assert_ne!(k, 0);
        }
    }
}
