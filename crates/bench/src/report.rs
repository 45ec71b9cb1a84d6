//! Plain-text table output helpers, opt-in machine-readable rows, and the
//! sample statistics the binaries report.
//!
//! Every binary prints one or more tables with a fixed-width layout so the
//! output can be pasted into EXPERIMENTS.md verbatim and diffed across runs.
//!
//! Setting `BENCH_JSON=1` additionally emits one JSON object per data row
//! to **stderr** (tables stay on stdout, so the two streams separate
//! cleanly): `{"experiment":"t9",...}`, one line each, so scripts can
//! collect rows without parsing the human tables. No serde exists in this
//! offline workspace, so the emitter is a small hand-rolled one over
//! [`JsonValue`].
//!
//! A binary that repeats a measurement reports its [`median`] with a
//! [`rel_dispersion`]; [`exceeds_budget`] is the one comparison built on
//! them (t13 gates its telemetry overhead with it). A/B comparisons of two
//! commits belong to the repository benchmark (`perf-ledger/`), not here.

/// Prints a section banner (the experiment id and its paper counterpart).
pub fn print_section(id: &str, title: &str) {
    println!();
    println!("==== {id}: {title} ====");
}

/// Prints a table header row followed by a separator line.
pub fn print_header(columns: &[&str]) {
    let row = columns
        .iter()
        .map(|c| format!("{c:>18}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one data row; values are already formatted strings.
pub fn print_row(cells: &[String]) {
    let row = cells
        .iter()
        .map(|c| format!("{c:>18}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("{row}");
}

/// Formats a float with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an ops/s figure in Mops/s.
pub fn mops(ops_per_second: f64) -> String {
    format!("{:.3}", ops_per_second / 1e6)
}

/// Column set of the choice/batch sweep tables (`t5_choice_sweep`): the
/// swept `d` and delete-batch size, then the measured throughput and rank
/// quality of that configuration.
pub fn print_sweep_header() {
    print_header(&["d", "batch", "threads", "Mops/s", "mean rank", "max rank"]);
}

/// One row of the choice/batch sweep table (see [`print_sweep_header`]).
pub fn print_sweep_row(
    d: usize,
    batch: usize,
    threads: usize,
    ops_per_second: f64,
    mean_rank: f64,
    max_rank: u64,
) {
    print_row(&[
        d.to_string(),
        batch.to_string(),
        threads.to_string(),
        mops(ops_per_second),
        f2(mean_rank),
        max_rank.to_string(),
    ]);
}

/// One field value of a machine-readable row.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string (escaped on output).
    Str(String),
    /// An unsigned counter.
    U64(u64),
    /// A float (emitted with enough digits to round-trip the table value;
    /// non-finite values degrade to `null`, which JSON numbers cannot carry).
    F64(f64),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}

/// Whether `BENCH_JSON=1` is set (checked per call: tests and harnesses may
/// toggle it between rows).
pub fn json_enabled() -> bool {
    std::env::var("BENCH_JSON").as_deref() == Ok("1")
}

/// Escapes `s` into `out` as JSON string contents (quotes not included).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders one row as a single-line JSON object (`experiment` first, then
/// the fields in the order given).
pub fn json_row_string(experiment: &str, fields: &[(&str, JsonValue)]) -> String {
    let mut line = String::with_capacity(64);
    line.push_str("{\"experiment\":\"");
    escape_json(experiment, &mut line);
    line.push('"');
    for (name, value) in fields {
        line.push_str(",\"");
        escape_json(name, &mut line);
        line.push_str("\":");
        match value {
            JsonValue::Str(s) => {
                line.push('"');
                escape_json(s, &mut line);
                line.push('"');
            }
            JsonValue::U64(v) => line.push_str(&v.to_string()),
            JsonValue::F64(v) if v.is_finite() => line.push_str(&format!("{v}")),
            JsonValue::F64(_) => line.push_str("null"),
        }
    }
    line.push('}');
    line
}

/// Emits one machine-readable row to stderr when `BENCH_JSON=1`; a no-op
/// otherwise. Call it right next to the matching [`print_row`].
pub fn emit_json_row(experiment: &str, fields: &[(&str, JsonValue)]) {
    if json_enabled() {
        eprintln!("{}", json_row_string(experiment, fields));
    }
}

/// Median of a non-empty, finite sample set (the mean of the middle two
/// for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// First quartile, median and third quartile of a non-empty, finite sample
/// set, interpolating linearly between order statistics.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Relative dispersion of the samples behind a reported median: half the
/// sample span over the median. A zero median with spread degrades to 1.0
/// (fully noisy) rather than dividing by zero.
pub fn rel_dispersion(samples: &[f64]) -> f64 {
    let m = median(samples.to_vec());
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let half_span = (hi - lo) / 2.0;
    if half_span == 0.0 {
        0.0
    } else if m.abs() < 1e-12 {
        1.0
    } else {
        half_span / m.abs()
    }
}

/// Relative change of `cur`'s median from `base`'s (−0.05 is 5 % lower). A
/// near-zero base median makes a relative change meaningless; it reads 0.
pub fn relative_change(base: &[f64], cur: &[f64]) -> f64 {
    let base = median(base.to_vec());
    if base.abs() < 1e-9 {
        0.0
    } else {
        (median(cur.to_vec()) - base) / base.abs()
    }
}

/// The largest fall [`exceeds_budget`] tolerates: `budget` widened by both
/// sample sets' [`rel_dispersion`], so a noisy measurement cannot read as a
/// breach.
pub fn allowance(base: &[f64], cur: &[f64], budget: f64) -> f64 {
    budget + rel_dispersion(base) + rel_dispersion(cur)
}

/// Whether `cur`'s median (a higher-is-better figure such as throughput)
/// fell below `base`'s by more than the [`allowance`].
pub fn exceeds_budget(base: &[f64], cur: &[f64], budget: f64) -> bool {
    relative_change(base, cur) < -allowance(base, cur, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn zero_span_has_zero_dispersion() {
        assert_eq!(rel_dispersion(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(rel_dispersion(&[0.0, 0.0]), 0.0);
        assert!((rel_dispersion(&[90.0, 100.0, 110.0]) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn identical_samples_stay_within_budget() {
        let samples = [100.0, 101.0, 99.0];
        assert_eq!(relative_change(&samples, &samples), 0.0);
        assert!(!exceeds_budget(&samples, &samples, 0.03));
    }

    #[test]
    fn a_twenty_percent_drop_at_zero_dispersion_fails() {
        let base = [100.0, 100.0, 100.0];
        let slowed = [80.0, 80.0, 80.0];
        assert!((relative_change(&base, &slowed) + 0.20).abs() < 1e-12);
        assert_eq!(allowance(&base, &slowed, 0.03), 0.03);
        assert!(exceeds_budget(&base, &slowed, 0.03));
        // A rise is never a breach.
        assert!(!exceeds_budget(&slowed, &base, 0.03));
    }

    #[test]
    fn dispersion_widens_the_allowance() {
        // Samples spanning ±10 % around the median: the 20 % drop that a
        // quiet measurement fails is inside this noisy one's allowance.
        let base = [90.0, 100.0, 110.0];
        let slowed = [72.0, 80.0, 88.0];
        assert!((allowance(&base, &slowed, 0.03) - 0.23).abs() < 1e-12);
        assert!(!exceeds_budget(&base, &slowed, 0.03));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234");
        assert_eq!(mops(2_500_000.0), "2.500");
    }

    #[test]
    fn printing_does_not_panic() {
        print_section("F1", "throughput");
        print_header(&["queue", "threads", "Mops/s"]);
        print_row(&["multiqueue".into(), "4".into(), "1.234".into()]);
        print_sweep_header();
        print_sweep_row(4, 64, 2, 3_200_000.0, 5.25, 41);
    }

    #[test]
    fn json_rows_render_ordered_escaped_fields() {
        let line = json_row_string(
            "t9",
            &[
                ("backend", JsonValue::from("multiqueue(beta=0.75, c=2)")),
                ("ops", JsonValue::from(120_000u64)),
                ("kops_per_s", JsonValue::from(345.25f64)),
                ("note", JsonValue::Str("a \"quoted\"\nline".to_string())),
                ("bad", JsonValue::F64(f64::NAN)),
            ],
        );
        assert_eq!(
            line,
            "{\"experiment\":\"t9\",\"backend\":\"multiqueue(beta=0.75, c=2)\",\
             \"ops\":120000,\"kops_per_s\":345.25,\
             \"note\":\"a \\\"quoted\\\"\\nline\",\"bad\":null}"
        );
    }

    #[test]
    fn emit_json_row_is_gated_on_the_env_knob() {
        // The knob is read per call; emitting with it unset must be a no-op
        // (observable only as "does not panic" here — the gating logic is
        // what's under test).
        std::env::remove_var("BENCH_JSON");
        assert!(!json_enabled());
        emit_json_row("t0", &[("x", JsonValue::from(1u64))]);
        std::env::set_var("BENCH_JSON", "1");
        assert!(json_enabled());
        emit_json_row("t0", &[("x", JsonValue::from(1u64))]);
        std::env::remove_var("BENCH_JSON");
        assert!(!json_enabled());
    }
}
