//! Per-commit bench trajectory: parsing, aggregating and comparing the
//! `BENCH_*.json` row streams the bench binaries emit under `BENCH_JSON=1`.
//!
//! A *trajectory artifact* is a file of one-line JSON objects (the stderr
//! stream of a bench binary, e.g. `BENCH_t11.json`). This module turns one
//! or more such files into [`BenchPoint`]s — per `(bench id, config, metric)`
//! the **median over N reps**, a relative dispersion, and the commit the
//! numbers belong to — and compares two sets of points with a **noise-aware
//! comparator**: a change only counts as a regression when it exceeds the
//! base threshold *plus both sides' measured dispersion*, so a noisy bench
//! widens its own gate instead of flapping CI.
//!
//! Field classification is by convention, matching what the binaries emit:
//!
//! * **throughput metrics** (higher is better, *gated* — a regression fails
//!   `t12_compare`): `kops_per_s`, `ktask_per_s`, `mops_per_s`,
//!   `victim_kops_per_s`, …;
//! * **quality metrics** (lower is better, reported but not gated — rank
//!   and tail-latency numbers are too heavy-tailed to fail CI on):
//!   `p99_*`, `p50_*`, `max_rtt_us`, `mean_rank`, `inversions_per_k`, …;
//! * **config fields** (strings and knob-like integers) form the point's
//!   identity; run-varying diagnostics (`empty_polls`, `aggressor_ops`, …)
//!   are deliberately excluded from both identity and metrics.
//!
//! No serde exists in this offline workspace; the parser below handles
//! exactly the flat objects [`report::json_row_string`](crate::report)
//! produces (strings, numbers, booleans, null — no nesting).

use crate::report::{json_row_string, JsonValue};
use std::collections::BTreeMap;

/// One parsed JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// Any JSON number (integers included; the emitters' u64 counters fit).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null` (the emitter degrades non-finite floats to this).
    Null,
}

/// Config fields that identify a bench point (everything the binaries sweep
/// or fix per row). Unknown fields are *not* identity: diagnostics such as
/// `empty_polls` vary run to run and must not split the trajectory.
const CONFIG_KEYS: &[&str] = &[
    "scenario",
    "phase",
    "backend",
    "pattern",
    "queues",
    "clients",
    "d",
    "batch",
    "delete_batch",
    "threads",
    "window",
    "lanes",
    "shards",
    "aggressor_connections",
    "victim_ops",
    "victim_rate",
    "prefill",
];

/// Throughput metric fields: higher is better, and regressions are gated.
const THROUGHPUT_KEYS: &[&str] = &[
    "kops_per_s",
    "ktask_per_s",
    "ktasks_per_s",
    "mops_per_s",
    "ops_per_s",
    "tasks_per_s",
    "victim_kops_per_s",
];

/// Whether `key` is a lower-is-better quality metric (reported, not gated).
fn is_quality_key(key: &str) -> bool {
    key.starts_with("p50_")
        || key.starts_with("p95_")
        || key.starts_with("p99_")
        || key == "max_rtt_us"
        || key == "mean_rank"
        || key == "max_rank"
        || key == "inversions_per_k"
}

/// The direction and gate class of a metric field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Higher is better; a regression fails the comparator's gate.
    Throughput,
    /// Lower is better; reported only (tails are too noisy to gate on).
    Quality,
}

/// Classifies a row field name as a metric, or `None` for config/diagnostic.
pub fn metric_kind(key: &str) -> Option<MetricKind> {
    if THROUGHPUT_KEYS.contains(&key) {
        Some(MetricKind::Throughput)
    } else if is_quality_key(key) {
        Some(MetricKind::Quality)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Flat-object JSON parsing
// ---------------------------------------------------------------------------

/// Parses one flat JSON object line into ordered `(key, value)` pairs.
/// Nested arrays/objects are rejected — the bench emitters never produce
/// them, so their appearance means the file is not a trajectory artifact.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = parse_value(&mut chars)?;
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing content at byte {i}: {c:?}"));
    }
    Ok(fields)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut Chars, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_string(chars: &mut Chars) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                        code = code * 16 + c.to_digit(16).ok_or("bad \\u escape digit")?;
                    }
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar")?);
                }
                other => return Err(format!("unsupported escape: {other:?}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_value(chars: &mut Chars) -> Result<Value, String> {
    match chars.peek() {
        Some(&(_, '"')) => Ok(Value::Str(parse_string(chars)?)),
        Some(&(_, '[')) | Some(&(_, '{')) => {
            Err("nested containers are not part of the trajectory schema".into())
        }
        Some(&(_, c)) if c.is_ascii_alphabetic() => {
            let word: String = std::iter::from_fn(|| {
                matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_alphabetic())
                    .then(|| chars.next().map(|(_, c)| c))
                    .flatten()
            })
            .collect();
            match word.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                "null" => Ok(Value::Null),
                other => Err(format!("unknown literal {other:?}")),
            }
        }
        Some(_) => {
            let text: String = std::iter::from_fn(|| {
                matches!(chars.peek(), Some(&(_, c))
                         if c.is_ascii_digit() || "+-.eE".contains(c))
                .then(|| chars.next().map(|(_, c)| c))
                .flatten()
            })
            .collect();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        None => Err("expected a value, got end of line".into()),
    }
}

/// Parses a whole artifact (one JSON object per non-empty line).
pub fn parse_lines(input: &str) -> Result<Vec<Vec<(String, Value)>>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| parse_object(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation into bench points
// ---------------------------------------------------------------------------

/// One point of the bench trajectory: a `(bench id, config, metric)` with
/// its median over the collected reps, a relative dispersion, and the
/// commit the numbers were measured at.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    /// The bench binary's id (`t9`, `t11`, …) — the row's `experiment`.
    pub experiment: String,
    /// Identity string: experiment plus every config field, `k=v` ordered
    /// as emitted (e.g. `t11 scenario=spread queues=8 clients=4`).
    pub id: String,
    /// The metric field name (`kops_per_s`, `p99_rtt_us`, …).
    pub metric: String,
    /// Direction / gate class of [`Self::metric`].
    pub kind: MetricKind,
    /// Median of the metric over all collected reps.
    pub median: f64,
    /// Relative dispersion: half the sample span over the median, combined
    /// with any `rel_dispersion` the rows themselves carried. 0 for a
    /// single noiseless rep.
    pub rel_dispersion: f64,
    /// Reps aggregated into this point (files × per-row sample counts).
    pub reps: u64,
    /// The commit the rows were measured at (`commit` field, or the
    /// fallback passed to [`collect`]).
    pub commit: String,
}

/// Median of a non-empty, finite sample set.
fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Relative half-span of a sorted-able sample set around its median; a
/// zero median with spread degrades to 1.0 ("fully noisy") rather than
/// dividing by zero.
fn rel_spread(samples: &mut [f64]) -> f64 {
    let m = median_of(samples);
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

struct Group {
    experiment: String,
    kind: MetricKind,
    samples: Vec<f64>,
    row_dispersions: Vec<f64>,
    reps: u64,
    commit: Option<String>,
}

/// Aggregates artifact contents (each string one file — one *rep* unless
/// its rows carry their own rep counts) into bench points. Rows missing an
/// `experiment` field are rejected; rows may carry `commit`, `samples` /
/// `reps` and `rel_dispersion` fields, which fold into the point.
pub fn collect(contents: &[String], fallback_commit: &str) -> Result<Vec<BenchPoint>, String> {
    let mut groups: BTreeMap<(String, String), Group> = BTreeMap::new();
    for content in contents {
        for row in parse_lines(content)? {
            let experiment = row
                .iter()
                .find(|(k, _)| k == "experiment")
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .ok_or("row without an \"experiment\" field")?;
            let mut id = experiment.clone();
            for (k, v) in &row {
                if CONFIG_KEYS.contains(&k.as_str()) {
                    let rendered = match v {
                        Value::Str(s) => s.clone(),
                        Value::Num(n) => format!("{n}"),
                        Value::Bool(b) => b.to_string(),
                        Value::Null => "null".into(),
                    };
                    id.push_str(&format!(" {k}={rendered}"));
                }
            }
            let row_reps = row
                .iter()
                .find(|(k, _)| k == "samples" || k == "reps")
                .and_then(|(_, v)| match v {
                    Value::Num(n) if *n >= 1.0 => Some(*n as u64),
                    _ => None,
                })
                .unwrap_or(1);
            let row_dispersion =
                row.iter()
                    .find(|(k, _)| k == "rel_dispersion")
                    .and_then(|(_, v)| match v {
                        Value::Num(n) if n.is_finite() && *n >= 0.0 => Some(*n),
                        _ => None,
                    });
            let row_commit = row
                .iter()
                .find(|(k, _)| k == "commit")
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                });
            for (k, v) in &row {
                let Some(kind) = metric_kind(k) else { continue };
                let Value::Num(value) = v else { continue };
                if !value.is_finite() {
                    continue;
                }
                let group = groups
                    .entry((id.clone(), k.clone()))
                    .or_insert_with(|| Group {
                        experiment: experiment.clone(),
                        kind,
                        samples: Vec::new(),
                        row_dispersions: Vec::new(),
                        reps: 0,
                        commit: None,
                    });
                group.samples.push(*value);
                group.reps += row_reps;
                if let Some(d) = row_dispersion {
                    group.row_dispersions.push(d);
                }
                if group.commit.is_none() {
                    group.commit = row_commit.clone();
                }
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|((id, metric), mut g)| {
            let cross_rep = rel_spread(&mut g.samples);
            let carried = if g.row_dispersions.is_empty() {
                0.0
            } else {
                median_of(&mut g.row_dispersions)
            };
            BenchPoint {
                experiment: g.experiment,
                id,
                metric,
                kind: g.kind,
                median: median_of(&mut g.samples),
                rel_dispersion: cross_rep.max(carried),
                reps: g.reps,
                commit: g.commit.unwrap_or_else(|| fallback_commit.to_string()),
            }
        })
        .collect())
}

/// Renders points as a canonical trajectory artifact (one JSON line each),
/// re-parsable by [`collect`] — `median` re-enters as the metric value.
pub fn render(points: &[BenchPoint]) -> String {
    let mut out = String::new();
    for p in points {
        // `id` carries the full config; re-emitting it under a config key
        // keeps identity stable when the canonical file is re-collected.
        out.push_str(&json_row_string(
            &p.experiment,
            &[
                ("scenario", JsonValue::Str(p.id.clone())),
                (p.metric.as_str(), JsonValue::F64(p.median)),
                ("rel_dispersion", JsonValue::F64(p.rel_dispersion)),
                ("reps", JsonValue::U64(p.reps)),
                ("commit", JsonValue::Str(p.commit.clone())),
            ],
        ));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// The noise-aware comparator
// ---------------------------------------------------------------------------

/// Outcome of comparing one bench point across two commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise allowance.
    Pass,
    /// Better than the allowance bound.
    Improvement,
    /// Worse than the allowance bound (fails CI when the metric is gated).
    Regression,
    /// Present in the baseline, absent in the current run.
    Missing,
}

/// One compared point.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Identity string of the point (see [`BenchPoint::id`]).
    pub id: String,
    /// Metric field name.
    pub metric: String,
    /// Whether a [`Verdict::Regression`] here fails the gate.
    pub gated: bool,
    /// Baseline median.
    pub baseline: f64,
    /// Current median (0 when [`Verdict::Missing`]).
    pub current: f64,
    /// Signed relative change, positive = metric value went up.
    pub change: f64,
    /// The allowance the change was judged against: `threshold` plus both
    /// sides' relative dispersion.
    pub allowance: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `current` against `baseline`, matching points by `(id, metric)`.
/// `threshold` is the base relative tolerance (0.10 = 10%); each pair's
/// allowance additionally absorbs the measured dispersion on both sides.
/// Points only in `current` (new benches) are ignored; points only in
/// `baseline` come back as [`Verdict::Missing`] so the caller can warn.
pub fn compare(baseline: &[BenchPoint], current: &[BenchPoint], threshold: f64) -> Vec<Comparison> {
    let current_by_key: BTreeMap<(&str, &str), &BenchPoint> = current
        .iter()
        .map(|p| ((p.id.as_str(), p.metric.as_str()), p))
        .collect();
    baseline
        .iter()
        .map(|base| {
            let gated = base.kind == MetricKind::Throughput;
            match current_by_key.get(&(base.id.as_str(), base.metric.as_str())) {
                None => Comparison {
                    id: base.id.clone(),
                    metric: base.metric.clone(),
                    gated: false,
                    baseline: base.median,
                    current: 0.0,
                    change: 0.0,
                    allowance: 0.0,
                    verdict: Verdict::Missing,
                },
                Some(cur) => {
                    let allowance = threshold + base.rel_dispersion + cur.rel_dispersion;
                    // A near-zero baseline (e.g. a 0µs p99) makes relative
                    // change meaningless; such pairs always pass.
                    let change = if base.median.abs() < 1e-9 {
                        0.0
                    } else {
                        (cur.median - base.median) / base.median.abs()
                    };
                    let worse = match base.kind {
                        MetricKind::Throughput => change < -allowance,
                        MetricKind::Quality => change > allowance,
                    };
                    let better = match base.kind {
                        MetricKind::Throughput => change > allowance,
                        MetricKind::Quality => change < -allowance,
                    };
                    Comparison {
                        id: base.id.clone(),
                        metric: base.metric.clone(),
                        gated,
                        baseline: base.median,
                        current: cur.median,
                        change,
                        allowance,
                        verdict: if worse {
                            Verdict::Regression
                        } else if better {
                            Verdict::Improvement
                        } else {
                            Verdict::Pass
                        },
                    }
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Slow-drift detection over a per-commit history
// ---------------------------------------------------------------------------

/// One slow-drift observation over a run history: a metric whose recent
/// half moved away from its older half beyond the allowance, even though no
/// single adjacent pair regressed enough to trip the gate.
#[derive(Clone, Debug)]
pub struct Drift {
    /// Identity string of the point (see [`BenchPoint::id`]).
    pub id: String,
    /// Metric field name.
    pub metric: String,
    /// Direction / gate class of the metric.
    pub kind: MetricKind,
    /// Median of the older half of the series.
    pub older: f64,
    /// Median of the newer half of the series.
    pub newer: f64,
    /// Signed relative change from older to newer half.
    pub change: f64,
    /// Runs the series spanned.
    pub runs: usize,
}

/// Scans a run history (`runs` ordered **oldest → newest**, each one
/// `collect`ed artifact) for slow drift: per `(id, metric)` series present
/// in at least four runs, the series is split into an older and a newer
/// half, and a metric whose newer-half median moved in the *worse*
/// direction by more than `threshold` is reported. This catches the
/// boiled-frog case the pairwise gate structurally cannot — N consecutive
/// sub-allowance losses that compound past the budget. Report-only by
/// design: history depth varies per checkout, so CI prints these as
/// warnings instead of failing.
pub fn detect_drift(runs: &[Vec<BenchPoint>], threshold: f64) -> Vec<Drift> {
    let mut series: BTreeMap<(String, String), (MetricKind, Vec<f64>, usize)> = BTreeMap::new();
    for run in runs {
        for p in run {
            let entry =
                series
                    .entry((p.id.clone(), p.metric.clone()))
                    .or_insert((p.kind, Vec::new(), 0));
            entry.1.push(p.median);
            entry.2 += 1;
        }
    }
    let mut drifts = Vec::new();
    for ((id, metric), (kind, values, runs)) in series {
        if values.len() < 4 {
            continue; // need two per half for the medians to mean anything
        }
        let mid = values.len() / 2;
        let (mut older_half, mut newer_half) = (values[..mid].to_vec(), values[mid..].to_vec());
        let older = median_of(&mut older_half);
        let newer = median_of(&mut newer_half);
        if older.abs() < 1e-9 {
            continue;
        }
        let change = (newer - older) / older.abs();
        let worse = match kind {
            MetricKind::Throughput => change < -threshold,
            MetricKind::Quality => change > threshold,
        };
        if worse {
            drifts.push(Drift {
                id,
                metric,
                kind,
                older,
                newer,
                change,
                runs,
            });
        }
    }
    drifts
}

/// The commit hash to stamp artifacts with: `BENCH_COMMIT` when set (CI
/// pins it), otherwise `git rev-parse --short HEAD`, otherwise `unknown`.
pub fn commit_hash() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitters_own_output() {
        let line = json_row_string(
            "t9",
            &[
                (
                    "backend",
                    JsonValue::Str("multiqueue(beta=0.75, c=2)".into()),
                ),
                ("ops", JsonValue::U64(120_000)),
                ("kops_per_s", JsonValue::F64(345.25)),
                ("note", JsonValue::Str("a \"quoted\"\nline".into())),
                ("bad", JsonValue::F64(f64::NAN)),
            ],
        );
        let fields = parse_object(&line).expect("round-trips");
        assert_eq!(
            fields[1],
            (
                "backend".into(),
                Value::Str("multiqueue(beta=0.75, c=2)".into())
            )
        );
        assert_eq!(fields[2], ("ops".into(), Value::Num(120_000.0)));
        assert_eq!(fields[3], ("kops_per_s".into(), Value::Num(345.25)));
        assert_eq!(
            fields[4],
            ("note".into(), Value::Str("a \"quoted\"\nline".into()))
        );
        assert_eq!(fields[5], ("bad".into(), Value::Null));
    }

    #[test]
    fn rejects_nested_containers_and_junk() {
        assert!(parse_object(r#"{"a":[1,2]}"#).is_err());
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_object(r#"{"a":nope}"#).is_err());
    }

    fn row(kops: f64) -> String {
        format!(
            r#"{{"experiment":"t9","backend":"mq","clients":4,"ops":1000,"kops_per_s":{kops},"p99_rtt_us":120}}"#
        )
    }

    #[test]
    fn collect_takes_the_median_over_reps_and_measures_dispersion() {
        let files = vec![row(100.0), row(110.0), row(90.0)];
        let points = collect(&files, "abc123").expect("parses");
        let thr = points
            .iter()
            .find(|p| p.metric == "kops_per_s")
            .expect("throughput point");
        assert_eq!(thr.id, "t9 backend=mq clients=4");
        assert_eq!(thr.median, 100.0);
        assert_eq!(thr.reps, 3);
        assert_eq!(thr.commit, "abc123");
        assert!(
            (thr.rel_dispersion - 0.10).abs() < 1e-9,
            "half-span 10 over median 100"
        );
        assert_eq!(thr.kind, MetricKind::Throughput);
        let p99 = points.iter().find(|p| p.metric == "p99_rtt_us").unwrap();
        assert_eq!(p99.kind, MetricKind::Quality);
        assert_eq!(p99.rel_dispersion, 0.0);
        // `ops` is a diagnostic, not a metric: no point for it.
        assert!(points.iter().all(|p| p.metric != "ops"));
    }

    #[test]
    fn rows_carrying_their_own_dispersion_and_commit_are_honoured() {
        let line = r#"{"experiment":"t11","scenario":"spread","queues":8,"samples":5,"kops_per_s":640.0,"rel_dispersion":0.25,"commit":"feedbee"}"#;
        let points = collect(&[line.to_string()], "fallback").unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].reps, 5);
        assert_eq!(points[0].rel_dispersion, 0.25);
        assert_eq!(points[0].commit, "feedbee");
    }

    #[test]
    fn identical_runs_compare_clean_and_a_20_percent_drop_is_flagged() {
        let base = collect(&[row(100.0)], "a").unwrap();
        let same = compare(&base, &base, 0.10);
        assert!(same.iter().all(|c| c.verdict == Verdict::Pass));

        let slowed = collect(&[row(80.0)], "b").unwrap();
        let cmp = compare(&base, &slowed, 0.10);
        let thr = cmp.iter().find(|c| c.metric == "kops_per_s").unwrap();
        assert_eq!(thr.verdict, Verdict::Regression);
        assert!(thr.gated, "throughput regressions gate CI");
        assert!((thr.change + 0.20).abs() < 1e-9);

        let faster = collect(&[row(125.0)], "c").unwrap();
        let cmp = compare(&base, &faster, 0.10);
        assert_eq!(
            cmp.iter()
                .find(|c| c.metric == "kops_per_s")
                .unwrap()
                .verdict,
            Verdict::Improvement
        );
    }

    #[test]
    fn dispersion_widens_the_allowance() {
        // Reps spanning ±15% around the median: the same 20% drop that a
        // quiet bench flags is inside this noisy bench's allowance.
        let base = collect(&[row(85.0), row(100.0), row(115.0)], "a").unwrap();
        let slowed = collect(&[row(68.0), row(80.0), row(92.0)], "b").unwrap();
        let cmp = compare(&base, &slowed, 0.10);
        let thr = cmp.iter().find(|c| c.metric == "kops_per_s").unwrap();
        assert!(thr.allowance > 0.35, "0.10 + 0.15 + 0.15");
        assert_eq!(thr.verdict, Verdict::Pass);
    }

    #[test]
    fn quality_metrics_report_but_do_not_gate() {
        let base = collect(&[row(100.0)], "a").unwrap();
        let mut worse = collect(&[row(100.0)], "b").unwrap();
        for p in &mut worse {
            if p.metric == "p99_rtt_us" {
                p.median *= 3.0;
            }
        }
        let cmp = compare(&base, &worse, 0.10);
        let p99 = cmp.iter().find(|c| c.metric == "p99_rtt_us").unwrap();
        assert_eq!(p99.verdict, Verdict::Regression);
        assert!(!p99.gated, "tail latency never fails the gate");
    }

    #[test]
    fn missing_points_surface_and_zero_baselines_always_pass() {
        let base = collect(&[row(100.0)], "a").unwrap();
        let cmp = compare(&base, &[], 0.10);
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Missing));

        let zero = r#"{"experiment":"t11","phase":"solo","victim_kops_per_s":0}"#.to_string();
        let base = collect(std::slice::from_ref(&zero), "a").unwrap();
        let cmp = compare(&base, &base, 0.10);
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Pass));
    }

    #[test]
    fn canonical_artifact_round_trips_through_collect() {
        let points = collect(&[row(100.0), row(110.0)], "abc").unwrap();
        let rendered = render(&points);
        let reread = collect(&[rendered], "other").unwrap();
        assert_eq!(reread.len(), points.len());
        for (a, b) in points.iter().zip(&reread) {
            assert_eq!(a.metric, b.metric);
            assert_eq!(a.median, b.median);
            assert_eq!(a.reps, b.reps);
            assert_eq!(b.commit, "abc", "commit travels inside the artifact");
            assert!((a.rel_dispersion - b.rel_dispersion).abs() < 1e-12);
        }
    }

    /// A history of single-point runs with the given throughput medians.
    fn history(kops: &[f64]) -> Vec<Vec<BenchPoint>> {
        kops.iter()
            .map(|&k| collect(&[row(k)], "h").unwrap())
            .collect()
    }

    #[test]
    fn slow_drift_is_flagged_where_the_pairwise_gate_cannot_fire() {
        // Eight runs each losing ~2%: every adjacent pair is inside a 3%
        // gate, but the halves differ by ~8%.
        let runs = history(&[100.0, 98.0, 96.0, 94.0, 92.0, 90.0, 88.0, 86.0]);
        let drifts = detect_drift(&runs, 0.03);
        let thr = drifts
            .iter()
            .find(|d| d.metric == "kops_per_s")
            .expect("compounded losses surface as drift");
        assert!(thr.change < -0.03, "drift change: {}", thr.change);
        assert_eq!(thr.runs, 8);
        // The p99 column was flat, so only the throughput drifted.
        assert!(drifts.iter().all(|d| d.metric == "kops_per_s"));
    }

    #[test]
    fn stable_and_improving_histories_do_not_drift() {
        assert!(detect_drift(&history(&[100.0, 101.0, 99.0, 100.0, 100.5, 99.5]), 0.03).is_empty());
        assert!(
            detect_drift(&history(&[100.0, 105.0, 110.0, 115.0]), 0.03).is_empty(),
            "throughput going up is not drift"
        );
        assert!(
            detect_drift(&history(&[100.0, 90.0]), 0.03).is_empty(),
            "fewer than four runs: not enough history to split"
        );
    }

    #[test]
    fn quality_drift_is_flagged_in_the_other_direction() {
        let mut runs = history(&[100.0; 6]);
        // Inflate the p99 column run by run: lower-is-better, so a rising
        // tail is the drifting direction.
        for (i, run) in runs.iter_mut().enumerate() {
            for p in run.iter_mut() {
                if p.metric == "p99_rtt_us" {
                    p.median *= 1.0 + 0.04 * i as f64;
                }
            }
        }
        let drifts = detect_drift(&runs, 0.03);
        assert!(drifts.iter().any(|d| d.metric == "p99_rtt_us"));
        assert!(drifts.iter().all(|d| d.metric != "kops_per_s"));
    }

    #[test]
    fn commit_hash_prefers_the_env_pin() {
        std::env::set_var("BENCH_COMMIT", "pinned0");
        assert_eq!(commit_hash(), "pinned0");
        std::env::remove_var("BENCH_COMMIT");
        // Without the pin we get *something* non-empty (git or "unknown").
        assert!(!commit_hash().is_empty());
    }
}
