//! The repository benchmark: one command, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perf-ledger --workload <mq_pairs|sched_edf|wire_pipelined> --seed <n> \
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` holds `mq_pairs` and `sched_edf` to their bounds.
//! `wire_pipelined` runs the same way but is left out of that set: two
//! threads handing windows to each other over loopback measured the host's
//! scheduling more than the program (`NOTES.md`). Every workload's traced
//! run still times the wire layers.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end set (`END_TO_END`), with
//! `--trace 1` the per-layer set (`PER_LAYER`). Every workload reports every
//! metric of its set; `NOTES.md` defines each one per workload.

mod layers;
mod pairs;
mod sched;
mod stats;
mod wire;

use std::process::ExitCode;

/// The end-to-end metric names and units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rank_mean", "rank"),
    ("rank_max", "rank"),
    ("inversions_per_k", "1/1000"),
    ("delay_p50_us", "us"),
    ("delay_p99_us", "us"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metric names and units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("seq_pq.push_ns", "ns"),
    ("seq_pq.pop_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.delete_min_ns", "ns"),
    ("core.lane_pair_ns", "ns"),
    ("core.dyn_pair_ns", "ns"),
    ("core.retries_per_op", "1/op"),
    ("core.empty_polls", "count"),
    ("core.useful_ratio", "ratio"),
    ("sched.inject_ns", "ns"),
    ("sched.dispatch_ns", "ns"),
    ("sched.backoff_waits", "count"),
    ("sched.contended_retries", "count"),
    ("sched.generator_lag_us", "us"),
    ("registry.admit_insert_ns", "ns"),
    ("registry.admit_removal_ns", "ns"),
    ("registry.refusals", "count"),
    ("wire.req_encode_ns", "ns"),
    ("wire.req_decode_ns", "ns"),
    ("wire.resp_encode_ns", "ns"),
    ("wire.resp_decode_ns", "ns"),
    ("wire.bytes_per_op", "B"),
    ("server.recv_ns", "ns"),
    ("server.decode_ns", "ns"),
    ("server.admit_ns", "ns"),
    ("server.queue_op_ns", "ns"),
    ("server.flush_ns", "ns"),
    ("client.submit_ns", "ns"),
    ("client.drain_ns", "ns"),
    ("client.outside_server_ns", "ns"),
    ("client.server_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("ledger.unaccounted_pct", "%"),
];

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MqPairs,
    SchedEdf,
    WirePipelined,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "mq_pairs" => Some(Workload::MqPairs),
            "sched_edf" => Some(Workload::SchedEdf),
            "wire_pipelined" => Some(Workload::WirePipelined),
            _ => None,
        }
    }
}

/// One run's verdict: operation counts, the output checks, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Renders the result line for `set`, checking that every metric of the
    /// set was produced and is a finite number.
    fn render(&mut self, set: &[(&str, &str)]) -> String {
        let mut fields = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => *v,
                Some((_, v)) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            eprintln!(
                "usage: perf-ledger --workload <mq_pairs|sched_edf|wire_pipelined> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload {
        Workload::MqPairs => pairs::run(&args, &mut report),
        Workload::SchedEdf => sched::run(&args, &mut report),
        Workload::WirePipelined => wire::run(&args, &mut report),
    }
    if !args.trace {
        report.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let line = report.render(if args.trace { PER_LAYER } else { END_TO_END });
    for problem in &report.problems {
        eprintln!("perf-ledger: check failed: {problem}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
