//! Benchmark harness shared by the figure/table binaries.
//!
//! Every table and figure of the paper's evaluation (and the theory claims we
//! additionally check) has a dedicated binary under `src/bin/`; the code that
//! is common to several of them — building queues by name, the alternating
//! insert/deleteMin throughput workload of Figure 1, the instrumented rank
//! workload of Figure 2, and the parallel-SSSP workload of Figure 3 — lives
//! here so the binaries stay small and declarative.
//!
//! Absolute numbers will not match the paper (18-core Xeon there, whatever
//! machine runs this here); the binaries therefore print *shapes*: who wins,
//! by what factor, and how the series move with the swept parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queues;
pub mod report;
pub mod workloads;

pub use queues::{build_queue, QueueSpec};
pub use report::{emit_json_row, json_enabled, print_header, print_row, print_section, JsonValue};

/// Reads a `u64` knob from the environment (`SCHED_BENCH_*`,
/// `SERVICE_BENCH_*`, the examples' `QUICKSTART_ITEMS`, …), falling back to
/// `default` when the variable is unset — the one scaling mechanism every
/// bench binary and example shares with the CI smoke steps.
///
/// # Panics
///
/// Panics, naming the knob and its value, when the variable is set but does
/// not parse as a `u64`: `SCHED_BENCH_TASKS=5k` is a typo, not a request for
/// the default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(value) => value
            .parse()
            .unwrap_or_else(|_| panic!("{name}={value:?} is not a u64")),
        Err(std::env::VarError::NotUnicode(value)) => panic!("{name}={value:?} is not a u64"),
    }
}
pub use workloads::{
    d_sweep_workload, rank_quality_workload, sssp_workload, throughput_workload, DSweepResult,
    ThroughputResult,
};

#[cfg(test)]
mod tests {
    use super::env_u64;

    #[test]
    fn env_u64_reads_an_unset_or_a_valid_knob() {
        const KNOB: &str = "CHOICE_BENCH_TEST_VALID_KNOB";
        std::env::remove_var(KNOB);
        assert_eq!(env_u64(KNOB, 7), 7);
        std::env::set_var(KNOB, "5000");
        assert_eq!(env_u64(KNOB, 7), 5000);
    }

    #[test]
    #[should_panic(expected = "CHOICE_BENCH_TEST_MALFORMED_KNOB=\"5k\" is not a u64")]
    fn env_u64_refuses_a_malformed_knob() {
        const KNOB: &str = "CHOICE_BENCH_TEST_MALFORMED_KNOB";
        std::env::set_var(KNOB, "5k");
        env_u64(KNOB, 7);
    }
}
