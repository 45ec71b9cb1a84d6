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
/// `SERVICE_BENCH_*`, `BENCH_*`, …), falling back to `default` when the
/// variable is unset or unparsable — the one scaling mechanism every bench
/// binary shares with the CI smoke steps.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
pub use workloads::{
    d_sweep_workload, rank_quality_workload, scheduler_workload, sssp_workload,
    throughput_workload, DSweepResult, RankQualityResult, ThroughputResult,
};
