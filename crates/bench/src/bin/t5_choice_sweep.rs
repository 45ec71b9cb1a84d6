//! T5' — the choice/batch family: d-choice deleteMin × batched deletion.
//!
//! The paper analyses the (1 + β) family; the engine generalises it to any
//! `d`-choice rule plus per-handle delete batches that drain one lane under a
//! single lock. This sweep maps the resulting design space: for every
//! `d ∈ {1, 2, 4, 8}` and delete batch `∈ {1, 8, 64}` it reports throughput
//! (uninstrumented timed phase) and rank quality (instrumented phase, Section
//! 5 methodology), at one thread (uncontended, mirroring the sequential
//! model) and at four threads.
//!
//! Expected shape:
//!
//! * rank quality improves monotonically with `d` (more samples find better
//!   tops) and degrades roughly linearly with the batch size (a batch drains
//!   one lane past its top);
//! * throughput *rises* with the batch size — one random choice and one lock
//!   acquisition are amortised over the whole batch — and falls slowly with
//!   `d` (more cached-top probes per removal);
//! * d = 1/batch = 1 is the divergent single-choice baseline: its mean rank
//!   is far above every d ≥ 2 row and keeps growing with the run length.
//!
//! Environment knobs: `T5_PREFILL` (default 50000), `T5_OPS` ops/thread
//! (default 100000); `BENCH_JSON=1` additionally emits one JSON row per
//! configuration to stderr.

use choice_bench::env_u64;
use choice_bench::report::{
    emit_json_row, print_section, print_sweep_header, print_sweep_row, JsonValue,
};
use choice_bench::workloads::d_sweep_workload;

fn main() {
    let lanes = 8usize;
    let prefill: u64 = env_u64("T5_PREFILL", 50_000);
    let ops_per_thread: u64 = env_u64("T5_OPS", 100_000);
    let seed = 23u64;

    print_section(
        "T5'",
        "d-choice × delete-batch sweep (throughput + mean rank)",
    );
    println!(
        "n = {lanes} lanes, prefill {prefill}, {ops_per_thread} ops/thread; \
         batch = per-handle delete_min_batch size"
    );

    for threads in [1usize, 4] {
        println!();
        println!(
            "-- {threads} thread{} --",
            if threads == 1 { " (uncontended)" } else { "s" }
        );
        print_sweep_header();
        for d in [1usize, 2, 4, 8] {
            for batch in [1usize, 8, 64] {
                let r = d_sweep_workload(d, batch, threads, lanes, prefill, ops_per_thread, seed);
                print_sweep_row(
                    d,
                    batch,
                    threads,
                    r.throughput.ops_per_second,
                    r.rank.mean_rank,
                    r.rank.max_rank,
                );
                emit_json_row(
                    "t5",
                    &[
                        ("d", JsonValue::from(d as u64)),
                        ("batch", JsonValue::from(batch as u64)),
                        ("threads", JsonValue::from(threads as u64)),
                        ("lanes", JsonValue::from(lanes as u64)),
                        ("prefill", JsonValue::from(prefill)),
                        (
                            "mops_per_s",
                            JsonValue::from(r.throughput.ops_per_second / 1e6),
                        ),
                        ("mean_rank", JsonValue::from(r.rank.mean_rank)),
                        ("max_rank", JsonValue::from(r.rank.max_rank)),
                    ],
                );
            }
        }
    }

    println!();
    println!(
        "Expected shape: mean rank falls with d and rises with batch; Mops/s rises with batch \
         (amortised locking) — the batched configs should beat the d=2/batch=1 classic MultiQueue \
         on uncontended throughput. d=1/batch=1 is the divergent single-choice baseline."
    );
}
