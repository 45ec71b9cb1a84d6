//! Figure 1 — throughput of alternating insert/deleteMin operations.
//!
//! Paper setup: 10-second runs, 10M-element prefill, 10 trials, 1..18 hardware
//! threads on a Xeon E7-8890; MultiQueue variants (β = 1, 0.75, 0.5) beat the
//! Lindén–Jonsson skiplist and the k-LSM everywhere except the lowest thread
//! counts, and β < 1 improves on β = 1 by up to 20%.
//!
//! Here the run length and prefill are scaled down (see DESIGN.md §2.7) and
//! the thread sweep oversubscribes whatever cores are available; the expected
//! *shape* is that the distributed MultiQueues sustain their throughput as
//! threads are added while the centralized exact queues do not.

use std::sync::Arc;

use choice_bench::report::{median, mops, print_header, print_row, print_section, rel_dispersion};
use choice_bench::{build_queue, throughput_workload, QueueSpec};

fn main() {
    let threads_sweep = [1usize, 2, 4, 8];
    let prefill: u64 = 100_000;
    let ops_per_thread: u64 = 150_000;
    let trials = 3;

    print_section(
        "F1",
        "throughput vs. threads (alternating insert/deleteMin)",
    );
    println!(
        "prefill = {prefill}, ops/thread = {ops_per_thread}, trials = {trials} \
         (paper: 10 s runs, 10M prefill, 10 trials); disp % is half the trials' span \
         over their median"
    );
    print_header(&["queue", "threads", "median Mops/s", "disp %"]);

    for spec in QueueSpec::figure_lineup() {
        for &threads in &threads_sweep {
            let samples: Vec<f64> = (0..trials)
                .map(|trial| {
                    let queue = build_queue::<u64>(spec, threads, 1000 + trial);
                    throughput_workload(
                        Arc::clone(&queue),
                        threads,
                        prefill,
                        ops_per_thread,
                        2000 + trial,
                    )
                    .ops_per_second
                })
                .collect();
            print_row(&[
                spec.label(),
                threads.to_string(),
                mops(median(samples.clone())),
                format!("{:.1}", rel_dispersion(&samples) * 100.0),
            ]);
        }
    }
    println!();
    println!(
        "Expected shape (paper): multiqueue beta<1 >= multiqueue beta=1 > skiplist/klsm/coarse \
         at higher thread counts."
    );
}
