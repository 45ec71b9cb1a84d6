//! T10 — the lane sweep: lanes per worker `c` against insert shards `s`,
//! under steady / bursty / diurnal arrivals.
//!
//! The paper sizes the MultiQueue statically at `c·p` lanes. More lanes
//! mean fewer lost try-locks but a looser rank bound (it scales with the
//! lane count `n`); insert shards keep `n` and narrow where each session's
//! inserts land. This sweep crosses c ∈ {1, 2, 4} with s ∈ {1, 2}.
//!
//! The shards' rank bounds hold only when inserting sessions are spread
//! evenly over shards (DESIGN.md §7.1). `run_scenario` opens one injector
//! per shard and deals the arrivals round-robin over them, so every shard
//! receives an even share of the inserts and the s = 2 rows measure
//! balanced shards.
//!
//! Every row runs the identical open-loop traffic scenario (same seed ⇒ same
//! deterministic arrival schedule) through the `choice-sched` worker pool.
//! Reported per row: end-to-end **ktask/s**, **inv/1k** deadline inversions
//! per 1 000 tasks, and the p99 lateness of the interactive class.
//!
//! Environment knobs: `T10_TASKS` (default 40000), `T10_WORKERS` (default
//! 4); `BENCH_JSON=1` additionally emits one JSON object per row to stderr
//! (see `choice_bench::report`).

use std::sync::Arc;
use std::time::Duration;

use choice_bench::report::{emit_json_row, print_header, print_row, print_section, JsonValue};
use choice_bench::{build_queue, env_u64, QueueSpec};
use choice_sched::traffic::TrafficTask;
use choice_sched::{
    run_scenario, ArrivalPattern, ScenarioReport, SchedulerConfig, TrafficClass, TrafficSpec,
};

fn main() {
    let workers = env_u64("T10_WORKERS", 4) as usize;
    let tasks = env_u64("T10_TASKS", 40_000);
    let seed = 29u64;

    let classes = vec![
        TrafficClass::new("interactive", 6.0, Duration::from_micros(500), 32),
        TrafficClass::new("batch", 1.0, Duration::from_millis(10), 256),
    ];
    // Steady saturates (capacity probe); bursty alternates contention spikes
    // with silence; diurnal sweeps the rate smoothly.
    let patterns = [
        ArrivalPattern::Steady { rate: 50_000_000.0 },
        ArrivalPattern::Bursty {
            rate: 4_000_000.0,
            on: Duration::from_millis(2),
            off: Duration::from_millis(6),
        },
        ArrivalPattern::Diurnal {
            base: 400_000.0,
            peak: 4_000_000.0,
            period: Duration::from_millis(40),
        },
    ];
    // c = 1 is under-provisioned, c = 2 is the paper sizing, c = 4 is
    // over-provisioned. Every row shares d = 2 and delete batch 8, so the
    // only moving parts are the lane count and the shard count.
    let delete_batch = 8usize;
    let specs: Vec<QueueSpec> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|queues_per_thread| {
            [1usize, 2].map(|shards| QueueSpec::MultiQueueSharded {
                d: 2,
                shards,
                queues_per_thread,
            })
        })
        .collect();

    print_section("T10", "lane sweep: lanes per worker × insert shards");
    println!(
        "{workers} workers, {tasks} tasks/scenario, delete batch {delete_batch}, \
         classes: interactive(500µs, w6) / batch(10ms, w1); EDF keys, \
         open-loop injection, identical schedule per pattern"
    );

    for pattern in patterns {
        let spec = TrafficSpec {
            pattern,
            classes: classes.clone(),
            tasks,
            seed,
        };
        println!();
        println!("-- {} --", pattern.label());
        print_header(&["backend", "ktask/s", "inv/1k", "p99 int µs"]);
        for queue_spec in &specs {
            let queue: Arc<dyn choice_pq::DynSharedPq<TrafficTask>> =
                build_queue(*queue_spec, workers, seed);
            let shards = queue.topology_dyn().shards;
            let sched = SchedulerConfig::new(workers).with_delete_batch(delete_batch);
            let report = run_scenario(&*queue, sched, &spec);
            assert_eq!(
                report.sched.executed, tasks,
                "{}: every injected task must execute",
                report.label
            );
            print_scenario_row(&queue_spec.label(), &pattern.label(), shards, &report);
        }
    }

    println!();
    println!(
        "Expected shape: one injector per shard spreads the inserts evenly, so s=2 \
         runs at about the rate of s=1 and records no fewer inversions (only the \
         injector thread inserts, so a shard buys the workers no locality); bursty is \
         arrival-bound, so every row runs at about the same rate there."
    );
}

fn print_scenario_row(backend: &str, pattern: &str, shards: usize, report: &ScenarioReport) {
    let executed = report.sched.executed.max(1);
    let inversions_per_k = report.sched.inversions.count() as f64 * 1_000.0 / executed as f64;
    let p99_int = report.lateness.classes()[0].lateness_quantile_us(0.99);
    print_row(&[
        backend.to_string(),
        format!("{:.1}", report.sched.tasks_per_second / 1e3),
        format!("{inversions_per_k:.1}"),
        p99_int.to_string(),
    ]);

    let pool = report.sched.merged_stats();
    emit_json_row(
        "t10",
        &[
            ("backend", JsonValue::from(backend)),
            ("pattern", JsonValue::from(pattern)),
            ("executed", JsonValue::from(report.sched.executed)),
            (
                "ktask_per_s",
                JsonValue::from(report.sched.tasks_per_second / 1e3),
            ),
            ("inversions_per_k", JsonValue::from(inversions_per_k)),
            ("shards", JsonValue::from(shards as u64)),
            ("empty_polls", JsonValue::from(pool.empty_polls)),
            ("contended_retries", JsonValue::from(pool.contended_retries)),
            ("p99_lateness_us_interactive", JsonValue::from(p99_int)),
        ],
    );
}
