//! T8 — the scheduler workload: backend × d × delete-batch × arrival
//! pattern, measured at the *application* level.
//!
//! Every configuration runs the identical open-loop traffic scenario (same
//! seed ⇒ same deterministic arrival schedule) through the `choice-sched`
//! worker pool: three priority classes with per-class deadlines, injected
//! concurrently with execution at a saturating rate, scheduled
//! earliest-deadline-first. Reported per row:
//!
//! * **ktask/s** — end-to-end completed tasks per second (the scheduler-level
//!   throughput metric; queue ops are a means, not the measure);
//! * **inv/1k** — deadline inversions observed per 1 000 tasks (the
//!   scheduler-level face of the paper's rank metric);
//! * **p99 lateness (µs)** per class — how late past its deadline the 99th
//!   percentile task *started* (log-bucket upper bound, factor-of-two
//!   precision).
//!
//! Expected shape: the MultiQueue rows beat the centralized exact queues on
//! tasks/sec (no serialisation on the global minimum) at a modest
//! inversion/lateness cost; raising the delete batch buys more throughput
//! (one lane choice + lock per batch); raising d claws back priority
//! quality. The coarse heap and skiplist pay serialisation on every pop; the
//! k-LSM sits between.
//!
//! Environment knobs: `SCHED_BENCH_TASKS` (default 60000),
//! `SCHED_BENCH_WORKERS` (default 4); `BENCH_JSON=1` additionally emits one
//! JSON object per row to stderr (see `choice_bench::report`).

use std::sync::Arc;
use std::time::Duration;

use choice_bench::report::{emit_json_row, print_header, print_row, print_section, JsonValue};
use choice_bench::{build_queue, env_u64, QueueSpec};
use choice_sched::traffic::TrafficTask;
use choice_sched::{
    run_scenario, ArrivalPattern, ScenarioReport, SchedulerConfig, TrafficClass, TrafficSpec,
};

/// One benched configuration: how to build the queue and how the scheduler
/// drains it.
struct Config {
    spec: QueueSpec,
    delete_batch: usize,
}

fn main() {
    let workers = env_u64("SCHED_BENCH_WORKERS", 4) as usize;
    let tasks = env_u64("SCHED_BENCH_TASKS", 60_000);
    let seed = 23u64;

    let classes = vec![
        TrafficClass::new("interactive", 6.0, Duration::from_micros(500), 32),
        TrafficClass::new("batch", 3.0, Duration::from_millis(5), 128),
        TrafficClass::new("analytics", 1.0, Duration::from_millis(50), 512),
    ];
    // Steady is a *saturating* capacity probe (the injector never sleeps, so
    // tasks/sec measures the scheduler+queue service rate); bursty and
    // diurnal run near capacity and show how each backend absorbs load
    // swings as lateness.
    let patterns = [
        ArrivalPattern::Steady { rate: 50_000_000.0 },
        ArrivalPattern::Bursty {
            rate: 4_000_000.0,
            on: Duration::from_millis(2),
            off: Duration::from_millis(6),
        },
        ArrivalPattern::Diurnal {
            base: 500_000.0,
            peak: 4_000_000.0,
            period: Duration::from_millis(40),
        },
    ];
    // The MultiQueue d × batch grid, then the centralized baselines (their
    // delete batch stays 1: the default batch loop amortises nothing for
    // structures that serialise every pop anyway).
    let configs = [
        Config {
            spec: QueueSpec::multiqueue_d(2),
            delete_batch: 1,
        },
        Config {
            spec: QueueSpec::multiqueue_d(2),
            delete_batch: 8,
        },
        Config {
            spec: QueueSpec::multiqueue_d(8),
            delete_batch: 1,
        },
        Config {
            spec: QueueSpec::multiqueue_d(8),
            delete_batch: 8,
        },
        Config {
            spec: QueueSpec::CoarseHeap,
            delete_batch: 1,
        },
        Config {
            spec: QueueSpec::SkipList,
            delete_batch: 1,
        },
        Config {
            spec: QueueSpec::KLsm { relaxation: 256 },
            delete_batch: 1,
        },
    ];

    print_section(
        "T8",
        "relaxed-priority scheduler: backend × d × batch × arrival pattern",
    );
    println!(
        "{workers} workers, {tasks} tasks/scenario, classes: \
         interactive(500µs, w6) / batch(5ms, w3) / analytics(50ms, w1); \
         EDF keys, open-loop injection, identical schedule per pattern"
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
        print_header(&[
            "backend",
            "batch",
            "ktask/s",
            "inv/1k",
            "p99 int µs",
            "p99 bat µs",
            "p99 ana µs",
        ]);
        for config in &configs {
            let queue: Arc<dyn choice_pq::DynSharedPq<TrafficTask>> =
                build_queue(config.spec, workers, seed);
            let sched = SchedulerConfig::new(workers).with_delete_batch(config.delete_batch);
            let report = run_scenario(&*queue, sched, &spec);
            print_scenario_row(
                &config.spec.label(),
                &pattern.label(),
                config.delete_batch,
                &report,
            );
        }
    }

    println!();
    println!(
        "Expected shape: multiqueue rows above the centralized baselines on ktask/s; \
         batch=8 adds throughput, d=8 removes most inversions; the skiplist and \
         coarse heap serialise every pop and pay for it at {workers} workers."
    );
}

fn print_scenario_row(backend: &str, pattern: &str, delete_batch: usize, report: &ScenarioReport) {
    let executed = report.sched.executed.max(1);
    let inversions_per_k = report.sched.inversions.count() as f64 * 1_000.0 / executed as f64;
    let mut cells = vec![
        backend.to_string(),
        delete_batch.to_string(),
        format!("{:.1}", report.sched.tasks_per_second / 1e3),
        format!("{inversions_per_k:.1}"),
    ];
    for class in report.lateness.classes() {
        cells.push(class.lateness_quantile_us(0.99).to_string());
    }
    print_row(&cells);

    let pool = report.sched.merged_stats();
    let mut fields = vec![
        ("backend", JsonValue::from(backend)),
        ("pattern", JsonValue::from(pattern)),
        ("delete_batch", JsonValue::from(delete_batch as u64)),
        ("executed", JsonValue::from(report.sched.executed)),
        (
            "ktask_per_s",
            JsonValue::from(report.sched.tasks_per_second / 1e3),
        ),
        ("inversions_per_k", JsonValue::from(inversions_per_k)),
        ("empty_polls", JsonValue::from(pool.empty_polls)),
        ("contended_retries", JsonValue::from(pool.contended_retries)),
    ];
    let p99: Vec<(String, u64)> = report
        .lateness
        .classes()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                format!("p99_lateness_us_class{i}"),
                c.lateness_quantile_us(0.99),
            )
        })
        .collect();
    for (name, value) in &p99 {
        fields.push((name.as_str(), JsonValue::from(*value)));
    }
    emit_json_row("t8", &fields);
}
