//! A relaxed priority task scheduler — the application class the paper's
//! introduction motivates (branch-and-bound / priority schedulers such as
//! Galois), demonstrated as a thin client of the `choice-sched` subsystem.
//!
//! Two phases:
//!
//! 1. **Spawn trees** — a worker pool executes tasks that spawn follow-up
//!    tasks; the subsystem's termination detector proves quiescence and the
//!    run shows every task (seeded + spawned) executed exactly once, with
//!    the observed deadline-inversion *distribution* (a
//!    `choice_obs::LogHistogram`, not a saturating sum) quantifying how
//!    much reordering the relaxation actually introduced.
//! 2. **Open-loop traffic** — the traffic engine injects a bursty,
//!    multi-class workload concurrently with execution and reports
//!    per-class lateness through the subsystem's `LatenessTracker`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example task_scheduler
//! ```
//!
//! Environment knobs (used by the CI smoke run): `SCHED_TASKS` (initial
//! tasks, default 20000), `SCHED_WORKERS` (default 4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use choice_bench::env_u64;
use power_of_choice::prelude::*;
use power_of_choice::sched::{ArrivalPattern, TrafficClass, TrafficSpec};

fn main() {
    let workers = env_u64("SCHED_WORKERS", 4) as usize;
    let initial_tasks = env_u64("SCHED_TASKS", 20_000);

    // ---- Phase 1: spawn trees, exactly-once, inversion distribution ----
    let queue = MultiQueue::<u64>::new(MultiQueueConfig::for_threads(workers).with_beta(0.75));
    let sched = Scheduler::new(&queue, SchedulerConfig::new(workers).with_delete_batch(4));

    // Seed the scheduler; ids are allocated from a shared counter so spawned
    // tasks get unique ids too. Every 50th task spawns two follow-ups.
    let next_id = AtomicU64::new(0);
    {
        let mut seeder = sched.injector();
        for deadline in 0..initial_tasks {
            let id = next_id.fetch_add(1, Ordering::Relaxed);
            seeder.inject(deadline, id);
        }
    }
    let (report, worker_ids) = sched.run(
        |_worker| Vec::new(),
        |ids: &mut Vec<u64>, ctx, deadline, id| {
            ids.push(id);
            if id < initial_tasks && id % 50 == 0 {
                for s in 0..2u64 {
                    let child = next_id.fetch_add(1, Ordering::Relaxed);
                    ctx.spawn(deadline + 1_000 + s, child);
                }
            }
        },
    );

    let total_created = next_id.load(Ordering::Relaxed);
    let mut ids: Vec<u64> = worker_ids.into_iter().flatten().collect();
    ids.sort_unstable();
    ids.dedup();

    println!("== spawn-tree phase ==");
    println!(
        "tasks created:  {total_created} ({} spawned)",
        report.spawned
    );
    println!(
        "tasks executed: {} at {:.0} ktask/s across {workers} workers",
        report.executed,
        report.tasks_per_second / 1e3
    );
    println!(
        "unique ids executed: {} (must equal tasks created)",
        ids.len()
    );
    assert_eq!(report.executed, total_created);
    assert_eq!(ids.len() as u64, total_created);

    // The deadline-inversion distribution: how far "back in time" workers
    // jumped, in deadline units (log-bucketed).
    let inv = &report.inversions;
    println!(
        "deadline inversions: {} ({:.1} per 1k tasks), mean magnitude {:.1}, max {}",
        inv.count(),
        inv.count() as f64 * 1_000.0 / report.executed as f64,
        inv.mean(),
        inv.max()
    );
    for (upper, count) in inv.iter_nonzero() {
        println!("  magnitude ≤ {upper:>8}: {count}");
    }
    println!("every task ran exactly once; relaxation only reordered work slightly");

    // ---- Phase 2: open-loop multi-class traffic with lateness ----
    let spec = TrafficSpec {
        pattern: ArrivalPattern::Bursty {
            rate: 2_000_000.0,
            on: Duration::from_millis(2),
            off: Duration::from_millis(4),
        },
        classes: vec![
            TrafficClass::new("interactive", 3.0, Duration::from_micros(500), 32),
            TrafficClass::new("batch", 1.0, Duration::from_millis(10), 256),
        ],
        tasks: initial_tasks / 2,
        seed: 7,
    };
    let traffic_queue = MultiQueue::new(
        MultiQueueConfig::for_threads(workers)
            .with_beta(0.75)
            .with_seed(11),
    );
    let scenario = power_of_choice::sched::run_scenario(
        &traffic_queue,
        SchedulerConfig::new(workers).with_delete_batch(4),
        &spec,
    );

    println!();
    println!("== traffic phase: {} ==", scenario.label);
    println!(
        "{} tasks executed at {:.0} ktask/s",
        scenario.sched.executed,
        scenario.sched.tasks_per_second / 1e3
    );
    for (class, lateness) in spec.classes.iter().zip(scenario.lateness.classes()) {
        println!(
            "  {:<12} executed {:>6}, on time {:>5.1}%, lateness p50/p99 ≤ {}/{} µs",
            class.name,
            lateness.executed,
            lateness.on_time_fraction() * 100.0,
            lateness.lateness_quantile_us(0.50),
            lateness.lateness_quantile_us(0.99),
        );
    }
    assert_eq!(scenario.sched.executed, spec.tasks);
    assert!(traffic_queue.is_empty());
}
