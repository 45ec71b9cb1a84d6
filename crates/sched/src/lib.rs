//! `choice-sched`: a relaxed-priority task scheduler on the MultiQueue.
//!
//! The paper motivates MultiQueues with exactly one application class:
//! priority schedulers (Galois-style task runtimes, branch-and-bound,
//! Dijkstra) that tolerate relaxed ordering. This crate *is* that
//! application class, built as a reusable subsystem on the
//! [`SharedPq`](choice_pq::SharedPq) session API:
//!
//! * [`Scheduler`] — a worker pool over any `SharedPq` backend (concrete or
//!   type-erased). Tasks carry deadline-style priorities (smaller key = more
//!   urgent) and may **spawn follow-up tasks** from inside workers via
//!   [`TaskCtx::spawn`]. The per-worker `delete_min_batch` drain size is
//!   configured through [`SchedulerConfig`], so the d/batch engine knobs
//!   become scheduler throughput knobs; the idle backoff is one fixed
//!   schedule (8 yields, then sleeps doubling from 20 µs to 2 ms).
//! * **Termination detection** — a count-based quiescence protocol
//!   ([`scheduler`] module docs) that is correct for the spawn-from-task
//!   case and robust to the MultiQueue's relaxed `approx_len` and to
//!   empty-pop races: a failed `delete_min` never means "done", and
//!   `approx_len` is never consulted at all.
//! * [`traffic`] — an open-loop traffic engine: deterministic
//!   arrival-process generators (steady Poisson, bursty on/off, diurnal
//!   ramp) over multiple priority classes with per-class deadlines,
//!   injecting tasks *concurrently with execution* through an
//!   [`Injector`], and measuring per-class **lateness** distributions with
//!   the [`lateness`] trackers.
//! * [`lateness`] — per-class lateness histograms
//!   ([`choice_obs::LogHistogram`] underneath), turning the
//!   paper's *rank* quality metric into the end-to-end application metric
//!   (how late past its deadline did each task actually run).
//!
//! # Example
//!
//! ```
//! use choice_pq::{MultiQueue, MultiQueueConfig, SharedPq};
//! use choice_sched::{Scheduler, SchedulerConfig};
//!
//! let queue = MultiQueue::<u64>::new(MultiQueueConfig::for_threads(2).with_seed(7));
//! let sched = Scheduler::new(&queue, SchedulerConfig::new(2));
//! {
//!     let mut seeder = sched.injector();
//!     for deadline in 0..100u64 {
//!         seeder.inject(deadline, deadline);
//!     }
//! }
//! let (report, _) = sched.run_simple(|ctx, deadline, _task| {
//!     // Initial tasks with an even deadline spawn one follow-up task.
//!     if deadline < 100 && deadline % 2 == 0 {
//!         ctx.spawn(deadline + 1_000, deadline);
//!     }
//! });
//! assert_eq!(report.executed, 150); // 100 injected + 50 spawned
//! assert!(queue.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lateness;
pub mod scheduler;
pub mod traffic;

pub use lateness::{ClassLateness, LatenessTracker};
pub use scheduler::{Injector, Scheduler, SchedulerConfig, SchedulerReport, TaskCtx, WorkerReport};
pub use traffic::{
    run_scenario, Arrival, ArrivalPattern, ScenarioReport, TrafficClass, TrafficSpec, TrafficTask,
};
