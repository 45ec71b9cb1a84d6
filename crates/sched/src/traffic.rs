//! The open-loop traffic engine: deterministic arrival processes, priority
//! classes with per-class deadlines, and end-to-end scenario runs.
//!
//! *Open-loop* means injection is paced by an **arrival process**, not by the
//! system's completion rate: the injector thread follows a pre-generated
//! schedule and never waits for the scheduler, exactly how load tests model
//! heavy user traffic. The schedule itself is a pure function of the
//! [`TrafficSpec`] (and its seed) — generation draws from the workspace's
//! deterministic [`Xoshiro256`] with [`next_exponential`] inter-arrival
//! gaps — so two runs of a scenario inject the identical task sequence at
//! the same nominal times, and only the *service* side (the queue under
//! test) differs.
//!
//! Tasks are scheduled **earliest-deadline-first**: a task arriving at time
//! `a` in class `c` gets priority key `a + deadline(c)` (nanoseconds since
//! the scenario epoch), so the queue's relaxation translates directly into
//! measured per-class **lateness** (see [`crate::lateness`]).
//!
//! [`next_exponential`]: rank_stats::rng::RandomSource::next_exponential

use std::time::{Duration, Instant};

use choice_pq::SharedPq;
use rank_stats::rng::{RandomSource, Xoshiro256};

use crate::lateness::LatenessTracker;
use crate::scheduler::{Scheduler, SchedulerConfig, SchedulerReport};

/// How task arrivals are distributed over time.
///
/// Rates are in tasks per second of scenario time. Every pattern produces
/// Poisson-style exponential inter-arrival gaps; they differ in how the
/// instantaneous rate moves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalPattern {
    /// A steady Poisson process at a constant rate.
    Steady {
        /// Mean arrival rate (tasks/second).
        rate: f64,
    },
    /// On/off bursts: Poisson arrivals at `rate` during `on` windows,
    /// silence during `off` windows, repeating.
    Bursty {
        /// Mean arrival rate during a burst (tasks/second).
        rate: f64,
        /// Length of each burst window.
        on: Duration,
        /// Length of each silent window between bursts.
        off: Duration,
    },
    /// A diurnal ramp: the instantaneous rate swings sinusoidally between
    /// `base` and `peak` with the given period (a scaled-down day), sampled
    /// by thinning a peak-rate Poisson process.
    Diurnal {
        /// Trough arrival rate (tasks/second).
        base: f64,
        /// Peak arrival rate (tasks/second).
        peak: f64,
        /// Length of one full base→peak→base cycle.
        period: Duration,
    },
}

impl ArrivalPattern {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            ArrivalPattern::Steady { rate } => format!("steady({rate:.0}/s)"),
            ArrivalPattern::Bursty { rate, on, off } => format!(
                "bursty({rate:.0}/s, {:.0}ms on/{:.0}ms off)",
                on.as_secs_f64() * 1e3,
                off.as_secs_f64() * 1e3
            ),
            ArrivalPattern::Diurnal { base, peak, period } => format!(
                "diurnal({base:.0}→{peak:.0}/s, {:.0}ms period)",
                period.as_secs_f64() * 1e3
            ),
        }
    }

    fn validate(&self) {
        let positive = |r: f64, what: &str| {
            assert!(r > 0.0 && r.is_finite(), "{what} rate must be positive");
        };
        match self {
            ArrivalPattern::Steady { rate } => positive(*rate, "steady"),
            ArrivalPattern::Bursty { rate, on, .. } => {
                positive(*rate, "burst");
                assert!(!on.is_zero(), "burst on-window must be non-empty");
            }
            ArrivalPattern::Diurnal { base, peak, period } => {
                positive(*base, "diurnal base");
                positive(*peak, "diurnal peak");
                assert!(peak >= base, "diurnal peak must be at least the base");
                assert!(!period.is_zero(), "diurnal period must be non-empty");
            }
        }
    }
}

/// One priority class of a traffic mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficClass {
    /// Human-readable name (table rows).
    pub name: String,
    /// Relative share of arrivals assigned to this class.
    pub weight: f64,
    /// Per-class relative deadline: a task arriving at `t` must start by
    /// `t + deadline`.
    pub deadline: Duration,
    /// Synthetic work units executed per task (see [`burn`]).
    pub work: u32,
}

impl TrafficClass {
    /// Creates a class.
    pub fn new(name: &str, weight: f64, deadline: Duration, work: u32) -> Self {
        Self {
            name: name.to_string(),
            weight,
            deadline,
            work,
        }
    }
}

/// A complete scenario: arrival pattern × class mix × volume × seed.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// The arrival process.
    pub pattern: ArrivalPattern,
    /// The priority classes (at least one, positive weights).
    pub classes: Vec<TrafficClass>,
    /// Total number of tasks to inject.
    pub tasks: u64,
    /// Seed for the deterministic schedule generator.
    pub seed: u64,
}

/// One scheduled arrival: an offset from the scenario epoch and a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the task arrives, relative to the scenario epoch.
    pub at: Duration,
    /// Index into [`TrafficSpec::classes`].
    pub class: usize,
}

impl TrafficSpec {
    fn validate(&self) {
        self.pattern.validate();
        assert!(!self.classes.is_empty(), "need at least one traffic class");
        assert!(
            self.classes
                .iter()
                .all(|c| c.weight > 0.0 && c.weight.is_finite()),
            "class weights must be positive"
        );
    }

    /// Generates the arrival schedule: a pure, deterministic function of the
    /// spec. Arrival times are non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (no classes, non-positive weights or
    /// rates, empty burst/period windows).
    pub fn schedule(&self) -> Vec<Arrival> {
        self.validate();
        let mut rng = Xoshiro256::seeded(self.seed);
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut arrivals = Vec::with_capacity(self.tasks as usize);
        // Busy-time clock for the bursty mapping; wall-clock for the rest.
        let mut t = 0.0f64;
        while (arrivals.len() as u64) < self.tasks {
            let at = match self.pattern {
                ArrivalPattern::Steady { rate } => {
                    t += rng.next_exponential(1.0 / rate);
                    t
                }
                ArrivalPattern::Bursty { rate, on, off } => {
                    // Arrivals happen at `rate` during on-windows only:
                    // advance a busy-time clock, then interleave the silent
                    // windows into the wall-clock mapping.
                    t += rng.next_exponential(1.0 / rate);
                    let on_s = on.as_secs_f64();
                    let cycle = on_s + off.as_secs_f64();
                    (t / on_s).floor() * cycle + t % on_s
                }
                ArrivalPattern::Diurnal { base, peak, period } => {
                    // Lewis–Shedler thinning at the peak rate.
                    loop {
                        t += rng.next_exponential(1.0 / peak);
                        let phase = t / period.as_secs_f64() * std::f64::consts::TAU;
                        let rate = base + (peak - base) * 0.5 * (1.0 - phase.cos());
                        if rng.next_f64() < rate / peak {
                            break;
                        }
                    }
                    t
                }
            };
            // Weighted class pick.
            let mut draw = rng.next_f64() * total_weight;
            let mut class = self.classes.len() - 1;
            for (i, c) in self.classes.iter().enumerate() {
                if draw < c.weight {
                    class = i;
                    break;
                }
                draw -= c.weight;
            }
            arrivals.push(Arrival {
                at: Duration::from_secs_f64(at),
                class,
            });
        }
        arrivals
    }
}

/// Outcome of one [`run_scenario`] call.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// `queue × pattern` label for tables.
    pub label: String,
    /// Tasks injected by the traffic engine.
    pub injected: u64,
    /// Merged per-class lateness distributions.
    pub lateness: LatenessTracker,
    /// The scheduler-level report (throughput, inversions, per-worker
    /// stats).
    pub sched: SchedulerReport,
}

/// Burns `units` of synthetic CPU work (a few ns per unit), preventing the
/// optimiser from deleting it.
pub fn burn(units: u32) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..units {
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(i));
    }
    std::hint::black_box(acc)
}

/// Runs one open-loop scenario against `queue`: an injector thread follows
/// the spec's deterministic schedule (sleeping until each nominal arrival
/// time, never waiting for the scheduler) while the worker pool executes;
/// each executed task burns its class's work units and records its lateness
/// against its absolute deadline.
///
/// The thread opens one [`Injector`](crate::Injector) per insert shard of the queue
/// ([`SharedPq::topology`]) and deals arrival `i` to injector `i mod s`.
/// The injectors register back to back, so their consecutive handle ids
/// cover every shard and each shard receives an even share of the inserts,
/// the spread the shards' rank bounds assume (`DESIGN.md` §7.1). An
/// unsharded queue gets one injector.
///
/// Works with any backend — concrete or `dyn DynSharedPq<TrafficTask>` — so
/// every queue the paper compares runs the identical scenario.
pub fn run_scenario<Q>(queue: &Q, config: SchedulerConfig, spec: &TrafficSpec) -> ScenarioReport
where
    Q: SharedPq<TrafficTask> + ?Sized,
{
    let schedule = spec.schedule();
    let classes = spec.classes.len();
    let sched = Scheduler::new(queue, config);
    let epoch = Instant::now();
    let (report, trackers) = std::thread::scope(|scope| {
        let mut injectors: Vec<_> = (0..queue.topology().shards)
            .map(|_| sched.injector())
            .collect();
        let spec_classes = &spec.classes;
        let schedule = &schedule;
        scope.spawn(move || {
            let sources = injectors.len();
            for (i, arrival) in schedule.iter().enumerate() {
                let now = epoch.elapsed();
                if arrival.at > now {
                    std::thread::sleep(arrival.at - now);
                }
                let deadline_ns =
                    (arrival.at + spec_classes[arrival.class].deadline).as_nanos() as u64;
                injectors[i % sources].inject(
                    deadline_ns,
                    TrafficTask {
                        class: arrival.class,
                        deadline_ns,
                        work: spec_classes[arrival.class].work,
                    },
                );
            }
            // Dropping the injectors here closes the sources; only now can
            // the workers' termination condition become true.
        });
        sched.run(
            |_worker| LatenessTracker::new(classes),
            |tracker: &mut LatenessTracker, _ctx, _key, task: TrafficTask| {
                // Lateness is measured at execution *start*: the deadline
                // says "start by", and measuring before the burn keeps the
                // metric about scheduling, not service time.
                let now_ns = epoch.elapsed().as_nanos() as u64;
                tracker.record(task.class, now_ns.saturating_sub(task.deadline_ns));
                burn(task.work);
            },
        )
    });
    let mut lateness = LatenessTracker::new(classes);
    for tracker in &trackers {
        lateness.merge(tracker);
    }
    ScenarioReport {
        label: format!("{} × {}", queue.name(), spec.pattern.label()),
        injected: spec.tasks,
        lateness,
        sched: report,
    }
}

/// A unit of traffic: the value type scheduled by [`run_scenario`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficTask {
    /// Index into the spec's class list.
    pub class: usize,
    /// Absolute deadline in nanoseconds since the scenario epoch (also the
    /// priority key).
    pub deadline_ns: u64,
    /// Synthetic work units to burn at execution.
    pub work: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use choice_pq::{
        HandleStats, Key, MqHandle, MultiQueue, MultiQueueConfig, PqHandle, QueueTopology,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spec(pattern: ArrivalPattern, tasks: u64) -> TrafficSpec {
        TrafficSpec {
            pattern,
            classes: vec![
                TrafficClass::new("interactive", 3.0, Duration::from_micros(500), 16),
                TrafficClass::new("batch", 1.0, Duration::from_millis(20), 64),
            ],
            tasks,
            seed: 42,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let s = spec(ArrivalPattern::Steady { rate: 100_000.0 }, 2_000);
        let a = s.schedule();
        let b = s.schedule();
        assert_eq!(a, b, "same spec must generate the same schedule");
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let mut other = s.clone();
        other.seed = 43;
        assert_ne!(a, other.schedule(), "seed must matter");
    }

    #[test]
    fn steady_rate_is_respected() {
        let s = TrafficSpec {
            pattern: ArrivalPattern::Steady { rate: 50_000.0 },
            classes: vec![TrafficClass::new("only", 1.0, Duration::ZERO, 0)],
            tasks: 50_000,
            seed: 7,
        };
        let schedule = s.schedule();
        let span = schedule.last().unwrap().at.as_secs_f64();
        assert!(
            (span - 1.0).abs() < 0.05,
            "50k arrivals at 50k/s should span ~1s, got {span:.3}s"
        );
    }

    #[test]
    fn class_weights_are_respected() {
        let s = spec(ArrivalPattern::Steady { rate: 10_000.0 }, 20_000);
        let schedule = s.schedule();
        let interactive = schedule.iter().filter(|a| a.class == 0).count() as f64;
        let share = interactive / schedule.len() as f64;
        assert!(
            (share - 0.75).abs() < 0.02,
            "weight-3-of-4 class should get ~75% of arrivals, got {share:.3}"
        );
    }

    #[test]
    fn bursty_arrivals_avoid_the_off_windows() {
        let on = Duration::from_millis(10);
        let off = Duration::from_millis(30);
        let s = TrafficSpec {
            pattern: ArrivalPattern::Bursty {
                rate: 100_000.0,
                on,
                off,
            },
            classes: vec![TrafficClass::new("only", 1.0, Duration::ZERO, 0)],
            tasks: 5_000,
            seed: 9,
        };
        for a in s.schedule() {
            let cycle = (on + off).as_secs_f64();
            let phase = a.at.as_secs_f64() % cycle;
            assert!(
                phase <= on.as_secs_f64() + 1e-9,
                "arrival at phase {phase:.4}s fell into a silent window"
            );
        }
    }

    #[test]
    fn diurnal_peak_half_gets_more_arrivals() {
        let period = Duration::from_millis(100);
        let s = TrafficSpec {
            pattern: ArrivalPattern::Diurnal {
                base: 1_000.0,
                peak: 50_000.0,
                period,
            },
            classes: vec![TrafficClass::new("only", 1.0, Duration::ZERO, 0)],
            tasks: 10_000,
            seed: 11,
        };
        // The rate curve peaks at phase 0.5: compare the middle half of each
        // cycle against the outer half.
        let (mut mid, mut outer) = (0u64, 0u64);
        for a in s.schedule() {
            let phase = (a.at.as_secs_f64() / period.as_secs_f64()).fract();
            if (0.25..0.75).contains(&phase) {
                mid += 1;
            } else {
                outer += 1;
            }
        }
        assert!(
            mid > 2 * outer,
            "peak half should dominate: mid={mid} outer={outer}"
        );
    }

    #[test]
    fn scenario_runs_end_to_end_and_accounts_every_task() {
        let queue = MultiQueue::<TrafficTask>::new(MultiQueueConfig::for_threads(2).with_seed(3));
        let s = spec(ArrivalPattern::Steady { rate: 500_000.0 }, 3_000);
        let report = run_scenario(&queue, SchedulerConfig::new(2).with_delete_batch(4), &s);
        assert_eq!(report.sched.executed, 3_000);
        assert_eq!(report.lateness.executed(), 3_000);
        assert_eq!(report.injected, 3_000);
        assert!(queue.is_empty());
        assert!(report.sched.tasks_per_second > 0.0);
        assert!(report.label.contains("multiqueue"));
        // Both classes saw traffic.
        assert!(report.lateness.classes().iter().all(|c| c.executed > 0));
    }

    /// A 2-shard MultiQueue that tallies inserts by the inserting
    /// session's shard.
    struct ShardTally {
        queue: MultiQueue<TrafficTask>,
        inserts: [AtomicU64; 2],
    }

    struct TallyHandle<'q> {
        inner: MqHandle<'q, TrafficTask>,
        inserts: &'q AtomicU64,
    }

    impl SharedPq<TrafficTask> for ShardTally {
        type Handle<'q> = TallyHandle<'q>;
        fn register(&self) -> TallyHandle<'_> {
            let inner = self.queue.register();
            let inserts = &self.inserts[inner.shard()];
            TallyHandle { inner, inserts }
        }
        fn approx_len(&self) -> usize {
            self.queue.approx_len()
        }
        fn topology(&self) -> QueueTopology {
            self.queue.topology()
        }
        fn name(&self) -> String {
            self.queue.name()
        }
    }

    impl PqHandle<TrafficTask> for TallyHandle<'_> {
        fn insert(&mut self, key: Key, value: TrafficTask) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.inner.insert(key, value);
        }
        fn insert_all(&mut self, items: &mut Vec<(Key, TrafficTask)>) {
            self.inserts
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            self.inner.insert_all(items);
        }
        fn delete_min(&mut self) -> Option<(Key, TrafficTask)> {
            self.inner.delete_min()
        }
        fn delete_min_batch_into(
            &mut self,
            max: usize,
            out: &mut Vec<(Key, TrafficTask)>,
        ) -> usize {
            self.inner.delete_min_batch_into(max, out)
        }
        fn stats(&self) -> HandleStats {
            self.inner.stats()
        }
    }

    #[test]
    fn each_insert_shard_receives_an_even_share_of_the_arrivals() {
        let tasks = 2_001u64;
        let queue = ShardTally {
            queue: MultiQueue::new(MultiQueueConfig::with_queues(8).with_shards(2).with_seed(3)),
            inserts: Default::default(),
        };
        let s = spec(ArrivalPattern::Steady { rate: 500_000.0 }, tasks);
        let report = run_scenario(&queue, SchedulerConfig::new(2).with_delete_batch(4), &s);
        assert_eq!(report.sched.executed, tasks);
        let per_shard = queue.inserts.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(per_shard.iter().sum::<u64>(), tasks);
        for inserts in per_shard {
            assert!(
                inserts.abs_diff(tasks / 2) <= 1,
                "each shard must receive tasks/2 ± 1 inserts, got {per_shard:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "peak must be at least the base")]
    fn inverted_diurnal_rates_rejected() {
        let s = TrafficSpec {
            pattern: ArrivalPattern::Diurnal {
                base: 10.0,
                peak: 5.0,
                period: Duration::from_millis(1),
            },
            classes: vec![TrafficClass::new("x", 1.0, Duration::ZERO, 0)],
            tasks: 1,
            seed: 0,
        };
        let _ = s.schedule();
    }

    #[test]
    fn burn_depends_on_units() {
        assert_ne!(burn(10), burn(11));
        assert_eq!(burn(10), burn(10));
    }
}
