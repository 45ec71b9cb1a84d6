//! `sched_edf`: the scheduler as producer and consumer of a small live
//! queue.
//!
//! A `choice_sched::Scheduler` with two workers (`delete_min_batch` 8) runs
//! over a d = 2 `MultiQueue` of four lanes holding a fixed population of 256
//! self-re-arming EDF tasks: each task, when it runs, burns its class's work
//! and spawns its next instance, keyed by its own deadline plus the next
//! instance's class deadline. The classes are `t8_scheduler`'s (500 µs /
//! 5 ms / 50 ms deadlines, weights 6 / 3 / 1, 32 / 128 / 512 work units).
//! The live queue stays at 64 tasks per lane (4 KB in all), so the time
//! goes to choice sampling, batch removal, lane contention, the spawn path
//! and the quiescence counters rather than to cache misses.
//!
//! The workers produce their own load: there is no injector thread. An
//! open-loop injector made every delay a measure of how the host scheduled
//! the injector against the worker (see `NOTES.md`). Two workers rather
//! than one because the vCPUs of a shared host change speed independently
//! of each other; one thread follows one vCPU's speed, two average both
//! (run to run, two workers spread about a third as much as one).
//!
//! The rank metrics come from a separate fixed-length run with one worker:
//! with one worker and a seeded queue the execution order is a function of
//! the seed alone, so they repeat exactly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use choice_pq::{MultiQueue, MultiQueueConfig};
use choice_sched::traffic::burn;
use choice_sched::{Scheduler, SchedulerConfig, SchedulerReport, TaskCtx};
use rank_stats::rng::RandomSource;

use crate::layers::{self, Mix};
use crate::stats::{self, block_ns, PresentKeys, Progress, Samples, Tally};
use crate::{wire, Args, Report};

const LANES: usize = 4;
const BATCH: usize = 8;
/// Workers of the timed runs (the rank run has one).
const WORKERS: usize = 2;
/// Live tasks. Task `id`'s next instance is `id + POPULATION`, so each
/// instance chain keeps one slot, `id % POPULATION`.
const POPULATION: u64 = 256;
/// `(deadline, work units, weight)` per class, as in `t8_scheduler`.
const CLASSES: [(Duration, u32, u64); 3] = [
    (Duration::from_micros(500), 32, 6),
    (Duration::from_millis(5), 128, 3),
    (Duration::from_millis(50), 512, 1),
];
/// Uniform jitter added to every deadline, so keys rarely tie.
const JITTER_NS: u64 = 100_000;
/// Length of the pregenerated class and deadline ring.
const RING: usize = 1 << 20;
/// Task chains `id % SAMPLE_EVERY == 0` (8 of the 256) are timed for the
/// latency metrics, into per-worker buffers of `SAMPLES` (about 40 s at
/// this rate; past that the latest are kept).
const SAMPLE_EVERY: u64 = 32;
const SAMPLES: usize = 1 << 21;
/// Executions between progress and stop checks.
const TICK: u64 = 64;
/// Tasks the rank phase executes.
const RANK_TASKS: u64 = 1 << 20;
/// Set-up blocks, spread evenly over the timed run.
const SETUPS: usize = 51;
const SETUP_BLOCK: usize = 64;
/// Tasks injected ahead of the worker in the scheduler micro-run.
const MICRO_TASKS: usize = 1 << 16;

pub fn mix(seed: u64) -> Mix {
    Mix {
        lanes: LANES,
        lane_size: POPULATION as usize / LANES,
        // Each of a batch's tasks spawns one successor.
        inserts_per_removal: BATCH,
        batch: BATCH,
        span: CLASSES[2].0.as_nanos() as u64,
        seed,
    }
}

fn config(seed: u64) -> MultiQueueConfig {
    MultiQueueConfig::with_queues(LANES)
        .with_d(2)
        .with_seed(seed)
}

/// The seeded input: per task (by `id % RING`), how far its deadline lies
/// beyond its predecessor's, and its work.
struct Plan {
    step_ns: Vec<u64>,
    work: Vec<u32>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = stats::rng(seed, 0x5C4E_D001);
        let total: u64 = CLASSES.iter().map(|c| c.2).sum();
        let (mut step_ns, mut work) = (Vec::with_capacity(RING), Vec::with_capacity(RING));
        for _ in 0..RING {
            let mut draw = rng.next_below(total);
            let class = CLASSES
                .iter()
                .find(|c| {
                    let hit = draw < c.2;
                    draw = draw.saturating_sub(c.2);
                    hit
                })
                .expect("draw below the total weight");
            step_ns.push(class.0.as_nanos() as u64 + rng.next_below(JITTER_NS));
            work.push(class.1);
        }
        Plan { step_ns, work }
    }

    fn step(&self, id: u64) -> u64 {
        self.step_ns[id as usize % RING]
    }

    fn work(&self, id: u64) -> u32 {
        self.work[id as usize % RING]
    }

    /// The first generation: task `id < POPULATION` is due at its own step.
    fn initial_key(&self, id: u64) -> u64 {
        self.step(id)
    }
}

/// How long a run spawns: for a time (the measuring thread sets `stop`), or
/// until its one worker has executed a number of tasks.
#[derive(Clone, Copy)]
enum Length {
    Seconds(f64),
    Tasks(u64),
}

/// Per-chain timestamps of the live instance, set by its predecessor on
/// whichever worker ran it: when it was created (the predecessor's start)
/// and when it entered the queue (the predecessor's end). Nanoseconds from
/// the run's epoch. The queue orders a spawn before its successor's start,
/// so relaxed accesses suffice.
#[derive(Default)]
struct Slot {
    due_ns: AtomicU64,
    visible_ns: AtomicU64,
}

/// What the workers share through one run.
struct Shared<'a> {
    plan: &'a Plan,
    epoch: Instant,
    stop: AtomicBool,
    tasks: u64,
    traced: bool,
    slots: Vec<Slot>,
    progress: Vec<Progress>,
}

/// One worker's state through one run.
struct Worker {
    index: usize,
    stopped: bool,
    executed: u64,
    ran: Tally,
    spawned: Tally,
    delay_ns: Samples,
    rtt_ns: Samples,
    /// Traced run: summed handler work time.
    handler_ns: u128,
    /// Sampled tasks: summed time from creation to entering the queue.
    lag_ns: u128,
    lags: u64,
    /// Rank phase: `(key, started)` in event order — a start, or a spawn.
    log: Option<Vec<(u64, bool)>>,
}

struct Phase {
    report: SchedulerReport,
    workers: Vec<Worker>,
    initial: Tally,
    /// Timed runs: the interquartile mean of the per-window task rates.
    ops_per_s: f64,
}

impl Phase {
    fn sum(&self, f: impl Fn(&Worker) -> u128) -> u128 {
        self.workers.iter().map(f).sum()
    }
}

/// One run: the first generation injected, then the workers alone until
/// the run's length is reached and the population drains.
fn run_phase(queue: &MultiQueue<u64>, plan: &Plan, length: Length, traced: bool) -> Phase {
    let (workers, tasks, log) = match length {
        Length::Seconds(_) => (WORKERS, u64::MAX, false),
        Length::Tasks(tasks) => (1, tasks, true),
    };
    let scheduler = Scheduler::new(
        queue,
        SchedulerConfig::new(workers).with_delete_batch(BATCH),
    );
    let mut initial = Tally::default();
    {
        let mut injector = scheduler.injector();
        for id in 0..POPULATION {
            injector.inject(plan.initial_key(id), id);
            initial.add(id);
        }
    }
    // Worker state, sample buffers included, is built before the epoch.
    let states: Vec<Mutex<Option<Worker>>> = (0..workers)
        .map(|index| {
            let samples = if log { 1 } else { SAMPLES };
            Mutex::new(Some(Worker {
                index,
                stopped: false,
                executed: 0,
                ran: Tally::default(),
                spawned: Tally::default(),
                delay_ns: Samples::new(samples),
                rtt_ns: Samples::new(samples),
                handler_ns: 0,
                lag_ns: 0,
                lags: 0,
                log: log.then(|| Vec::with_capacity(2 * tasks as usize + 1024)),
            }))
        })
        .collect();
    let shared = Shared {
        plan,
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        tasks,
        traced,
        slots: (0..POPULATION).map(|_| Slot::default()).collect(),
        progress: (0..workers).map(|_| Progress::default()).collect(),
    };
    let run = || {
        scheduler.run(
            |index| {
                states[index]
                    .lock()
                    .expect("no thread panicked holding a worker's state")
                    .take()
                    .expect("one state per worker")
            },
            |w: &mut Worker, ctx: &mut TaskCtx<'_, u64>, key, id| task(w, ctx, &shared, key, id),
        )
    };
    let (ops_per_s, (report, workers)) = match length {
        Length::Seconds(seconds) => std::thread::scope(|scope| {
            let pool = scope.spawn(run);
            let rate = stats::windowed_rate(seconds, || {
                shared
                    .progress
                    .iter()
                    .map(|p| p.0.load(Ordering::Relaxed))
                    .sum()
            });
            shared.stop.store(true, Ordering::Relaxed);
            (rate, pool.join().expect("scheduler pool panicked"))
        }),
        Length::Tasks(_) => (0.0, run()),
    };
    Phase {
        report,
        workers,
        initial,
        ops_per_s,
    }
}

#[inline(always)]
fn task(w: &mut Worker, ctx: &mut TaskCtx<'_, u64>, shared: &Shared<'_>, key: u64, id: u64) {
    let sampled = id.is_multiple_of(SAMPLE_EVERY);
    let start = (sampled || shared.traced).then(Instant::now);
    if let Some(log) = w.log.as_mut() {
        log.push((key, true));
    }
    w.executed += 1;
    w.ran.add(id);
    if w.executed.is_multiple_of(TICK) {
        shared.progress[w.index]
            .0
            .store(w.executed, Ordering::Relaxed);
        w.stopped |= shared.stop.load(Ordering::Relaxed);
    }
    w.stopped |= w.executed >= shared.tasks;
    let slot = &shared.slots[(id % POPULATION) as usize];
    let at = start.map(|start| start.duration_since(shared.epoch).as_nanos() as u64);
    if let (true, Some(at)) = (sampled, at) {
        if id >= POPULATION {
            let due = slot.due_ns.load(Ordering::Relaxed);
            let visible = slot.visible_ns.load(Ordering::Relaxed);
            w.delay_ns.push(at.saturating_sub(due));
            w.rtt_ns.push(at.saturating_sub(visible));
        }
        slot.due_ns.store(at, Ordering::Relaxed);
    }

    burn(shared.plan.work(id));

    if let (true, Some(start)) = (shared.traced, start) {
        w.handler_ns += start.elapsed().as_nanos();
    }
    if !w.stopped {
        let next = id + POPULATION;
        let next_key = key + shared.plan.step(next);
        if let (true, Some(at)) = (sampled, at) {
            let end = shared.epoch.elapsed().as_nanos() as u64;
            w.lag_ns += u128::from(end - at);
            w.lags += 1;
            slot.visible_ns.store(end, Ordering::Relaxed);
        }
        ctx.spawn(next_key, next);
        w.spawned.add(next);
        if let Some(log) = w.log.as_mut() {
            log.push((next_key, false));
        }
    }
}

/// Exactly-once: every task created (the first generation and every spawn)
/// ran once, by count and id sum, and the scheduler agrees.
fn check(phase: &Phase, report: &mut Report) {
    let (mut created, mut ran) = (phase.initial, Tally::default());
    for w in &phase.workers {
        created.merge(w.spawned);
        ran.merge(w.ran);
    }
    let spawned = created.count - phase.initial.count;
    report.attempted += created.count;
    report.failed += created.count.abs_diff(ran.count);
    report.check(created == ran, || {
        format!(
            "{} tasks created (id sum {:#x}), {} ran (id sum {:#x})",
            created.count, created.sum, ran.count, ran.sum
        )
    });
    report.check(
        phase.report.executed == ran.count && phase.report.spawned == spawned,
        || {
            format!(
                "scheduler counted {} executed and {} spawned; the handlers saw {} and {}",
                phase.report.executed, phase.report.spawned, ran.count, spawned
            )
        },
    );
}

/// `(rank_mean, rank_max, inversions_per_k)` of a fixed-length run with one
/// worker: at each task's start, 1 + the tasks created and not yet started
/// with an earlier deadline; inversions are the scheduler's own count.
fn rank_phase(seed: u64, plan: &Plan, report: &mut Report) -> (f64, f64, f64) {
    let queue = MultiQueue::new(config(seed));
    let phase = run_phase(&queue, plan, Length::Tasks(RANK_TASKS), false);
    check(&phase, report);
    let log = phase.workers[0].log.as_deref().unwrap_or(&[]);
    let initial: Vec<u64> = (0..POPULATION).map(|id| plan.initial_key(id)).collect();
    let universe = initial
        .iter()
        .copied()
        .chain(log.iter().filter(|e| !e.1).map(|e| e.0))
        .collect();
    let mut present = PresentKeys::new(universe);
    for &key in &initial {
        present.add(key);
    }
    for &(key, started) in log {
        if started {
            present.remove_ranked(key);
        } else {
            present.add(key);
        }
    }
    (
        present.ranks.mean(),
        present.ranks.max(),
        phase.report.inversions.count() as f64 * 1000.0 / phase.report.executed.max(1) as f64,
    )
}

fn timed(seed: u64, plan: &Plan, seconds: f64, traced: bool, report: &mut Report) -> Phase {
    let queue = MultiQueue::new(config(seed));
    let phase = run_phase(&queue, plan, Length::Seconds(seconds), traced);
    check(&phase, report);
    phase
}

/// Set-up — queue, scheduler, injector session and the first generation
/// of 256 tasks — takes about 15 µs, so it is timed in blocks: seconds per
/// set-up over one block. The queues of a block stay alive until it is
/// timed, so they sit at different addresses, as a long-running program's
/// would.
fn setup_block_s(seed: u64, plan: &Plan) -> f64 {
    let mut queues = Vec::with_capacity(SETUP_BLOCK);
    let ns = block_ns(1, SETUP_BLOCK, |_| {
        for _ in 0..SETUP_BLOCK {
            let q = MultiQueue::<u64>::new(config(seed));
            {
                let scheduler =
                    Scheduler::new(&q, SchedulerConfig::new(1).with_delete_batch(BATCH));
                let mut injector = scheduler.injector();
                for id in 0..POPULATION {
                    injector.inject(plan.initial_key(id), id);
                }
            }
            queues.push(q);
        }
    });
    drop(queues);
    ns / 1e9
}

/// [`SETUPS`] set-up blocks on a thread of their own, one every
/// `seconds / SETUPS`, until `done` is set (and at least five). The host's
/// speed shifts every second or two, so blocks taken in one burst before
/// or after the run would rest on one or two of its moods; spread over the
/// run they sample all of them. A block is about 1 ms of one CPU, so the
/// workers lose about a thousandth of their time to it.
fn sample_setups(seed: u64, plan: &Plan, seconds: f64, done: &AtomicBool) -> Vec<f64> {
    let every = Duration::from_secs_f64(seconds / SETUPS as f64);
    let start = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS + 1);
    while setups.len() < 5 || !done.load(Ordering::Relaxed) {
        setups.push(setup_block_s(seed, plan));
        let due = start + every * setups.len() as u32;
        while !done.load(Ordering::Relaxed) && Instant::now() < due {
            std::thread::sleep(Duration::from_millis(10).min(every));
        }
    }
    setups
}

pub fn run(args: &Args, report: &mut Report) {
    let plan = Plan::new(args.seed);
    if !args.trace {
        let done = AtomicBool::new(false);
        let (phase, mut setups) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| sample_setups(args.seed, &plan, args.seconds, &done));
            let phase = timed(args.seed, &plan, args.seconds, false, report);
            done.store(true, Ordering::Relaxed);
            (phase, sampler.join().expect("set-up sampler panicked"))
        });
        let (rank_mean, rank_max, inversions) = rank_phase(args.seed, &plan, report);
        let windows = stats::windows(args.seconds);
        let ops_per_s = phase.ops_per_s;
        let (mut delay, mut rtt) = (Vec::new(), Vec::new());
        for w in phase.workers {
            delay.push(w.delay_ns.into_ordered());
            rtt.push(w.rtt_ns.into_ordered());
        }
        let delay: Vec<&[u64]> = delay.iter().map(|d| &d[..]).collect();
        let rtt: Vec<&[u64]> = rtt.iter().map(|r| &r[..]).collect();
        report.set("setup_s", stats::median(&mut setups));
        report.set("ops_per_s", ops_per_s);
        report.set("rank_mean", rank_mean);
        report.set("rank_max", rank_max);
        report.set("inversions_per_k", inversions);
        stats::set_p50_p99(report, "delay", &delay, windows, "task delay");
        stats::set_p50_p99(report, "rtt", &rtt, windows, "task sojourn");
        return;
    }

    // Traced run: the same loop untraced, then with handler time taken.
    let plain = timed(args.seed, &plan, args.seconds / 2.0, false, report);
    let traced = timed(args.seed, &plan, args.seconds / 2.0, true, report);
    let tasks = traced.report.executed.max(1) as f64;
    let handler_ns = traced.sum(|w| w.handler_ns) as f64 / tasks;
    // Wall time per task on one worker.
    let task_ns = (traced.report.elapsed.as_nanos() * WORKERS as u128) as f64 / tasks;

    let mix = mix(args.seed);
    layers::measure(&mix, report);
    layers::core_calls(&mix, report);
    micro(&mix, report);
    wire::micro(&mix, report);
    // The live run's own figures replace the micro-run's where it has them.
    report.set("sched.dispatch_ns", task_ns - handler_ns);
    report.set(
        "sched.backoff_waits",
        traced
            .report
            .workers
            .iter()
            .map(|w| w.backoff_waits)
            .sum::<u64>() as f64,
    );
    report.set(
        "sched.contended_retries",
        traced.report.contended_retries() as f64,
    );
    report.set(
        "sched.generator_lag_us",
        traced.sum(|w| w.lag_ns) as f64 / traced.sum(|w| u128::from(w.lags)).max(1) as f64 / 1e3,
    );
    layers::handle_counters(&traced.report.merged_stats(), report);
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s,
    );
    // Ledger: a task's wall time against the timed pieces on its path —
    // the handler, an eighth of a batch removal, and its successor's insert;
    // the rest is the scheduler's own bookkeeping.
    let removal_ns = report.get("core.delete_min_ns").unwrap_or(0.0) / BATCH as f64;
    let insert_ns = report.get("core.insert_ns").unwrap_or(0.0);
    report.set(
        "ledger.unaccounted_pct",
        100.0 * (task_ns - handler_ns - removal_ns - insert_ns) / task_ns,
    );
}

/// `sched.*` for workloads that do not run the scheduler, and
/// `sched.inject_ns` for `sched_edf`, whose loop has no injector: the
/// workload's keys injected ahead of one worker (timed in blocks), then
/// drained by it with an empty handler. `sched.generator_lag_us` stays the
/// workload's own.
pub fn micro(mix: &Mix, report: &mut Report) {
    let queue = MultiQueue::new(
        MultiQueueConfig::with_queues(mix.lanes)
            .with_d(2)
            .with_seed(mix.seed),
    );
    let scheduler = Scheduler::new(&queue, SchedulerConfig::new(1).with_delete_batch(mix.batch));
    let keys = {
        let mut rng = stats::rng(mix.seed, 0x5C4E_D002);
        (0..MICRO_TASKS)
            .map(|_| rng.next_below(mix.span))
            .collect::<Vec<u64>>()
    };
    const BLOCK: usize = 1024;
    let inject_ns = {
        let mut injector = scheduler.injector();
        block_ns(MICRO_TASKS / BLOCK, BLOCK, |round| {
            for (j, &key) in keys[round * BLOCK..(round + 1) * BLOCK].iter().enumerate() {
                injector.inject(key, (round * BLOCK + j) as u64);
            }
        })
    };
    let (run, _) = scheduler.run_simple(|_, _, _| {});
    report.check(run.executed == MICRO_TASKS as u64, || {
        format!(
            "scheduler micro-run executed {} of {MICRO_TASKS}",
            run.executed
        )
    });
    report.set("sched.inject_ns", inject_ns);
    report.set(
        "sched.dispatch_ns",
        stats::ns_per(run.elapsed, run.executed),
    );
    report.set("sched.backoff_waits", run.workers[0].backoff_waits as f64);
    report.set("sched.contended_retries", run.contended_retries() as f64);
}
