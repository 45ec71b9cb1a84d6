//! The worker-pool scheduler and its termination-detection protocol.
//!
//! # Termination detection
//!
//! Workers must stop exactly when every task that will ever exist has been
//! executed. With spawn-from-task and concurrent open-loop injection this is
//! a distributed-termination problem, and two tempting shortcuts are wrong
//! on a relaxed queue:
//!
//! * **"`delete_min` returned `None`, so we are done"** — a relaxed pop can
//!   fail transiently (sampled lanes empty while elements sit in others, a
//!   lane emptied between the peek and the lock), and even a truthful empty
//!   observation says nothing about tasks currently *executing*, which may
//!   spawn more.
//! * **"`approx_len() == 0`, so we are done"** — the count is maintained
//!   with relaxed atomics; it is a load-balancing hint, not a linearizable
//!   emptiness test (see `DESIGN.md` §5.2).
//!
//! The scheduler instead runs the standard count-based quiescence protocol
//! (the message-counting termination detector of Mattern's credit/count
//! family — see Aspnes, *Notes on Theory of Distributed Systems*, ch. 8):
//! a shared `pending` counter tracks tasks that are *injected or spawned but
//! not yet fully executed*, and a `sources` counter tracks open injectors.
//!
//! * an [`Injector`] increments `pending` **before** inserting a task, and
//!   decrements `sources` only on drop;
//! * a finished task passes its own unit on to its spawns instead of
//!   paying it back and borrowing new ones (the credit transfer of the
//!   counting detectors): [`TaskCtx::spawn`] only buffers, and once the
//!   handler returns the worker adds `k − 1` units for `k ≥ 2` spawns,
//!   lets a single spawn carry the parent's unit alone, and releases the
//!   unit only when there are none. `pending` never dips to zero while a
//!   spawn is in flight, and a task that re-arms itself never touches the
//!   counter;
//! * the counted spawns stay with the worker until its batch ends, and
//!   one [`PqHandle::insert_all`] then publishes them, taking one lock per
//!   lane they drew instead of one per spawn. Holding them privately is
//!   safe because each already holds a unit: `pending` stays positive for
//!   as long as they are unpublished, exactly as for a task that is still
//!   running;
//! * a worker may conclude "done" only from the conjunction: its pop failed
//!   with a **quiescent-empty observation** (the [`HandleStats::empty_polls`]
//!   counter moved, not merely a contention race), **then** `sources == 0`,
//!   **then** `pending == 0`, read in that order with sequentially
//!   consistent loads.
//!
//! Why the order makes the check stable: once `sources` reads 0, no injector
//! will ever increment `pending` again (injectors increment strictly before
//! closing). A later `pending == 0` therefore also rules out spawns — a
//! spawn requires a running task, which requires `pending > 0`, and a
//! spawn held until its batch ends keeps a unit of its own. Both
//! counters can only move `0 → positive` through paths that are closed at
//! that point, so the conjunction, once observed, holds forever and every
//! worker eventually observes it. A failed pop alone never terminates
//! anything — it merely triggers the (exponential) idle backoff.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use choice_obs::{EventKind, LogHistogram, ObsHub};
use choice_pq::{check_key, HandleStats, Key, PqHandle, SharedPq};
use rank_stats::timing::OpsTimer;

/// Consecutive empty polls that only `yield_now` before an idle worker
/// starts sleeping.
const SPIN_POLLS: u32 = 8;
/// The first idle sleep once spinning is exhausted.
const FIRST_SLEEP: Duration = Duration::from_micros(20);
/// The idle-sleep ceiling.
const MAX_SLEEP: Duration = Duration::from_millis(2);

/// The exponential idle backoff of a worker that keeps finding the queue
/// empty (while termination has not been detected): the wait for the
/// `attempt`-th consecutive empty poll (1-based). The first
/// [`SPIN_POLLS`] only yield (`None`); later ones sleep, doubling from
/// [`FIRST_SLEEP`] up to [`MAX_SLEEP`]. Any successful pop resets the
/// progression.
fn idle_wait(attempt: u32) -> Option<Duration> {
    if attempt <= SPIN_POLLS {
        return None;
    }
    let doublings = (attempt - SPIN_POLLS - 1).min(20);
    Some(FIRST_SLEEP.saturating_mul(1 << doublings).min(MAX_SLEEP))
}

/// Configuration of a [`Scheduler`] worker pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// How many tasks one poll drains (`delete_min_batch_into` size). `1`
    /// is plain `delete_min`; larger values amortise the lane choice and
    /// lock over the batch at a bounded priority-quality cost.
    pub delete_batch: usize,
}

impl SchedulerConfig {
    /// A plain configuration: `workers` threads, single-task polls.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            delete_batch: 1,
        }
    }

    /// Sets the per-poll drain size.
    ///
    /// # Panics
    ///
    /// Panics if `delete_batch == 0`.
    pub fn with_delete_batch(mut self, delete_batch: usize) -> Self {
        assert!(delete_batch > 0, "delete batch must be positive");
        self.delete_batch = delete_batch;
        self
    }
}

/// The shared quiescence state of the termination protocol (module docs).
#[derive(Debug, Default)]
struct Quiescence {
    /// Tasks injected or spawned but not yet fully executed.
    pending: AtomicU64,
    /// Open injection sources.
    sources: AtomicU64,
}

/// A task-injection session: the only way work enters a [`Scheduler`].
///
/// Injectors participate in termination detection — each one counts as an
/// open source until dropped, and every injected task is registered with the
/// quiescence counter *before* it becomes poppable — so injection may run
/// concurrently with execution (the open-loop traffic engine does exactly
/// that). Dropping the injector closes the source.
pub struct Injector<'s, 'q, V, Q: SharedPq<V> + ?Sized + 'q> {
    handle: Q::Handle<'q>,
    quiescence: &'s Quiescence,
    injected: u64,
}

impl<V, Q: SharedPq<V> + ?Sized> Injector<'_, '_, V, Q> {
    /// Injects one task with a deadline-style priority (smaller = more
    /// urgent).
    ///
    /// # Panics
    ///
    /// Panics if `deadline == Key::MAX` (see [`choice_pq::check_key`]).
    pub fn inject(&mut self, deadline: Key, task: V) {
        check_key(deadline);
        // Count strictly before the task can be popped: a worker that
        // executes it must never observe `pending == 0` concurrently.
        self.quiescence.pending.fetch_add(1, Ordering::SeqCst);
        self.handle.insert(deadline, task);
        self.injected += 1;
    }

    /// Number of tasks injected through this session so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl<V, Q: SharedPq<V> + ?Sized> Drop for Injector<'_, '_, V, Q> {
    fn drop(&mut self) {
        self.quiescence.sources.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Execution context handed to the task handler; the only way to spawn
/// follow-up work from inside a task.
pub struct TaskCtx<'a, V> {
    worker: usize,
    deadline: Key,
    spawned: &'a mut Vec<(Key, V)>,
}

impl<V> TaskCtx<'_, V> {
    /// Index of the worker executing this task (`0..workers`).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The deadline (priority key) this task was scheduled with.
    pub fn deadline(&self) -> Key {
        self.deadline
    }

    /// Spawns a follow-up task.
    ///
    /// The spawn is buffered: it is counted with the termination detector
    /// when the handler returns, while the parent task is still counted as
    /// pending, and handed to the worker's queue session when the batch
    /// ends (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `deadline == Key::MAX`.
    pub fn spawn(&mut self, deadline: Key, task: V) {
        check_key(deadline);
        self.spawned.push((deadline, task));
    }
}

/// Per-worker outcome of one [`Scheduler::run`].
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Tasks executed by this worker.
    pub executed: u64,
    /// Follow-up tasks spawned from this worker's tasks.
    pub spawned: u64,
    /// Idle backoff waits (yields + sleeps) performed.
    pub backoff_waits: u64,
    /// The worker session's queue counters (`empty_polls` and
    /// `contended_retries` included).
    pub stats: HandleStats,
}

/// Outcome of one [`Scheduler::run`].
#[derive(Clone, Debug)]
pub struct SchedulerReport {
    /// Total tasks executed across all workers.
    pub executed: u64,
    /// Total follow-up tasks spawned from inside tasks.
    pub spawned: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// `executed / elapsed` in tasks per second.
    pub tasks_per_second: f64,
    /// Distribution of observed **deadline inversions**: each time a worker
    /// pops a deadline smaller than the one it popped just before, the
    /// magnitude of the step back is recorded. This is the scheduler-level
    /// face of the paper's rank metric — a single-worker run over an exact
    /// queue records nothing, while relaxed queues record magnitudes that
    /// shrink with `d` and grow with the delete batch (multi-worker runs
    /// add benign cross-worker interleaving noise for every backend).
    pub inversions: LogHistogram,
    /// Per-worker breakdowns.
    pub workers: Vec<WorkerReport>,
}

impl SchedulerReport {
    /// The pool-wide queue counters: every worker session's
    /// [`HandleStats`] folded together with [`HandleStats::merge`].
    pub fn merged_stats(&self) -> HandleStats {
        let mut totals = HandleStats::default();
        for worker in &self.workers {
            totals.merge(&worker.stats);
        }
        totals
    }

    /// Sum of `empty_polls` over all worker sessions.
    pub fn empty_polls(&self) -> u64 {
        self.merged_stats().empty_polls
    }

    /// Sum of `contended_retries` over all worker sessions.
    pub fn contended_retries(&self) -> u64 {
        self.merged_stats().contended_retries
    }
}

/// A relaxed-priority work scheduler over any [`SharedPq`] backend.
///
/// The scheduler borrows the queue; workers are scoped threads created per
/// [`run`](Scheduler::run) call, each operating through its own registered
/// session. Injection (concurrent or ahead-of-time) goes through
/// [`injector`](Scheduler::injector) sessions; `run` returns when the
/// termination detector proves quiescence (module docs).
///
/// The queue type may be concrete (`MultiQueue<V>`, `CoarseHeap<V>`, …) or
/// type-erased (`dyn DynSharedPq<V>`), so one scheduler drives every
/// backend the paper compares.
pub struct Scheduler<'q, V, Q: SharedPq<V> + ?Sized> {
    queue: &'q Q,
    config: SchedulerConfig,
    quiescence: Quiescence,
    /// Telemetry hub: worker quiescence transitions go to the flight
    /// recorder, per-run task/backoff totals to the metrics registry. `None`
    /// keeps the pool telemetry-free.
    obs: Option<Arc<ObsHub>>,
    _values: PhantomData<fn(V) -> V>,
}

impl<'q, V: Send, Q: SharedPq<V> + ?Sized> Scheduler<'q, V, Q> {
    /// Creates a scheduler over `queue`.
    pub fn new(queue: &'q Q, config: SchedulerConfig) -> Self {
        Self {
            queue,
            config,
            quiescence: Quiescence::default(),
            obs: None,
            _values: PhantomData,
        }
    }

    /// Attaches a telemetry hub: each worker records a
    /// [`Quiescence`](EventKind::Quiescence) flight-recorder event when the
    /// termination detector fires, and folds its executed-task and
    /// backoff-wait totals into the `sched_tasks_executed_total` /
    /// `sched_backoff_waits_total` counters (off the hot path — once per
    /// worker per run).
    pub fn with_obs(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The queue this scheduler executes from.
    pub fn queue(&self) -> &'q Q {
        self.queue
    }

    /// Opens an injection session.
    ///
    /// May be used before `run` (seeding) or concurrently with it from
    /// another thread (open-loop traffic). `run` does not return while any
    /// injector is alive, so drop injectors when their traffic ends.
    ///
    /// **Ordering contract:** open an injector *before* the `run` call it
    /// feeds (or while another source is still open, e.g. chained traffic
    /// waves). Opening one concurrently with a pool that has already
    /// drained every earlier source races against termination detection:
    /// `run` may legitimately observe quiescence and return before the new
    /// source's increment, leaving the late tasks in the queue for a
    /// subsequent `run`.
    pub fn injector(&self) -> Injector<'_, 'q, V, Q> {
        self.quiescence.sources.fetch_add(1, Ordering::SeqCst);
        Injector {
            handle: self.queue.register(),
            quiescence: &self.quiescence,
            injected: 0,
        }
    }

    /// Runs the worker pool until quiescence, threading a per-worker state
    /// value through the handler (created by `init`, returned alongside the
    /// report) — the allocation-free way to accumulate per-worker results
    /// such as lateness histograms.
    ///
    /// The handler runs once per task as `handler(&mut state, &mut ctx,
    /// deadline, task)`; it may spawn follow-ups through the context.
    ///
    /// # Panics
    ///
    /// A panic in the handler propagates out of `run` (it does not hang the
    /// pool): the panicking worker releases the termination-counter units of
    /// its abandoned tasks so the other workers still reach quiescence and
    /// the scope joins, then the panic is re-raised. The abandoned tasks are
    /// *not* executed.
    pub fn run<S, I, F>(&self, init: I, handler: F) -> (SchedulerReport, Vec<S>)
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, &mut TaskCtx<'_, V>, Key, V) + Sync,
    {
        let timer = OpsTimer::start();
        let per_worker: Vec<(WorkerReport, LogHistogram, S)> = std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(self.config.workers);
            for worker in 0..self.config.workers {
                let init = &init;
                let handler = &handler;
                joins.push(scope.spawn(move || self.worker_loop(worker, init, handler)));
            }
            joins
                .into_iter()
                .map(|j| j.join().expect("scheduler worker panicked"))
                .collect()
        });

        let mut report = SchedulerReport {
            executed: 0,
            spawned: 0,
            elapsed: timer.elapsed(),
            tasks_per_second: 0.0,
            inversions: LogHistogram::new(),
            workers: Vec::with_capacity(per_worker.len()),
        };
        let mut states = Vec::with_capacity(per_worker.len());
        for (worker, inversions, state) in per_worker {
            report.executed += worker.executed;
            report.spawned += worker.spawned;
            report.inversions.merge(&inversions);
            report.workers.push(worker);
            states.push(state);
        }
        report.tasks_per_second = timer.ops_per_second(report.executed);
        if let Some(hub) = &self.obs {
            // A finished run is a natural rate-window boundary: close one so
            // a following dump reports this run's ops as live rates instead
            // of folding them into an ever-growing lifetime average.
            hub.window_tick();
        }
        (report, states)
    }

    /// [`run`](Scheduler::run) without per-worker state.
    pub fn run_simple<F>(&self, handler: F) -> (SchedulerReport, Vec<()>)
    where
        F: Fn(&mut TaskCtx<'_, V>, Key, V) + Sync,
    {
        self.run(
            |_| (),
            |(), ctx, deadline, task| handler(ctx, deadline, task),
        )
    }

    /// One worker: poll (batched), execute, count each task's spawns on its
    /// pending unit and publish the batch's spawns together; on an empty
    /// poll consult the termination detector, else back off. See the module
    /// docs for the correctness argument.
    fn worker_loop<S, I, F>(
        &self,
        worker: usize,
        init: &I,
        handler: &F,
    ) -> (WorkerReport, LogHistogram, S)
    where
        I: Fn(usize) -> S,
        F: Fn(&mut S, &mut TaskCtx<'_, V>, Key, V),
    {
        let mut handle = self.queue.register();
        let mut state = init(worker);
        let mut report = WorkerReport {
            worker,
            ..WorkerReport::default()
        };
        let mut inversions = LogHistogram::new();
        let mut batch: Vec<(Key, V)> = Vec::with_capacity(self.config.delete_batch);
        let mut spawned: Vec<(Key, V)> = Vec::new();
        let mut last_deadline = 0u64;
        let mut idle_polls = 0u32;
        loop {
            let empty_polls_before = handle.stats().empty_polls;
            let popped = handle.delete_min_batch_into(self.config.delete_batch, &mut batch);
            if popped > 0 {
                idle_polls = 0;
                // A panicking handler must not hang the pool: the popped
                // tasks already hold `pending` units whose releases live
                // below the handler call. Catch the unwind, release the
                // orphaned units so the other workers can still reach
                // quiescence, and re-raise — `run` then propagates the panic
                // instead of deadlocking in the thread scope.
                let mut completed = 0usize;
                // `spawned[..counted]` are the completed tasks' spawns: each
                // holds a unit, and they wait there for the batch to end.
                let mut counted = 0usize;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for (deadline, task) in batch.drain(..) {
                        if deadline < last_deadline {
                            inversions.record(last_deadline - deadline);
                        }
                        last_deadline = deadline;
                        let mut ctx = TaskCtx {
                            worker,
                            deadline,
                            spawned: &mut spawned,
                        };
                        handler(&mut state, &mut ctx, deadline, task);
                        report.executed += 1;
                        // The parent's unit passes to its spawns: count the
                        // extra ones before any of them can be popped, and
                        // release the unit only if there is no spawn to
                        // carry it.
                        let k = (spawned.len() - counted) as u64;
                        report.spawned += k;
                        if k >= 2 {
                            self.quiescence.pending.fetch_add(k - 1, Ordering::SeqCst);
                        }
                        if k == 0 {
                            self.quiescence.pending.fetch_sub(1, Ordering::SeqCst);
                        }
                        counted = spawned.len();
                        completed += 1;
                    }
                }));
                if let Err(payload) = outcome {
                    // The panicking task plus every undrained batch entry
                    // (discarded by the Drain drop) still hold one unit
                    // each; the panicking task's spawns were never counted,
                    // while the completed tasks' spawns are and must run.
                    let orphaned = (popped - completed) as u64;
                    spawned.truncate(counted);
                    handle.insert_all(&mut spawned);
                    self.quiescence
                        .pending
                        .fetch_sub(orphaned, Ordering::SeqCst);
                    std::panic::resume_unwind(payload);
                }
                // One publication per batch, one lock per drawn lane.
                handle.insert_all(&mut spawned);
                continue;
            }
            // Empty poll. Only a quiescent-empty observation (not a lost
            // contention race) may consult the termination condition; the
            // ordering sources-then-pending makes the conjunction stable
            // (module docs).
            let observed_empty = handle.stats().empty_polls > empty_polls_before;
            if observed_empty
                && self.quiescence.sources.load(Ordering::SeqCst) == 0
                && self.quiescence.pending.load(Ordering::SeqCst) == 0
            {
                if let Some(hub) = &self.obs {
                    hub.recorder().record(
                        EventKind::Quiescence,
                        "sched",
                        [worker as u64, report.executed, 0],
                    );
                    hub.metrics()
                        .counter("sched_tasks_executed_total", &[])
                        .add(report.executed);
                    hub.metrics()
                        .counter("sched_backoff_waits_total", &[])
                        .add(report.backoff_waits);
                }
                break;
            }
            idle_polls += 1;
            report.backoff_waits += 1;
            match idle_wait(idle_polls) {
                None => std::thread::yield_now(),
                Some(sleep) => std::thread::sleep(sleep),
            }
        }
        report.stats = handle.stats();
        (report, inversions, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choice_pq::{MultiQueue, MultiQueueConfig};

    fn queue(workers: usize, seed: u64) -> MultiQueue<u64> {
        MultiQueue::new(MultiQueueConfig::for_threads(workers).with_seed(seed))
    }

    #[test]
    fn runs_to_quiescence_without_any_tasks() {
        let q = queue(2, 1);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2));
        let (report, _) = sched.run_simple(|_, _, _| {});
        assert_eq!(report.executed, 0);
        assert!(report.empty_polls() >= 2, "each worker observed emptiness");
    }

    #[test]
    fn executes_seeded_and_spawned_tasks_exactly_once() {
        let q = queue(2, 2);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2).with_delete_batch(4));
        {
            let mut seeder = sched.injector();
            for i in 0..500u64 {
                seeder.inject(i, i);
            }
            assert_eq!(seeder.injected(), 500);
        }
        // Every task with value < 500 spawns two children.
        let (report, _) = sched.run_simple(|ctx, d, v| {
            if v < 500 {
                ctx.spawn(d + 10_000, 1_000 + v);
                ctx.spawn(d + 20_000, 2_000 + v);
            }
        });
        assert_eq!(report.spawned, 1_000);
        assert_eq!(report.executed, 1_500);
        assert!(q.is_empty());
        let per_worker: u64 = report.workers.iter().map(|w| w.executed).sum();
        assert_eq!(per_worker, 1_500);
    }

    #[test]
    fn injection_concurrent_with_execution_terminates() {
        let q = queue(2, 3);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2));
        let (report, _) = std::thread::scope(|scope| {
            let mut injector = sched.injector();
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    injector.inject(i, i);
                    if i % 256 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            sched.run_simple(|_, _, _| {})
        });
        assert_eq!(report.executed, 2_000);
        assert!(q.is_empty());
    }

    #[test]
    fn inversions_are_recorded_for_relaxed_pops() {
        // Single-choice (maximally relaxed) with several lanes and one
        // worker: deadline inversions are essentially guaranteed.
        let q =
            MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_beta(0.0).with_seed(5));
        let sched = Scheduler::new(&q, SchedulerConfig::new(1));
        {
            let mut seeder = sched.injector();
            for i in 0..2_000u64 {
                seeder.inject(i, i);
            }
        }
        let (report, _) = sched.run_simple(|_, _, _| {});
        assert_eq!(report.executed, 2_000);
        assert!(
            report.inversions.count() > 0,
            "single-choice pops must show deadline inversions"
        );
    }

    #[test]
    fn per_worker_state_is_threaded_through() {
        let q = queue(2, 6);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2));
        {
            let mut seeder = sched.injector();
            for i in 0..100u64 {
                seeder.inject(i, i);
            }
        }
        let (report, sums) = sched.run(|_worker| 0u64, |sum, _ctx, _deadline, task| *sum += task);
        assert_eq!(report.executed, 100);
        assert_eq!(sums.iter().sum::<u64>(), (0..100u64).sum());
    }

    #[test]
    #[should_panic(expected = "scheduler worker panicked")]
    fn handler_panic_propagates_instead_of_hanging() {
        let q = queue(2, 8);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2).with_delete_batch(4));
        {
            let mut seeder = sched.injector();
            for i in 0..100u64 {
                seeder.inject(i, i);
            }
        }
        // One task blows up mid-batch (possibly with spawns already
        // registered); run must re-raise the panic, not deadlock waiting
        // for the orphaned pending units.
        let _ = sched.run_simple(|ctx, d, v| {
            if v == 40 {
                ctx.spawn(d + 1_000, 10_000);
                panic!("task handler exploded");
            }
        });
    }

    #[test]
    fn a_panicking_task_still_publishes_its_batch_mates_spawns() {
        // One lane and one worker: the batch is tasks 0..4 in order. Tasks
        // 0..3 finish with one counted spawn each, held for the batch's
        // end; task 3 spawns and panics. The held spawns must reach the
        // queue, the panicking task's uncounted one must not.
        let q = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(1).with_seed(10));
        let sched = Scheduler::new(&q, SchedulerConfig::new(1).with_delete_batch(4));
        {
            let mut seeder = sched.injector();
            for i in 0..4u64 {
                seeder.inject(i, i);
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.run_simple(|ctx, d, v| {
                ctx.spawn(d + 100, 100 + v);
                if v == 3 {
                    panic!("task handler exploded");
                }
            })
        }));
        assert!(outcome.is_err(), "the handler's panic propagates");
        let mut h = q.register();
        let mut left = Vec::new();
        while let Some((_, v)) = h.delete_min() {
            left.push(v);
        }
        assert_eq!(left, vec![100, 101, 102]);
    }

    #[test]
    fn idle_backoff_yields_eight_times_then_sleeps_doubling_to_two_ms() {
        for attempt in 1..=8 {
            assert_eq!(idle_wait(attempt), None, "attempt {attempt} only yields");
        }
        let sleeps: Vec<u64> = (9..=16)
            .map(|attempt| idle_wait(attempt).unwrap().as_micros() as u64)
            .collect();
        assert_eq!(sleeps, [20, 40, 80, 160, 320, 640, 1280, 2000]);
        for attempt in [17, 60, u32::MAX] {
            assert_eq!(idle_wait(attempt), Some(Duration::from_millis(2)));
        }
    }

    #[test]
    fn quiescence_transitions_reach_the_flight_recorder() {
        let hub = ObsHub::new();
        let q = queue(2, 9);
        let sched = Scheduler::new(&q, SchedulerConfig::new(2)).with_obs(Arc::clone(&hub));
        {
            let mut seeder = sched.injector();
            for i in 0..50u64 {
                seeder.inject(i, i);
            }
        }
        let (report, _) = sched.run_simple(|_, _, _| {});
        assert_eq!(report.executed, 50);
        let quiesced: Vec<_> = hub
            .recorder()
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Quiescence)
            .collect();
        assert_eq!(quiesced.len(), 2, "one transition per worker");
        let mut workers: Vec<u64> = quiesced.iter().map(|e| e.fields[0]).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1]);
        assert_eq!(
            quiesced.iter().map(|e| e.fields[1]).sum::<u64>(),
            50,
            "executed counts in the events sum to the report"
        );
        let snap = hub.metrics().snapshot();
        assert_eq!(snap.counter("sched_tasks_executed_total", &[]), Some(50));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = SchedulerConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "delete batch must be positive")]
    fn zero_delete_batch_rejected() {
        let _ = SchedulerConfig::new(1).with_delete_batch(0);
    }
}
