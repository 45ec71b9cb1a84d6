//! choice-check: a deterministic-interleaving explorer (loom-lite).
//!
//! Concurrency arguments in this workspace — count-based quiescence
//! termination, mirrored credit windows, the flight recorder's seqlock
//! slots — were hand-argued prose. This crate mechanically checks such protocols:
//! a *model* (a closure using [`spawn`], [`sync::Mutex`], and the
//! [`sync`] atomics) is executed under **every** interleaving of its
//! schedule points (bounded DFS), or under a seeded sample of random
//! interleavings, with at most one virtual thread running at a time. A
//! failing exploration reports a comma-separated **schedule string** (and
//! the seed, for random exploration) that [`replay`] reproduces
//! deterministically.
//!
//! # Schedule model
//!
//! A schedule point is inserted *before* every shared-memory effect: each
//! atomic access, each mutex acquisition attempt, each [`spawn`], and each
//! explicit [`spin`]. Between two schedule points a virtual thread runs
//! uninterrupted, so purely thread-local work contributes nothing to the
//! state space. Only sequentially-consistent executions are explored
//! (orderings are strengthened to `SeqCst` under the explorer); weak-memory
//! reorderings are out of scope. See DESIGN.md §9 for what this does and
//! does not prove.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use choice_check as check;
//! use check::sync::{AtomicU64, Ordering};
//!
//! // Exhaustively checked: fetch_add is a single atomic step.
//! check::model(|| {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             check::spawn(move || {
//!                 n.fetch_add(1, Ordering::SeqCst);
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join();
//!     }
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod sync;

use std::fmt;
use std::sync::{Arc, Mutex as StdMutex, PoisonError};

use exec::{current, RunOutcome, Status, Wait};

/// How many trace events a [`Failure`] keeps for display.
const SHOWN_TRACE: usize = 24;

// ---------------------------------------------------------------------------
// Thread API
// ---------------------------------------------------------------------------

/// Handle to a spawned thread; virtual under exploration, real otherwise.
pub struct JoinHandle<T> {
    virt: Option<(Arc<exec::Execution>, usize)>,
    real: Option<std::thread::JoinHandle<T>>,
    slot: Option<Arc<StdMutex<Option<T>>>>,
}

/// Spawns a thread. Inside a model this registers a *virtual* thread whose
/// steps the explorer schedules (and is itself a schedule point); outside,
/// it is a plain `std::thread::spawn`.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if let Some((exec, tid)) = current() {
        let slot = Arc::new(StdMutex::new(None));
        let out = Arc::clone(&slot);
        let child = exec.spawn_thread(Box::new(move || {
            let value = f();
            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        }));
        exec.park(tid, Wait::Ready); // spawning is a schedule point
        JoinHandle {
            virt: Some((exec, child)),
            real: None,
            slot: Some(slot),
        }
    } else {
        JoinHandle {
            virt: None,
            real: Some(std::thread::spawn(f)),
            slot: None,
        }
    }
}

impl<T> JoinHandle<T> {
    /// Waits (virtually, under exploration) for the thread to finish and
    /// returns its value.
    ///
    /// # Panics
    ///
    /// Panics if the joined thread panicked.
    pub fn join(mut self) -> T {
        if let Some((exec, target)) = self.virt.take() {
            let (_, me) = current().expect("join must be called from a virtual thread");
            loop {
                {
                    let s = exec.st();
                    if s.status[target] == Status::Finished {
                        break;
                    }
                }
                exec.park(me, Wait::Join(target));
            }
            self.slot
                .take()
                .expect("virtual join handle has a result slot")
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("joined virtual thread produced no value")
        } else {
            self.real
                .take()
                .expect("join handle already consumed")
                .join()
                .expect("spawned thread panicked")
        }
    }
}

/// An explicit schedule point: under exploration, parks the calling virtual
/// thread so any other thread may be scheduled; outside, a spin-loop hint.
/// Use inside model polling loops in place of `std::hint::spin_loop`.
pub fn spin() {
    if let Some((exec, tid)) = current() {
        exec.park(tid, Wait::Ready);
    } else {
        std::hint::spin_loop();
    }
}

/// Alias for [`spin`] matching `std::thread::yield_now` call sites.
pub fn yield_now() {
    if let Some((exec, tid)) = current() {
        exec.park(tid, Wait::Ready);
    } else {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Exploration API
// ---------------------------------------------------------------------------

/// Schedule-search strategy.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Depth-first enumeration of every interleaving (stateless
    /// backtracking), stopping at the schedule budget if not exhausted.
    Dfs,
    /// Independent uniformly-random schedules derived from `seed`; the
    /// failing schedule's per-execution seed is reported on failure.
    Random {
        /// Base seed; execution `i` uses a value mixed from `(seed, i)`.
        seed: u64,
    },
}

/// Exploration limits and strategy.
#[derive(Clone, Debug)]
pub struct Config {
    /// The search strategy.
    pub strategy: Strategy,
    /// Maximum number of complete executions to run.
    pub max_schedules: u64,
    /// Per-execution schedule-step bound (livelock guard).
    pub max_steps: u64,
    /// Maximum live virtual threads per execution.
    pub max_threads: usize,
    /// If set, bounds the number of *preemptions* (switching away from a
    /// still-runnable thread) per execution, à la CHESS. `None` explores
    /// unrestricted.
    pub preemption_bound: Option<usize>,
}

impl Config {
    /// DFS exploration with the given schedule budget and defaults
    /// (50 000 steps per execution, 8 threads, no preemption bound).
    pub fn dfs(max_schedules: u64) -> Self {
        Self {
            strategy: Strategy::Dfs,
            max_schedules,
            max_steps: 50_000,
            max_threads: 8,
            preemption_bound: None,
        }
    }

    /// Bounded-random exploration: `max_schedules` independent executions
    /// seeded from `seed`.
    pub fn random(max_schedules: u64, seed: u64) -> Self {
        Self {
            strategy: Strategy::Random { seed },
            ..Self::dfs(max_schedules)
        }
    }
}

/// Summary of a completed (failure-free) exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions run.
    pub schedules: u64,
    /// Whether DFS exhausted the interleaving space (always `false` for
    /// random exploration).
    pub exhausted: bool,
    /// Deepest schedule (most decisions) seen in any execution.
    pub max_depth: usize,
}

/// A failing execution: the property violation plus everything needed to
/// reproduce it deterministically.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The panic message, deadlock description, or bound violation.
    pub message: String,
    /// Comma-separated chosen thread ids — feed to [`replay`].
    pub schedule: String,
    /// The per-execution seed, for [`Strategy::Random`] failures.
    pub seed: Option<u64>,
    /// Executions run up to and including the failing one.
    pub schedules_explored: u64,
    /// Recent shared-memory events (lock acquisition order and the like).
    pub trace: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model check failed after {} schedule(s): {}",
            self.schedules_explored, self.message
        )?;
        writeln!(
            f,
            "  schedule: \"{}\"  (reproduce with check::replay(\"{}\", || ...))",
            self.schedule, self.schedule
        )?;
        if let Some(seed) = self.seed {
            writeln!(f, "  seed: {:#018x} (bounded-random exploration)", seed)?;
        }
        if !self.trace.is_empty() {
            writeln!(f, "  last shared-memory events:")?;
            let skip = self.trace.len().saturating_sub(SHOWN_TRACE);
            for ev in &self.trace[skip..] {
                writeln!(f, "    {ev}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for Failure {}

/// The schedule budget for [`model`]-style entry points: the
/// `CHECK_SCHEDULES` environment variable, or `default` when it is unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is not a
/// `u64`: `CHECK_SCHEDULES=400k` is a typo, not a request for the default
/// budget.
pub fn schedule_budget(default: u64) -> u64 {
    let value = std::env::var_os("CHECK_SCHEDULES").map(|v| v.to_string_lossy().into_owned());
    parse_budget(value.as_deref(), default)
}

/// [`schedule_budget`] with the variable's value passed in.
fn parse_budget(value: Option<&str>, default: u64) -> u64 {
    value.map_or(default, |v| {
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHECK_SCHEDULES={v:?} is not a u64"))
    })
}

/// Explores `f` under `config`, returning the failing execution if any
/// interleaving violates a property (panics, deadlocks, or exceeds the step
/// bound).
///
/// `f` is run once per schedule and must build its shared state afresh each
/// call; beyond schedule choice it must be deterministic.
pub fn explore(config: Config, f: impl Fn() + Send + Sync + 'static) -> Result<Report, Failure> {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    match config.strategy {
        Strategy::Dfs => explore_dfs(&config, &f),
        Strategy::Random { seed } => explore_random(&config, &f, seed),
    }
}

/// The model-harness entry point: DFS exploration with a default budget of
/// 4096 schedules (override with `CHECK_SCHEDULES`), panicking with the
/// replayable [`Failure`] on any violation.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    let budget = schedule_budget(4096);
    if let Err(failure) = explore(Config::dfs(budget), f) {
        panic!("{failure}");
    }
}

/// Like [`model`], but with an explicit [`Config`] (e.g. bounded-random for
/// models whose DFS space is unbounded).
pub fn model_with(config: Config, f: impl Fn() + Send + Sync + 'static) {
    if let Err(failure) = explore(config, f) {
        panic!("{failure}");
    }
}

/// Re-runs `f` under exactly the given schedule (as printed by a
/// [`Failure`]): decision `i` hands the token to the `i`-th listed thread
/// id. Returns the reproduced failure, `Ok(())` if the schedule completes
/// cleanly, or a "schedule diverged" failure if the model no longer matches
/// the recording.
pub fn replay(schedule: &str, f: impl Fn() + Send + Sync + 'static) -> Result<(), Failure> {
    let choices: Vec<usize> = schedule
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("schedule strings are comma-separated thread ids")
        })
        .collect();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut pos = 0usize;
    let outcome = exec::run_once(&f, 1_000_000, 64, &mut |runnable, _| {
        let &chosen = choices.get(pos)?;
        pos += 1;
        runnable.contains(&chosen).then_some(chosen)
    });
    match outcome.failure {
        None => Ok(()),
        Some(message) => Err(Failure {
            message,
            schedule: schedule.to_string(),
            seed: None,
            schedules_explored: 1,
            trace: outcome.trace,
        }),
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// The choices a thread may be handed the token for, under an optional
/// preemption bound: once the bound is spent, the previously-running thread
/// keeps running as long as it stays runnable.
fn allowed_choices(
    runnable: &[usize],
    prev: Option<usize>,
    preemptions: usize,
    bound: Option<usize>,
) -> Vec<usize> {
    if let (Some(b), Some(p)) = (bound, prev) {
        if preemptions >= b && runnable.contains(&p) {
            return vec![p];
        }
    }
    runnable.to_vec()
}

fn is_preemption(chosen: usize, prev: Option<usize>, runnable: &[usize]) -> bool {
    matches!(prev, Some(p) if chosen != p && runnable.contains(&p))
}

fn schedule_string(schedule: &[usize]) -> String {
    let ids: Vec<String> = schedule.iter().map(|t| t.to_string()).collect();
    ids.join(",")
}

fn failure_from(
    message: String,
    outcome: &RunOutcome,
    schedules_explored: u64,
    seed: Option<u64>,
) -> Failure {
    Failure {
        message,
        schedule: schedule_string(&outcome.schedule),
        seed,
        schedules_explored,
        trace: outcome.trace.clone(),
    }
}

fn explore_dfs(cfg: &Config, f: &Arc<dyn Fn() + Send + Sync>) -> Result<Report, Failure> {
    // `prefix[i]` is the index (within the allowed set) to take at decision
    // depth `i`; depths beyond the prefix take index 0. Backtracking bumps
    // the deepest bumpable index and truncates.
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0u64;
    let mut max_depth = 0usize;
    loop {
        let mut pos = 0usize;
        let mut preemptions = 0usize;
        // (chosen index, allowed-set size) per decision of this execution.
        let mut taken: Vec<(usize, usize)> = Vec::new();
        let mut nondet = false;
        let outcome = exec::run_once(f, cfg.max_steps, cfg.max_threads, &mut |runnable, prev| {
            let allowed = allowed_choices(runnable, prev, preemptions, cfg.preemption_bound);
            let idx = if pos < prefix.len() { prefix[pos] } else { 0 };
            pos += 1;
            let Some(&chosen) = allowed.get(idx) else {
                nondet = true;
                return None;
            };
            taken.push((idx, allowed.len()));
            if is_preemption(chosen, prev, runnable) {
                preemptions += 1;
            }
            Some(chosen)
        });
        schedules += 1;
        max_depth = max_depth.max(outcome.schedule.len());
        if nondet {
            return Err(failure_from(
                "nondeterministic model: an earlier runnable set shrank on re-execution \
                 (models must be deterministic apart from schedule choice)"
                    .to_string(),
                &outcome,
                schedules,
                None,
            ));
        }
        if let Some(message) = outcome.failure.clone() {
            return Err(failure_from(message, &outcome, schedules, None));
        }
        // Backtrack: bump the deepest decision with an unexplored sibling.
        while let Some(&(idx, len)) = taken.last() {
            if idx + 1 < len {
                break;
            }
            taken.pop();
        }
        let Some(last) = taken.last_mut() else {
            return Ok(Report {
                schedules,
                exhausted: true,
                max_depth,
            });
        };
        last.0 += 1;
        prefix = taken.iter().map(|&(idx, _)| idx).collect();
        if schedules >= cfg.max_schedules {
            return Ok(Report {
                schedules,
                exhausted: false,
                max_depth,
            });
        }
    }
}

fn explore_random(
    cfg: &Config,
    f: &Arc<dyn Fn() + Send + Sync>,
    seed: u64,
) -> Result<Report, Failure> {
    let mut max_depth = 0usize;
    for i in 0..cfg.max_schedules {
        let exec_seed = mix(seed, i);
        let mut rng = SplitMix64(exec_seed);
        let mut preemptions = 0usize;
        let outcome = exec::run_once(f, cfg.max_steps, cfg.max_threads, &mut |runnable, prev| {
            let allowed = allowed_choices(runnable, prev, preemptions, cfg.preemption_bound);
            let chosen = allowed[(rng.next() % allowed.len() as u64) as usize];
            if is_preemption(chosen, prev, runnable) {
                preemptions += 1;
            }
            Some(chosen)
        });
        max_depth = max_depth.max(outcome.schedule.len());
        if let Some(message) = outcome.failure.clone() {
            return Err(failure_from(message, &outcome, i + 1, Some(exec_seed)));
        }
    }
    Ok(Report {
        schedules: cfg.max_schedules,
        exhausted: false,
        max_depth,
    })
}

/// SplitMix64 — the workspace's stock tiny deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn mix(seed: u64, i: u64) -> u64 {
    SplitMix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next()
}

// ---------------------------------------------------------------------------
// Self-tests: the explorer must find classic bugs and miss correct code.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Mutex, Ordering};
    use super::*;

    /// Two threads doing a split load-then-store increment lose an update
    /// under some interleaving.
    fn lost_update_model() {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn schedule_budget_reads_an_unset_or_a_valid_value() {
        // Through the pure core: setting the variable would race the
        // parallel tests that read it.
        assert_eq!(parse_budget(None, 4096), 4096);
        assert_eq!(parse_budget(Some("400000"), 4096), 400_000);
        assert_eq!(parse_budget(Some(" 7 "), 4096), 7);
    }

    #[test]
    #[should_panic(expected = "CHECK_SCHEDULES=\"400k\" is not a u64")]
    fn schedule_budget_refuses_a_malformed_value() {
        parse_budget(Some("400k"), 4096);
    }

    #[test]
    fn dfs_finds_the_lost_update_and_replay_reproduces_it() {
        let failure = explore(Config::dfs(10_000), lost_update_model)
            .expect_err("the split increment must lose an update under DFS");
        assert!(
            failure.message.contains("lost update"),
            "got: {}",
            failure.message
        );
        assert!(!failure.schedule.is_empty());
        // The printed schedule reproduces the same failure, twice.
        for _ in 0..2 {
            let replayed = replay(&failure.schedule, lost_update_model)
                .expect_err("replaying the failing schedule must fail again");
            assert_eq!(replayed.message, failure.message);
        }
    }

    #[test]
    fn random_exploration_finds_the_lost_update_with_a_seed() {
        let failure = explore(Config::random(512, 0x5EED), lost_update_model)
            .expect_err("the split increment must lose an update under random search");
        assert!(failure.seed.is_some());
        let replayed =
            replay(&failure.schedule, lost_update_model).expect_err("schedule must replay");
        assert_eq!(replayed.message, failure.message);
    }

    #[test]
    fn atomic_increment_survives_exhaustive_dfs() {
        let report = explore(Config::dfs(100_000), || {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2);
        })
        .expect("fetch_add is atomic; no interleaving can fail");
        assert!(report.exhausted, "tiny model must be fully explored");
        assert!(report.schedules > 1, "there is more than one interleaving");
    }

    #[test]
    fn mutex_protects_the_split_increment() {
        let report = explore(Config::dfs(100_000), || {
            let n = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    spawn(move || {
                        let mut g = n.lock();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*n.lock(), 2);
        })
        .expect("the lock serialises the increments");
        assert!(report.exhausted);
    }

    #[test]
    fn ab_ba_lock_order_deadlocks_and_is_reported() {
        let model = || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = spawn(move || {
                let _gb = b3.lock();
                let _ga = a3.lock();
            });
            t1.join();
            t2.join();
        };
        let failure = explore(Config::dfs(10_000), model)
            .expect_err("AB/BA ordering must deadlock under some schedule");
        assert!(
            failure.message.contains("deadlock"),
            "got: {}",
            failure.message
        );
        // The acquisition order that led here was recorded.
        assert!(failure.trace.iter().any(|e| e.contains("acquired")));
        let replayed = replay(&failure.schedule, model).expect_err("deadlock must replay");
        assert!(replayed.message.contains("deadlock"));
    }

    #[test]
    fn try_lock_never_deadlocks_the_ab_ba_order() {
        let report = explore(Config::dfs(50_000), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.try_lock(); // back off instead of blocking
            });
            let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
            let t2 = spawn(move || {
                let _gb = b3.lock();
                let _ga = a3.try_lock();
            });
            t1.join();
            t2.join();
        })
        .expect("try_lock backs off; no schedule can deadlock");
        assert!(report.exhausted);
    }

    #[test]
    fn step_bound_catches_unbounded_loops() {
        let failure = explore(
            Config {
                max_steps: 200,
                ..Config::dfs(4)
            },
            || loop {
                spin();
            },
        )
        .expect_err("an infinite spin must hit the step bound");
        assert!(
            failure.message.contains("step bound"),
            "got: {}",
            failure.message
        );
    }

    #[test]
    fn replay_reports_divergence_on_a_stale_schedule() {
        // A schedule recorded for some other model: thread 3 never exists.
        let err = replay("0,3,1", lost_update_model).expect_err("divergence");
        assert!(err.message.contains("diverged"), "got: {}", err.message);
    }

    #[test]
    fn wrappers_pass_through_outside_a_model() {
        let n = AtomicU64::new(41);
        assert_eq!(n.fetch_add(1, Ordering::Relaxed), 41);
        assert_eq!(n.load(Ordering::Acquire), 42);
        let m = Mutex::new(7);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "real lock is held");
        }
        assert_eq!(*m.try_lock().unwrap(), 8);
        assert_eq!(m.into_inner(), 8);
        let h = spawn(|| 5u32);
        assert_eq!(h.join(), 5);
    }

    #[test]
    fn preemption_bound_zero_still_runs_to_completion() {
        let report = explore(
            Config {
                preemption_bound: Some(0),
                ..Config::dfs(1_000)
            },
            lost_update_model,
        )
        .expect("with zero preemptions each thread runs to completion: no lost update");
        assert!(report.schedules >= 1);
    }
}
