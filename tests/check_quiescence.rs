//! Model-checks the scheduler's count-based quiescence termination
//! (DESIGN.md §5.1, `choice_sched::scheduler`'s module docs).
//!
//! The model mirrors the protocol's seam exactly: a `pending` counter of
//! tasks injected-or-spawned but not fully executed, a `sources` counter of
//! open injectors, and the worker's termination check — empty poll, then
//! `sources == 0`, then `pending == 0`, read in that order. The invariants
//! checked under explored schedules:
//!
//! * **no early termination** — a worker that passes the check never leaves
//!   spawned-but-unexecuted work behind (`executed == total`, queue empty);
//! * **no counter underflow** — `pending` releases always match a prior
//!   increment (an underflow means some task ran while uncounted, which is
//!   exactly the state that lets the detector fire with work in flight).
//!
//! Two spawn rules are modelled. The textbook one counts every spawn
//! before its insert and releases the parent's unit after them. The
//! scheduler's own rule refines it with a credit transfer: the parent's unit
//! passes to its spawns, so a worker adds `k − 1` units before inserting
//! `k ≥ 2` spawns and releases the unit only when `k = 0`.
//!
//! A third model runs the real worker's batch shape: a batch worker pops up
//! to two tasks per poll, settles each task's unit by the credit transfer
//! as soon as the task ends, and pushes the whole batch's spawns only after
//! its last task, so counted spawns wait privately while a later task of
//! the batch releases its own unit.
//!
//! Broken variants seeded deliberately, each failing with a replayable
//! schedule: releasing the parent's `pending` unit *before* pushing its
//! spawn (counter decrement before push), inserting a task *before*
//! counting it (insert before increment on the injector path), inserting
//! transferred spawns *before* adding their `k − 1` units, and a batch
//! worker that releases each parent's unit when its task ends but counts
//! the spawns only when it publishes them.
//!
//! Liveness ("never hang on empty-pop races") is covered structurally: the
//! explorer reports a deadlock if no virtual thread can run, and workers
//! here poll with a bounded budget, so a hung detector would surface as
//! budget exhaustion in every schedule rather than termination — the
//! faithful model's explored runs do terminate (see the executed-count
//! assertions), while unfair schedules that starve a worker are legal and
//! simply end its budget.

use std::sync::Arc;

use check::sync::{AtomicU64, Mutex, Ordering};
use choice_check as check;

/// Which protocol steps the model performs faithfully.
#[derive(Clone, Copy)]
struct Variant {
    /// Increment `pending` before inserting the task (the real injector).
    /// `false` is the insert-before-count bug.
    count_before_insert: bool,
    /// Textbook rule: release the parent's `pending` unit only after its
    /// spawns are counted and pushed. `true` is the decrement-before-push
    /// bug.
    release_parent_before_spawn: bool,
    /// Use the credit transfer (the real worker) instead of the textbook
    /// rule.
    credit_transfer: bool,
    /// Credit transfer: add the `k − 1` extra units before inserting the
    /// spawns (the real worker). `false` is the insert-before-count bug.
    count_transfer_before_insert: bool,
    /// Children the injected task spawns.
    children: u64,
}

/// The textbook rule, faithfully; the injected task spawns one child.
const FAITHFUL: Variant = Variant {
    count_before_insert: true,
    release_parent_before_spawn: false,
    credit_transfer: false,
    count_transfer_before_insert: true,
    children: 1,
};

/// The scheduler's credit transfer, faithfully; the injected task spawns
/// two children, so the transfer has a `k − 1` to count.
const TRANSFER: Variant = Variant {
    credit_transfer: true,
    children: 2,
    ..FAITHFUL
};

/// Children of the batch model's two parents, in injection order. The bag
/// pops its newest task first, so a worker that pops both runs the
/// two-spawn parent first and then releases the childless one's unit
/// while holding the first one's spawns.
const BATCH_PARENTS: [u64; 2] = [0, 2];

/// The scheduler seam: task bag + quiescence counters. A task's payload is
/// how many children it spawns when executed.
struct Sched {
    queue: Mutex<Vec<u64>>,
    pending: AtomicU64,
    sources: AtomicU64,
    executed: AtomicU64,
    /// Tasks that will ever exist (injected + spawned), known statically.
    total: u64,
}

impl Sched {
    fn new(total: u64) -> Self {
        Self {
            queue: Mutex::new(Vec::new()),
            pending: AtomicU64::new(0),
            sources: AtomicU64::new(1), // one open injector
            executed: AtomicU64::new(0),
            total,
        }
    }
}

/// The injector: one parent task per entry of `parents` (its child
/// count), then close the source (mirrors `Injector::inject` + `Drop`).
fn injector(s: &Sched, variant: Variant, parents: &[u64]) {
    for &children in parents {
        if variant.count_before_insert {
            s.pending.fetch_add(1, Ordering::SeqCst);
            s.queue.lock().push(children);
        } else {
            s.queue.lock().push(children);
            s.pending.fetch_add(1, Ordering::SeqCst);
        }
    }
    s.sources.fetch_sub(1, Ordering::SeqCst);
}

/// Releases one `pending` unit, asserting it matches a prior increment.
fn release_pending(s: &Sched) {
    let prev = s.pending.fetch_sub(1, Ordering::SeqCst);
    assert!(prev > 0, "pending underflow: a task ran while uncounted");
}

/// Settles a finished task's unit under the credit transfer: the parent's
/// unit covers one spawn, `k − 1` more are added, and the unit is released
/// only when there is no spawn to carry it (mirrors the worker loop in
/// `choice_sched::scheduler`).
fn settle(s: &Sched, children: u64) {
    if children >= 2 {
        s.pending.fetch_add(children - 1, Ordering::SeqCst);
    }
    if children == 0 {
        release_pending(s);
    }
}

/// Settles a finished task's unit and pushes its spawns, settling first
/// unless `variant` seeds the insert-before-count bug.
fn transfer(s: &Sched, variant: Variant, children: u64) {
    let count_first = variant.count_transfer_before_insert;
    if count_first {
        settle(s, children);
    }
    for _ in 0..children {
        s.queue.lock().push(0);
    }
    if !count_first {
        settle(s, children);
    }
}

/// The detector on an empty poll: sources, then pending, SeqCst, in order.
/// Returns whether it fired, asserting that nothing was left behind.
fn detects_termination(s: &Sched) -> bool {
    if s.sources.load(Ordering::SeqCst) == 0 && s.pending.load(Ordering::SeqCst) == 0 {
        assert_eq!(
            s.executed.load(Ordering::SeqCst),
            s.total,
            "terminated with work in flight"
        );
        assert!(s.queue.lock().is_empty(), "terminated with queued tasks");
        return true;
    }
    false
}

/// One worker: poll, execute (spawning children), settle the parent's
/// unit; on an empty poll consult the termination detector. `budget`
/// bounds the empty polls so every schedule is finite.
fn worker(s: &Sched, variant: Variant, budget: u32) {
    let mut polls = 0;
    while polls < budget {
        let task = s.queue.lock().pop();
        match task {
            Some(children) if variant.credit_transfer => {
                s.executed.fetch_add(1, Ordering::SeqCst);
                transfer(s, variant, children);
            }
            Some(children) => {
                s.executed.fetch_add(1, Ordering::SeqCst);
                if variant.release_parent_before_spawn {
                    release_pending(s);
                }
                for _ in 0..children {
                    s.pending.fetch_add(1, Ordering::SeqCst);
                    s.queue.lock().push(0);
                }
                if !variant.release_parent_before_spawn {
                    release_pending(s);
                }
            }
            None => {
                polls += 1;
                if detects_termination(s) {
                    return;
                }
                check::spin();
            }
        }
    }
}

/// The batch worker (mirrors the worker loop at delete batch 2): pop up to
/// two tasks, settle each one's unit as soon as it ends, and push the
/// batch's spawns only after its last task. `count_at_publish` is the
/// broken variant: release each parent's unit when its task ends, and
/// count the spawns only when they are pushed.
fn batch_worker(s: &Sched, count_at_publish: bool, budget: u32) {
    let mut polls = 0;
    while polls < budget {
        let batch: Vec<u64> = {
            let mut queue = s.queue.lock();
            (0..2).map_while(|_| queue.pop()).collect()
        };
        if batch.is_empty() {
            polls += 1;
            if detects_termination(s) {
                return;
            }
            check::spin();
            continue;
        }
        let mut held = 0;
        for children in batch {
            s.executed.fetch_add(1, Ordering::SeqCst);
            if count_at_publish {
                release_pending(s);
            } else {
                settle(s, children);
            }
            held += children;
        }
        for _ in 0..held {
            if count_at_publish {
                s.pending.fetch_add(1, Ordering::SeqCst);
            }
            s.queue.lock().push(0);
        }
    }
}

/// One injector (1 parent → `variant.children` children) racing two
/// workers.
fn quiescence_model(variant: Variant) {
    race(variant, vec![variant.children], move |s| {
        worker(s, variant, 2)
    });
}

/// One injector ([`BATCH_PARENTS`]) racing two batch workers.
fn batch_model(count_at_publish: bool) {
    race(FAITHFUL, BATCH_PARENTS.to_vec(), move |s| {
        batch_worker(s, count_at_publish, 2)
    });
}

/// One injector of `parents` (child counts) racing two workers that run
/// `work`.
fn race(variant: Variant, parents: Vec<u64>, work: impl Fn(&Sched) + Copy + Send + 'static) {
    let total = parents.len() as u64 + parents.iter().sum::<u64>();
    let s = Arc::new(Sched::new(total));
    let si = Arc::clone(&s);
    let inj = check::spawn(move || injector(&si, variant, &parents));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let sw = Arc::clone(&s);
            check::spawn(move || work(&sw))
        })
        .collect();
    inj.join();
    for w in workers {
        w.join();
    }
    // Whatever the schedule, no task is executed twice and none vanishes
    // from the bag without being counted as executed.
    let executed = s.executed.load(Ordering::SeqCst);
    let queued = s.queue.lock().len() as u64;
    assert!(
        executed + queued <= s.total,
        "tasks duplicated: executed {executed} + queued {queued} > total {}",
        s.total
    );
}

#[test]
fn faithful_protocol_survives_preemption_bounded_dfs() {
    let budget = check::schedule_budget(4_000);
    let report = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(budget)
        },
        || quiescence_model(FAITHFUL),
    )
    .expect("the counted protocol never terminates with work in flight");
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn faithful_protocol_survives_random_schedules() {
    let budget = check::schedule_budget(800);
    check::explore(check::Config::random(budget, 0x9E3779B9), || {
        quiescence_model(FAITHFUL)
    })
    .map(|report| assert_eq!(report.schedules, budget))
    .expect("no random schedule violates quiescence");
}

#[test]
fn releasing_the_parent_before_its_spawn_terminates_early() {
    let variant = Variant {
        release_parent_before_spawn: true,
        ..FAITHFUL
    };
    let failure = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(30_000)
        },
        move || quiescence_model(variant),
    )
    .expect_err("decrement-before-push lets the detector fire with a spawn in flight");
    assert!(
        failure.message.contains("terminated with work in flight")
            || failure.message.contains("pending underflow"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || quiescence_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}

#[test]
fn inserting_before_counting_underflows_the_counter() {
    let variant = Variant {
        count_before_insert: false,
        ..FAITHFUL
    };
    let failure = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(30_000)
        },
        move || quiescence_model(variant),
    )
    .expect_err("insert-before-count lets a task run while uncounted");
    assert!(
        failure.message.contains("pending underflow")
            || failure.message.contains("terminated with work in flight"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || quiescence_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}

#[test]
fn credit_transfer_survives_preemption_bounded_dfs() {
    let budget = check::schedule_budget(4_000);
    let report = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(budget)
        },
        || quiescence_model(TRANSFER),
    )
    .expect("counting k − 1 before the inserts never terminates with work in flight");
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn inserting_transferred_spawns_before_counting_them_terminates_early() {
    let variant = Variant {
        count_transfer_before_insert: false,
        ..TRANSFER
    };
    let failure = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(30_000)
        },
        move || quiescence_model(variant),
    )
    .expect_err("a spawn popped before its unit is counted can finish on the parent's unit");
    assert!(
        failure.message.contains("pending underflow")
            || failure.message.contains("terminated with work in flight"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || quiescence_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}

#[test]
fn batch_end_publication_survives_preemption_bounded_dfs() {
    let budget = check::schedule_budget(2_000);
    let report = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(budget)
        },
        || batch_model(false),
    )
    .expect("counted spawns held until the batch ends keep pending positive");
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn batch_end_publication_survives_random_schedules() {
    let budget = check::schedule_budget(400);
    check::explore(check::Config::random(budget, 0x5EED_BA7C), || {
        batch_model(false)
    })
    .map(|report| assert_eq!(report.schedules, budget))
    .expect("no random schedule violates quiescence");
}

#[test]
fn counting_held_spawns_only_at_publication_terminates_early() {
    let failure = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(30_000)
        },
        || batch_model(true),
    )
    .expect_err("released parents with uncounted held spawns let pending read zero");
    assert!(
        failure.message.contains("terminated with work in flight")
            || failure.message.contains("pending underflow"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, || batch_model(true))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}
