//! Integration tests for the `choice-sched` subsystem: exactly-once
//! execution across every backend, termination under the Appendix C
//! stalled-worker pathology, deterministic single-worker replay, and
//! conservation under random spawn trees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use power_of_choice::prelude::*;
use proptest::prelude::*;

/// The four structures the paper compares, type-erased so one scheduler
/// drives them all.
fn backends(workers: usize, seed: u64) -> Vec<Arc<dyn DynSharedPq<u64>>> {
    vec![
        Arc::new(MultiQueue::new(
            MultiQueueConfig::for_threads(workers).with_seed(seed),
        )),
        Arc::new(CoarseHeap::new()),
        Arc::new(SkipListQueue::with_seed(seed)),
        Arc::new(KLsmQueue::new(
            KLsmConfig::for_threads(workers).with_relaxation(64),
        )),
    ]
}

/// Every backend executes every seeded and every spawned task exactly once,
/// at 4 and at 8 workers (oversubscribed on small machines — exactly the
/// regime where lost wakeups or premature termination would show).
#[test]
fn exactly_once_execution_across_all_backends() {
    let initial = 2_000u64;
    for workers in [4usize, 8] {
        for queue in backends(workers, 99) {
            let name = queue.name();
            let sched = Scheduler::new(&*queue, SchedulerConfig::new(workers).with_delete_batch(4));
            let next_id = AtomicU64::new(initial);
            {
                let mut seeder = sched.injector();
                for id in 0..initial {
                    seeder.inject(id, id);
                }
            }
            // Seeded tasks divisible by 10 spawn two children; children
            // (ids >= initial) never spawn, so the tree is bounded.
            let (report, worker_ids) = sched.run(
                |_| Vec::new(),
                |ids: &mut Vec<u64>, ctx, deadline, id| {
                    ids.push(id);
                    if id < initial && id % 10 == 0 {
                        for _ in 0..2 {
                            let child = next_id.fetch_add(1, Ordering::Relaxed);
                            ctx.spawn(deadline + 10_000, child);
                        }
                    }
                },
            );
            let total = next_id.load(Ordering::Relaxed);
            assert_eq!(report.executed, total, "{name} at {workers} workers");
            assert_eq!(report.spawned, total - initial, "{name}");
            let mut ids: Vec<u64> = worker_ids.into_iter().flatten().collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0..total).collect();
            assert_eq!(
                ids, expected,
                "{name} at {workers} workers must run every id exactly once"
            );
            assert!(queue.is_empty(), "{name} left tasks behind");
            // Termination requires each worker to have actually observed
            // emptiness (the empty_polls counter, not a contention race).
            assert!(
                report.empty_polls() >= workers as u64,
                "{name}: every worker must observe quiescent emptiness"
            );
        }
    }
}

/// Appendix C pathology at the scheduler layer: a stalled thread holds a
/// lane lock while the pool runs. Operations route around the hostage lane
/// (or block briefly on the steal path), and the termination detector must
/// neither fire early nor hang — every task still runs exactly once.
#[test]
fn terminates_with_a_stalled_worker_holding_a_lane_lock() {
    let queue = MultiQueue::<u64>::new(MultiQueueConfig::for_threads(4).with_seed(17));
    let sched = Scheduler::new(&queue, SchedulerConfig::new(4));
    {
        let mut seeder = sched.injector();
        for id in 0..5_000u64 {
            seeder.inject(id, id);
        }
    }
    let (report, worker_ids) = std::thread::scope(|scope| {
        scope.spawn(|| {
            queue.with_lane_locked(0, || {
                std::thread::sleep(Duration::from_millis(100));
            })
        });
        sched.run(
            |_| Vec::new(),
            |ids: &mut Vec<u64>, _ctx, _deadline, id| ids.push(id),
        )
    });
    assert_eq!(report.executed, 5_000);
    let mut ids: Vec<u64> = worker_ids.into_iter().flatten().collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..5_000u64).collect::<Vec<_>>());
    assert!(queue.is_empty());
}

/// A single worker over a seeded MultiQueue replays exactly: same seed and
/// registration order ⇒ same handle RNG streams ⇒ same pop sequence ⇒ same
/// execution order, spawns included.
#[test]
fn deterministic_single_worker_replay() {
    let run_once = || {
        let queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_seed(12345));
        let sched = Scheduler::new(&queue, SchedulerConfig::new(1).with_delete_batch(3));
        {
            let mut seeder = sched.injector();
            for id in 0..3_000u64 {
                seeder.inject(id, id);
            }
        }
        let next_id = AtomicU64::new(3_000);
        let (report, mut orders) = sched.run(
            |_| Vec::new(),
            |order: &mut Vec<u64>, ctx, deadline, id| {
                order.push(id);
                if id < 3_000 && id % 7 == 0 {
                    let child = next_id.fetch_add(1, Ordering::Relaxed);
                    ctx.spawn(deadline + 5_000, child);
                }
            },
        );
        assert_eq!(report.executed as usize, orders[0].len());
        orders.pop().unwrap()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first.len(), 3_000 + 3_000_usize.div_ceil(7));
    assert_eq!(
        first, second,
        "single-worker execution order must be a pure function of the seed"
    );
    // The order as it was when each task's spawns were inserted as soon as
    // its handler returned: publishing a batch's spawns together at the
    // batch's end keeps every spawn's lane draw, so it must not move.
    assert_eq!(
        (first.len(), fnv1a(&first)),
        (3_429, 0xef77_ceb0_4a2e_5d9e),
        "single-worker execution order moved"
    );
}

/// 64-bit FNV-1a over the ids' little-endian bytes.
fn fnv1a(ids: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for byte in id.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation under random spawn trees: each seeded task carries a
    /// depth; every task of depth > 0 spawns two children of depth - 1, so
    /// a seed of depth d contributes 2^(d+1) - 1 executions. The scheduler
    /// must execute exactly injected + spawned tasks, and that total must
    /// match the independently computed forest size.
    #[test]
    fn prop_total_executed_is_injected_plus_spawned(
        depths in proptest::collection::vec(0u64..4, 1..40),
        workers in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let queue = MultiQueue::<u64>::new(
            MultiQueueConfig::for_threads(workers).with_seed(seed),
        );
        let sched = Scheduler::new(&queue, SchedulerConfig::new(workers));
        {
            let mut seeder = sched.injector();
            for (i, &depth) in depths.iter().enumerate() {
                seeder.inject(i as u64, depth);
            }
        }
        let (report, _) = sched.run_simple(|ctx, deadline, depth| {
            if depth > 0 {
                ctx.spawn(deadline + 1_000, depth - 1);
                ctx.spawn(deadline + 1_001, depth - 1);
            }
        });
        let expected: u64 = depths.iter().map(|&d| (1u64 << (d + 1)) - 1).sum();
        prop_assert_eq!(report.executed, expected);
        prop_assert_eq!(report.executed, depths.len() as u64 + report.spawned);
        prop_assert!(queue.is_empty());
    }
}
