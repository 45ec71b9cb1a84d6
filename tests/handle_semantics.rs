//! Integration tests for the handle-based session API itself: deterministic
//! replay, equivalence with the former instrumented wrapper type, and
//! cross-handle conservation.

use std::collections::HashSet;

use power_of_choice::prelude::*;

fn queue(queues: usize, beta: f64, seed: u64) -> MultiQueue<u64> {
    MultiQueue::new(
        MultiQueueConfig::with_queues(queues)
            .with_beta(beta)
            .with_seed(seed),
    )
}

/// Same seed + same registration order ⇒ the same handle ids, the same RNG
/// streams, and therefore the same removal sequence single-threaded. This is
/// the reproducibility contract that replaced the process-wide
/// `thread_local!` RNG (which made runs depend on which OS threads had
/// touched a queue before).
#[test]
fn deterministic_replay_across_identical_queues() {
    let runs: Vec<Vec<(u64, u64)>> = (0..2)
        .map(|_| {
            let q = queue(8, 0.75, 12345);
            let mut first = q.register();
            let mut second = q.register();
            for k in 0..2_000u64 {
                if k % 2 == 0 {
                    first.insert(k, k);
                } else {
                    second.insert(k, k);
                }
            }
            let mut removals = Vec::new();
            // Alternate sessions so both RNG streams are exercised.
            while let Some(kv) = first.delete_min() {
                removals.push(kv);
                if let Some(kv) = second.delete_min() {
                    removals.push(kv);
                }
            }
            removals
        })
        .collect();
    assert_eq!(runs[0].len(), 2_000);
    assert_eq!(runs[0], runs[1], "replay with identical seeds must match");
}

/// Different seeds give different removal orders (the streams really are
/// seed-derived, not fixed).
#[test]
fn different_seeds_give_different_orders() {
    let order = |seed: u64| {
        let q = queue(8, 1.0, seed);
        let mut h = q.register();
        for k in 0..2_000u64 {
            h.insert(k, k);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        out
    };
    assert_ne!(order(1), order(2));
}

/// Two handles on one queue never lose or duplicate elements under a
/// concurrent stress test: one session alternates `insert_all` groups of 32
/// with runs of 32 plain inserts, the other inserts one by one.
#[test]
fn two_handles_conserve_elements_under_concurrent_stress() {
    let q = queue(8, 0.5, 77);
    let per = 20_000u64;
    let removed: Vec<u64> = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut h = q.register();
            let mut group = Vec::with_capacity(32);
            let mut got = Vec::new();
            for i in 0..per {
                if (i / 32) % 2 == 0 {
                    group.push((i, i));
                    if group.len() == 32 {
                        h.insert_all(&mut group);
                    }
                } else {
                    h.insert(i, i);
                }
                if i % 2 == 1 {
                    if let Some((k, _)) = h.delete_min() {
                        got.push(k);
                    }
                }
            }
            h.insert_all(&mut group);
            got
        });
        let b = scope.spawn(|| {
            let mut h = q.register();
            let mut got = Vec::new();
            for i in per..2 * per {
                h.insert(i, i);
                if i % 2 == 0 {
                    if let Some((k, _)) = h.delete_min() {
                        got.push(k);
                    }
                }
            }
            got
        });
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all
    });
    let mut seen: HashSet<u64> = HashSet::new();
    for k in removed {
        assert!(seen.insert(k), "key {k} popped twice during stress");
    }
    let mut drainer = q.register();
    while let Some((k, _)) = drainer.delete_min() {
        assert!(seen.insert(k), "key {k} popped twice during drain");
    }
    assert_eq!(seen.len() as u64, 2 * per, "keys lost");
    assert!(q.is_empty());
}

/// Equivalence with the former `InstrumentedHandle`: instrumented sessions
/// produce one uniquely-timestamped log entry per successful removal, and
/// the merged logs reproduce the Section 5 rank statistics.
#[test]
fn instrumented_policy_reproduces_instrumented_handle_behaviour() {
    let q = queue(8, 1.0, 4);
    let threads = 4usize;
    let per = 5_000u64;
    {
        let mut loader = q.register();
        for k in 0..50_000u64 {
            loader.insert(k, k);
        }
    }
    let logs: Vec<_> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads {
            let q = &q;
            workers.push(scope.spawn(move || {
                let mut h = q.register_with(HandlePolicy::instrumented());
                for i in 0..per {
                    h.insert(50_000 + t as u64 * per + i, 0);
                    h.delete_min();
                }
                h.take_log()
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // One entry per successful removal, globally unique timestamps.
    let total: usize = logs.iter().map(|l| l.len()).sum();
    assert_eq!(total as u64, threads as u64 * per);
    let mut stamps: Vec<u64> = logs.iter().flatten().map(|r| r.timestamp).collect();
    stamps.sort_unstable();
    stamps.dedup();
    assert_eq!(stamps.len(), total, "timestamps must be globally unique");
    // And the merged logs drive the inversion counter exactly as before.
    let mut counter = InversionCounter::new();
    for log in logs {
        counter.record_all(log);
    }
    let summary = counter.summarize();
    assert_eq!(summary.removals, total as u64);
    assert!(summary.mean_rank >= 1.0);
}

/// Handle statistics count the session's own operations, not the queue's.
#[test]
fn handle_stats_are_per_session() {
    let q = queue(4, 1.0, 2);
    let mut a = q.register();
    let mut b = q.register();
    for k in 0..10u64 {
        a.insert(k, k);
    }
    for _ in 0..4 {
        b.delete_min();
    }
    b.delete_min(); // 5 removals via b
    assert_eq!(a.stats().inserts, 10);
    assert_eq!(a.stats().removals, 0);
    assert_eq!(b.stats().inserts, 0);
    assert_eq!(b.stats().removals, 5);
    assert_eq!(b.stats().failed_removals, 0);
}

/// Per-session counters fold into queue-wide totals with
/// `HandleStats::merge` — the aggregation the service's Stats op and the
/// scheduler report are built on.
#[test]
fn stats_merge_across_sessions_accounts_every_operation() {
    let q = queue(4, 1.0, 6);
    let mut a = q.register();
    let mut b = q.register();
    for k in 0..10u64 {
        a.insert(k, k);
    }
    let mut popped = 0;
    while b.delete_min().is_some() {
        popped += 1;
    }
    assert_eq!(popped, 10);
    let mut total = HandleStats::default();
    total.merge(&a.stats());
    total.merge(&b.stats());
    assert_eq!(total.inserts, 10);
    assert_eq!(total.removals, 10);
    assert_eq!(total.failed_removals, 1, "b's final empty poll");
    assert_eq!(
        total.operations(),
        a.stats().operations() + b.stats().operations()
    );
}
