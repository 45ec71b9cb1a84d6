//! Integration tests: set semantics of every concurrent queue under
//! multi-threaded stress, including the stalled-thread failure injection from
//! Appendix C — elements are never lost, duplicated or invented. All access
//! goes through registered session handles.

use std::collections::HashSet;

use power_of_choice::prelude::*;

/// Runs `threads` workers that each register a session, insert a disjoint
/// block of keys and pop roughly half of them while running; then drains the
/// queue and checks that exactly the inserted key set comes back.
fn stress_conservation<Q: SharedPq<u64> + ?Sized>(queue: &Q, threads: usize, per: u64) {
    let removed: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            handles.push(scope.spawn(move || {
                let mut session = queue.register();
                let base = t as u64 * per;
                let mut got = Vec::new();
                for i in 0..per {
                    session.insert(base + i, base + i);
                    if i % 2 == 1 {
                        if let Some((k, v)) = session.delete_min() {
                            assert_eq!(k, v, "value must travel with its key");
                            got.push(k);
                        }
                    }
                }
                got
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut seen: HashSet<u64> = HashSet::new();
    for k in removed {
        assert!(
            seen.insert(k),
            "key {k} popped twice during the stress phase"
        );
    }
    let mut drainer = queue.register();
    while let Some((k, _)) = drainer.delete_min() {
        assert!(
            seen.insert(k),
            "key {k} popped twice during the drain phase"
        );
    }
    assert_eq!(seen.len() as u64, threads as u64 * per, "keys lost");
    assert!(queue.is_empty());
}

#[test]
fn multiqueue_conserves_elements_under_stress() {
    for beta in [1.0, 0.5, 0.0] {
        let q = MultiQueue::new(MultiQueueConfig::for_threads(4).with_beta(beta));
        stress_conservation(&q, 4, 5_000);
    }
}

#[test]
fn multiqueue_with_insert_all_sessions_conserves_elements() {
    // Every session alternates `insert_all` groups with runs of plain
    // inserts of the same length, one group size per session, while
    // popping; conservation must be unaffected.
    let q = MultiQueue::new(MultiQueueConfig::for_threads(4).with_beta(0.75));
    let per = 5_000u64;
    let groups = [8u64, 32, 16, 3];
    let threads = groups.len();
    let removed: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, group) in groups.into_iter().enumerate() {
            let q = &q;
            handles.push(scope.spawn(move || {
                let mut session = q.register();
                let base = t as u64 * per;
                let mut pending = Vec::with_capacity(group as usize);
                let mut got = Vec::new();
                for i in 0..per {
                    let key = base + i;
                    if (i / group) % 2 == 0 {
                        pending.push((key, key));
                        if pending.len() as u64 == group {
                            session.insert_all(&mut pending);
                        }
                    } else {
                        session.insert(key, key);
                    }
                    if i % 2 == 1 {
                        if let Some((k, _)) = session.delete_min() {
                            got.push(k);
                        }
                    }
                }
                session.insert_all(&mut pending);
                got
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut seen: HashSet<u64> = removed.into_iter().collect();
    let mut drainer = q.register();
    while let Some((k, _)) = drainer.delete_min() {
        assert!(seen.insert(k), "duplicate key {k}");
    }
    assert_eq!(seen.len() as u64, threads as u64 * per);
}

#[test]
fn baselines_conserve_elements_under_stress() {
    stress_conservation(&CoarseHeap::new(), 4, 5_000);
    stress_conservation(&SkipListQueue::new(), 4, 5_000);
    stress_conservation(
        &KLsmQueue::new(KLsmConfig::for_threads(4).with_relaxation(128)),
        4,
        5_000,
    );
}

#[test]
fn type_erased_queues_conserve_elements_under_stress() {
    use std::sync::Arc;
    let q: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::new(
        MultiQueueConfig::for_threads(4).with_beta(0.5),
    ));
    stress_conservation(&*q, 4, 2_000);
}

/// Appendix C failure injection: while one lane's lock is held hostage, other
/// threads keep operating; afterwards the structure still holds exactly the
/// right multiset of keys.
#[test]
fn multiqueue_survives_a_hostage_lane() {
    let queue = MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(6)
            .with_beta(0.75)
            .with_seed(5),
    );
    {
        let mut loader = queue.register();
        for k in 0..10_000u64 {
            loader.insert(k, k);
        }
    }
    let popped_during_stall = {
        let queue_ref = &queue;
        queue.with_lane_locked(2, move || {
            let popped: Vec<u64> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..3 {
                    handles.push(scope.spawn(move || {
                        let mut session = queue_ref.register();
                        let mut got = Vec::new();
                        for i in 0..2_000u64 {
                            session.insert(10_000 + t as u64 * 2_000 + i, 0);
                            if let Some((k, _)) = session.delete_min() {
                                got.push(k);
                            }
                        }
                        got
                    }));
                }
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            popped
        })
    };
    assert!(
        popped_during_stall.len() > 1_000,
        "operations must keep completing while a lane is held"
    );
    let mut seen: HashSet<u64> = HashSet::new();
    for k in popped_during_stall {
        assert!(seen.insert(k), "duplicate {k} during stall");
    }
    let mut drainer = queue.register();
    while let Some((k, _)) = drainer.delete_min() {
        assert!(seen.insert(k), "duplicate {k} during drain");
    }
    assert_eq!(seen.len(), 10_000 + 3 * 2_000);
}

/// The relaxed queues must still be *exact* when used by a single session
/// with one lane / one slot — a sanity anchor for the relaxation semantics.
#[test]
fn degenerate_configurations_are_exact() {
    let mq = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(1));
    let klsm = KLsmQueue::<u64>::new(KLsmConfig::for_threads(1).with_relaxation(4));
    for q in [&mq as &dyn DynSharedPq<u64>, &klsm] {
        let mut session = q.register();
        for k in [5u64, 3, 8, 1, 9, 2] {
            session.insert(k, k);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = session.delete_min() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 2, 3, 5, 8, 9]);
    }
}
