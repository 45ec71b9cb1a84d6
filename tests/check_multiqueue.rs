//! The *real* `MultiQueue` under explored schedules (`--features check`).
//!
//! This suite runs the production `choice_pq::MultiQueue` itself — its
//! mutexes and atomics routed through the explorer by the `check` cargo
//! feature — under bounded-random schedules. Exhaustive DFS is out of reach
//! here (a single real operation has dozens of schedule points), so
//! coverage scales with `CHECK_SCHEDULES` (PR CI keeps the default; the
//! stress job deepens it). The last test drives `insert_all` into the window
//! of the historical batched-insert `len` underflow.
//!
//! Run with: `cargo test --features check --test check_multiqueue`

#![cfg(feature = "check")]

use std::sync::Arc;

use choice_check as check;
use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};

/// A 2-lane queue split into two insert shards: each session's inserts land
/// in its own lane while removals sample both.
fn small_config() -> MultiQueueConfig {
    MultiQueueConfig::with_queues(2).with_shards(2)
}

/// Two sessions, one per shard, insert and pop concurrently. Whatever the
/// interleaving, the multiset of keys out must equal the multiset in:
/// nothing lost to a lost try-lock or a blocking fallback, nothing
/// duplicated by a drain racing an insert.
#[test]
fn real_multiqueue_conserves_keys_across_concurrent_sessions() {
    let schedules = check::schedule_budget(192);
    check::model_with(
        check::Config {
            max_steps: 20_000,
            ..check::Config::random(schedules, 0xC0FFEE)
        },
        || {
            let q = Arc::new(MultiQueue::<u64>::new(small_config()));
            let mut workers = Vec::new();
            for t in 0..2u64 {
                let q = Arc::clone(&q);
                workers.push(check::spawn(move || {
                    let mut h = q.register();
                    let mut popped = Vec::new();
                    h.insert(10 + t, 10 + t);
                    h.insert(20 + t, 20 + t);
                    if let Some((k, v)) = h.delete_min() {
                        assert_eq!(k, v, "key/value pairing broken");
                        popped.push(k);
                    }
                    popped
                }));
            }
            let mut seen: Vec<u64> = workers.into_iter().flat_map(|w| w.join()).collect();

            // Quiesced: drain the remainder. Bounded loop — a sparse sample
            // can miss once, but with no writers the steal fallback finds
            // every survivor within a few attempts.
            let mut h = q.register();
            for _ in 0..16 {
                if seen.len() == 4 {
                    break;
                }
                if let Some((k, _)) = h.delete_min() {
                    seen.push(k);
                }
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                vec![10, 11, 20, 21],
                "keys lost or duplicated (lane lengths {:?})",
                q.lane_lengths()
            );
        },
    );
}

/// Single-session sanity under the explorer: the handle hot path
/// (per-handle RNG, shard draws, batched removal) behaves identically with
/// instrumented primitives.
#[test]
fn real_multiqueue_single_session_orders_keys() {
    check::model_with(check::Config::random(check::schedule_budget(32), 7), || {
        let q = MultiQueue::<u32>::new(small_config());
        let mut h = q.register();
        for k in [5u64, 3, 9, 1] {
            h.insert(k, k as u32);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.delete_min() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 9], "single session must drain in order");
    });
}

/// Regression model for the batched-insert `len` underflow: a multi-entry
/// publish used to push its elements into the lane heap under the lane lock
/// but bump a queue-wide `len` only after releasing it, so a drain scheduled
/// into that window popped the elements and `fetch_sub`'d `len` below zero —
/// wrapping `approx_len()` to ~2^64. `insert_all` is the path that pushes
/// several entries under one lane lock; the explorer drives the production
/// queue straight into that window, and with each lane's length copied from
/// its heap under the lock the model is clean.
#[test]
fn batched_insert_never_underflows_len() {
    let schedules = check::schedule_budget(2_000);
    check::model_with(
        check::Config {
            max_steps: 20_000,
            ..check::Config::random(schedules, 0xBA7C4)
        },
        || {
            let q = Arc::new(MultiQueue::<u64>::new(
                MultiQueueConfig::with_queues(1).with_seed(11),
            ));
            // One element pre-published so the racing drain does not stop
            // at a quiescent-empty observation.
            q.register().insert(0, 0);
            let qa = Arc::clone(&q);
            let inserter = check::spawn(move || {
                // One lane: both entries go under one lock, then one release.
                qa.register().insert_all(&mut vec![(1, 1), (2, 2)]);
            });
            let qb = Arc::clone(&q);
            let drainer = check::spawn(move || {
                let mut h = qb.register();
                let mut out = Vec::new();
                for _ in 0..2 {
                    h.delete_min_batch_into(3, &mut out);
                    let len = qb.approx_len();
                    assert!(
                        len <= 3,
                        "approx_len() exceeds total-inserted: {len} (len underflow)"
                    );
                }
                out.len()
            });
            inserter.join();
            let drained = drainer.join();
            let len = q.approx_len();
            assert!(
                len <= 3,
                "approx_len() exceeds total-inserted at quiescence: {len}"
            );
            assert_eq!(len, 3 - drained, "conservation: len + drained == inserted");
        },
    );
}
