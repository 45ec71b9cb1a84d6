//! Semantics of the configurable choice rule and of batched deletion.
//!
//! Three families of guarantees, all named by the PR that introduced
//! `ChoiceRule`:
//!
//! 1. **d = 1 degenerates to uniform single-lane sampling** — `DChoice(1)`
//!    is stream-identical to `SingleChoice`, and its victim lanes are
//!    uniformly distributed.
//! 2. **d = 2 reproduces the pre-`ChoiceRule` replay traces** — the golden
//!    traces below were captured from the engine *before* victim selection
//!    was routed through `ChoiceRule`; the default two-choice configuration
//!    must keep replaying them bit-for-bit.
//! 3. **`delete_min_batch(1)` is observationally identical to
//!    `delete_min`** — same elements, same order, same statistics.
//!
//! A fourth pins `insert_all` to `insert`: one lock per drawn lane changes
//! how often lanes are locked, never where an entry lands.

use power_of_choice::multiqueue::ChoiceRule;
use power_of_choice::prelude::*;
use proptest::prelude::*;

fn queue_with(choice: ChoiceRule, lanes: usize, seed: u64) -> MultiQueue<u64> {
    MultiQueue::new(
        MultiQueueConfig::with_queues(lanes)
            .with_choice(choice)
            .with_seed(seed),
    )
}

/// Inserts a fixed scrambled key sequence and drains, returning popped keys.
fn scripted_trace(q: &MultiQueue<u64>, inserts: u64) -> Vec<u64> {
    let mut h = q.register();
    for k in 0..inserts {
        h.insert(k * 7 % inserts, k);
    }
    let mut out = Vec::new();
    while let Some((k, _)) = h.delete_min() {
        out.push(k);
    }
    out
}

/// Golden trace captured from the pre-`ChoiceRule` engine (flat β = 1
/// two-choice, 8 lanes, seed 42, 32 scrambled inserts): the refactored
/// engine must replay it exactly.
#[test]
fn two_choice_reproduces_the_pre_choicerule_golden_trace() {
    let golden = [
        0u64, 11, 3, 2, 5, 7, 6, 9, 13, 10, 1, 24, 8, 18, 4, 12, 27, 16, 17, 21, 14, 30, 29, 15,
        23, 20, 26, 31, 19, 22, 25, 28,
    ];
    let q = queue_with(ChoiceRule::TwoChoice, 8, 42);
    assert_eq!(scripted_trace(&q, 32), golden);
    // with_beta(1.0) normalises to the same rule and the same trace.
    let q = MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(8)
            .with_beta(1.0)
            .with_seed(42),
    );
    assert_eq!(scripted_trace(&q, 32), golden);
}

/// Same capture for the (1 + β) rule (β = 0.75, 4 lanes, seed 7).
#[test]
fn one_plus_beta_reproduces_the_pre_choicerule_golden_trace() {
    let golden = [
        1u64, 7, 0, 3, 6, 8, 2, 9, 13, 10, 12, 15, 4, 14, 16, 19, 29, 18, 5, 22, 24, 31, 25, 27,
        11, 17, 26, 20, 21, 30, 23, 28,
    ];
    let q = queue_with(ChoiceRule::OnePlusBeta(0.75), 4, 7);
    assert_eq!(scripted_trace(&q, 32), golden);
}

/// Golden trace of the multi-entry paths: 64 scrambled keys published by
/// `insert_all` in groups of 8 and drained by `delete_min_batch_into(4)`
/// over 8 two-choice lanes, seed 2024 (one-by-one inserts give the same
/// sequence). Any lane mechanism must replay it bit-for-bit — uncontended,
/// it consumes the RNG stream identically and removes the same elements in
/// the same order.
#[test]
fn batched_publish_and_drain_reproduce_the_golden_trace() {
    let golden = [
        8u64, 13, 22, 25, 0, 1, 12, 24, 4, 14, 16, 21, 6, 9, 11, 17, 3, 15, 18, 19, 5, 7, 46, 23,
        35, 39, 43, 2, 10, 20, 27, 37, 38, 41, 59, 48, 55, 63, 42, 47, 51, 54, 28, 29, 34, 50, 26,
        30, 33, 40, 49, 53, 57, 60, 44, 45, 61, 31, 32, 36, 52, 56, 58, 62,
    ];
    let q = MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(8)
            .with_choice(ChoiceRule::TwoChoice)
            .with_seed(2024),
    );
    let mut h = q.register();
    let mut group = Vec::with_capacity(8);
    for k in 0..64u64 {
        group.push((k * 7 % 64, k));
        if group.len() == 8 {
            h.insert_all(&mut group);
        }
    }
    let mut out = Vec::new();
    while h.delete_min_batch_into(4, &mut out) > 0 {}
    let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, golden);
}

/// d = 1 victim lanes are uniform: run the sequential process (which records
/// the victim queue of every removal) and check no queue is over- or
/// under-sampled beyond loose binomial slack.
#[test]
fn d1_single_lane_sampling_is_uniform() {
    let n = 8usize;
    let removals = 40_000u64;
    let mut p = SequentialProcess::new(ProcessConfig::new(n).with_d(1).with_seed(99));
    p.prefill(removals + 10_000);
    let mut counts = vec![0u64; n];
    for _ in 0..removals {
        if let Some(r) = p.remove() {
            counts[r.queue] += 1;
        }
    }
    let total: u64 = counts.iter().sum();
    let mean = total as f64 / n as f64;
    for (queue, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - mean).abs() < 0.1 * mean,
            "queue {queue} sampled {c} times, mean {mean}: not uniform"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DChoice(1)` and `SingleChoice` are the same process: identical
    /// removal streams on the concurrent queue for any seed and lane count.
    #[test]
    fn prop_d1_degenerates_to_single_choice(lanes in 1usize..10, seed in 0u64..500, ops in 1u64..300) {
        let qa = queue_with(ChoiceRule::DChoice(1), lanes, seed);
        let qb = queue_with(ChoiceRule::SingleChoice, lanes, seed);
        let mut ha = qa.register();
        let mut hb = qb.register();
        for k in 0..ops {
            ha.insert(k, k);
            hb.insert(k, k);
        }
        for _ in 0..=ops {
            prop_assert_eq!(ha.delete_min(), hb.delete_min());
        }
    }

    /// `OnePlusBeta(1.0)` and the normalised `TwoChoice` draw the same
    /// stream, so `with_beta(1.0)` configurations replay against explicit
    /// d = 2 ones.
    #[test]
    fn prop_beta_one_equals_two_choice(lanes in 1usize..10, seed in 0u64..500, ops in 1u64..300) {
        let qa = queue_with(ChoiceRule::OnePlusBeta(1.0), lanes, seed);
        let qb = queue_with(ChoiceRule::DChoice(2), lanes, seed);
        let mut ha = qa.register();
        let mut hb = qb.register();
        for k in 0..ops {
            ha.insert(k * 13 % ops, k);
            hb.insert(k * 13 % ops, k);
        }
        for _ in 0..=ops {
            prop_assert_eq!(ha.delete_min(), hb.delete_min());
        }
    }

    /// `delete_min_batch(1)` is observationally identical to `delete_min`:
    /// same elements in the same order under an interleaved insert/remove
    /// schedule, and the same session statistics.
    #[test]
    fn prop_batch_of_one_is_delete_min(
        lanes in 1usize..10,
        seed in 0u64..500,
        d in 1usize..5,
        rounds in 1u64..60,
    ) {
        let qa = queue_with(ChoiceRule::DChoice(d), lanes, seed);
        let qb = queue_with(ChoiceRule::DChoice(d), lanes, seed);
        let mut ha = qa.register();
        let mut hb = qb.register();
        for round in 0..rounds {
            for j in 0..3u64 {
                let key = (round * 31 + j * 7) % 97;
                ha.insert(key, round);
                hb.insert(key, round);
            }
            let single = ha.delete_min();
            let batched: Vec<(u64, u64)> = hb.delete_min_batch(1).collect();
            prop_assert_eq!(single.map(|e| vec![e]).unwrap_or_default(), batched);
        }
        // Drain both to the end through the two paths.
        loop {
            let single = ha.delete_min();
            let batched: Vec<(u64, u64)> = hb.delete_min_batch(1).collect();
            prop_assert_eq!(single.map(|e| vec![e]).unwrap_or_default(), batched.clone());
            if batched.is_empty() {
                break;
            }
        }
        prop_assert_eq!(ha.stats(), hb.stats());
    }

    /// `insert_all` places every entry where one-by-one `insert`s would:
    /// identically seeded queues end with the same lane lengths and pop the
    /// same `(key, value)` sequence, duplicate keys included (the values
    /// tell duplicates apart, so a changed push order within a lane shows),
    /// on an unsharded queue and for the second session on a two-shard
    /// queue (handle id 1, so shard 1).
    #[test]
    fn prop_insert_all_lands_like_one_by_one_inserts(
        lanes in 2usize..10,
        seed in 0u64..500,
        shards in 1usize..3,
        keys in proptest::collection::vec(0u64..16, 0..64),
    ) {
        let queue = || {
            MultiQueue::<u64>::new(
                MultiQueueConfig::with_queues(lanes)
                    .with_shards(shards)
                    .with_seed(seed),
            )
        };
        let (qa, qb) = (queue(), queue());
        if shards == 2 {
            // The first session takes shard 0; compare the second's.
            qa.register();
            qb.register();
        }
        let mut ha = qa.register();
        let mut hb = qb.register();
        let mut entries: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        for &(key, value) in &entries {
            ha.insert(key, value);
        }
        hb.insert_all(&mut entries);
        prop_assert!(entries.is_empty());
        prop_assert_eq!(qa.lane_lengths(), qb.lane_lengths());
        prop_assert_eq!(ha.stats(), hb.stats());
        loop {
            let popped = ha.delete_min();
            prop_assert_eq!(popped, hb.delete_min());
            if popped.is_none() {
                break;
            }
        }
    }

    /// Batched deletion conserves elements: interleaved batch inserts and
    /// batch removals of arbitrary sizes return every key exactly once.
    #[test]
    fn prop_batched_drain_conserves_elements(
        lanes in 1usize..10,
        seed in 0u64..500,
        d in 1usize..5,
        batch in 1usize..20,
        count in 1u64..400,
    ) {
        let q = queue_with(ChoiceRule::DChoice(d), lanes, seed);
        let mut h = q.register();
        for k in 0..count {
            h.insert(k, k);
        }
        let mut seen = Vec::new();
        let mut failures = 0;
        while seen.len() < count as usize {
            let got: Vec<u64> = h.delete_min_batch(batch).map(|(k, _)| k).collect();
            // Within one batch keys come off one lane heap: ascending order.
            prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
            if got.is_empty() {
                failures += 1;
                prop_assert!(failures < 3, "non-empty queue failed to yield a batch");
            }
            seen.extend(got);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..count).collect::<Vec<_>>());
        prop_assert!(q.is_empty());
    }
}

/// The steal path: when every sampled lane misses the only occupied lane for
/// the whole retry budget, a batch must still come back via the
/// deterministic steal scan. With one key on 4096 lanes and d = 1, all
/// `MAX_RETRIES` (64) draws miss with probability (4095/4096)^64 ≈ 0.98, so
/// nearly every seed reaches the scan, and a seed that does reports exactly
/// `MAX_RETRIES` contended retries (a hit on draw `i` reports `i < 64`).
#[test]
fn batch_steal_path_finds_the_lone_occupied_lane() {
    let budget = MultiQueue::<u64>::MAX_RETRIES as u64;
    let mut stolen = 0;
    for seed in 0..20u64 {
        let q = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(4096)
                .with_d(1)
                .with_seed(seed),
        );
        let mut h = q.register();
        h.insert(5, 50);
        let got: Vec<(u64, u64)> = h.delete_min_batch(4).collect();
        assert_eq!(got, vec![(5, 50)], "seed {seed}");
        assert!(q.is_empty());
        let retries = h.stats().contended_retries;
        assert!(retries <= budget, "seed {seed}: {retries} retries");
        stolen += usize::from(retries == budget);
    }
    assert!(stolen > 0, "no seed spent its retry budget and stole");
}

/// A d ≥ n rule inspects every lane, so sequential removals are exact even
/// across many lanes.
#[test]
fn d_at_least_n_is_an_exact_sequential_queue() {
    let q = queue_with(ChoiceRule::DChoice(16), 8, 3);
    let mut h = q.register();
    for k in [9u64, 4, 7, 1, 8, 2, 6, 3, 5, 0] {
        h.insert(k, k);
    }
    let mut out = Vec::new();
    while let Some((k, _)) = h.delete_min() {
        out.push(k);
    }
    assert_eq!(out, (0..10u64).collect::<Vec<_>>());
}
