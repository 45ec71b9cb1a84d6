//! Integration tests: the paper's headline guarantees hold end-to-end, from
//! the sequential analysis processes through the concurrent MultiQueue.

use std::sync::atomic::{AtomicU64, Ordering};

use power_of_choice::prelude::*;

/// Runs the Figure 2 style concurrent workload and returns the mean rank.
/// Removal timestamps come from instrumented session handles
/// (`HandlePolicy::instrumented()`), which share the queue's coherent clock.
fn concurrent_mean_rank(beta: f64, threads: usize, queues: usize, per_thread: u64) -> f64 {
    let prefill = 200_000u64;
    let queue = MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(queues)
            .with_beta(beta)
            .with_seed(99),
    );
    // Prefill so removals never observe an empty structure (prefixed run).
    {
        let mut loader = queue.register();
        for k in 0..prefill {
            loader.insert(k, k);
        }
    }
    let next_key = AtomicU64::new(prefill);
    let logs: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let queue = &queue;
            let next_key = &next_key;
            handles.push(scope.spawn(move || {
                let mut handle = queue.register_with(HandlePolicy::instrumented());
                for _ in 0..per_thread {
                    let key = next_key.fetch_add(1, Ordering::Relaxed);
                    handle.insert(key, key);
                    handle.delete_min();
                }
                handle.take_log()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut counter = InversionCounter::new();
    for log in logs {
        counter.record_all(log);
    }
    let summary = counter.summarize();
    assert_eq!(summary.removals, threads as u64 * per_thread);
    summary.mean_rank
}

/// Theorem 1 end-to-end on the *concurrent* MultiQueue.
///
/// When worker threads outnumber hardware threads (this CI environment has a
/// single core), the OS can preempt a worker while it holds a lane lock, which
/// is exactly the Appendix C pathology: ranks can temporarily grow far beyond
/// the sequential O(n) bound. The robust end-to-end claims are therefore
/// relative: the two-choice MultiQueue must be dramatically better than the
/// single-choice configuration under the identical schedule, and even with
/// oversubscription it must stay far below the ~100k ranks an unordered
/// structure would produce. The sequential O(n) bound itself is asserted on
/// the single-threaded run, which is the model the theorem describes.
#[test]
fn concurrent_multiqueue_mean_rank_is_order_n() {
    let queues = 8;
    // Single-threaded: mirrors the sequential model, so the O(n) bound applies.
    let sequential_like = concurrent_mean_rank(1.0, 1, queues, 60_000);
    assert!(
        sequential_like < 4.0 * queues as f64,
        "single-threaded mean rank {sequential_like} should be O(n) (n = {queues})"
    );

    // Oversubscribed: two-choice must crush single-choice on the same setup
    // and stay well below the unordered-structure scale.
    let two_choice = concurrent_mean_rank(1.0, 4, queues, 20_000);
    let single_choice = concurrent_mean_rank(0.0, 4, queues, 20_000);
    assert!(
        two_choice < 20_000.0,
        "two-choice oversubscribed mean rank {two_choice} is implausibly large"
    );
    assert!(
        two_choice < single_choice,
        "two-choice ({two_choice}) must beat single-choice ({single_choice}) under load"
    );
}

/// The sequential process and the concurrent structure agree qualitatively:
/// both show the β ordering (smaller β ⇒ larger mean rank).
#[test]
fn sequential_and_concurrent_beta_orderings_agree() {
    let queues = 8;
    // Sequential process.
    let seq_rank = |beta: f64| {
        let mut p = SequentialProcess::new(ProcessConfig::new(queues).with_beta(beta).with_seed(3));
        p.run_alternating(60_000, 4_000).mean_rank
    };
    let seq_tight = seq_rank(1.0);
    let seq_loose = seq_rank(0.125);
    assert!(seq_loose > seq_tight);

    // Concurrent structure, single-threaded (so it mirrors the model exactly).
    let conc_rank = |beta: f64| {
        let queue = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(queues)
                .with_beta(beta)
                .with_seed(3),
        );
        let mut session = queue.register();
        for k in 0..60_000u64 {
            session.insert(k, k);
        }
        let mut counter = InversionCounter::new();
        let mut ts = 0;
        while let Some((k, _)) = session.delete_min() {
            counter.record(ts, k);
            ts += 1;
        }
        counter.summarize().mean_rank
    };
    let conc_tight = conc_rank(1.0);
    let conc_loose = conc_rank(0.125);
    assert!(conc_loose > conc_tight);
}

/// Theorem 6 end-to-end: the single-choice configuration degrades with the
/// execution length while the two-choice configuration does not.
#[test]
fn single_choice_degrades_two_choice_does_not() {
    let queues = 16;
    let run = |beta: f64| {
        let mut p = SequentialProcess::new(ProcessConfig::new(queues).with_beta(beta).with_seed(8));
        let (_, series) = p.run_alternating_with_series(80_000, 16_000, 20_000);
        let first = series.points.first().unwrap().1;
        let last = series.points.last().unwrap().1;
        (first, last)
    };
    let (single_first, single_last) = run(0.0);
    let (double_first, double_last) = run(1.0);
    assert!(
        single_last > single_first,
        "single choice should degrade over time ({single_first} -> {single_last})"
    );
    assert!(
        double_last < double_first * 2.0 + 2.0 * queues as f64,
        "two choice should stay flat ({double_first} -> {double_last})"
    );
}

/// The potential-function machinery (Theorem 3) and the rank behaviour line
/// up: bounded potential for two-choice, growing potential for single-choice.
#[test]
fn potential_bound_tracks_rank_behaviour() {
    use power_of_choice::process::potential::{PotentialParams, PotentialSnapshot};
    let n = 24;
    let params = PotentialParams::from_beta_gamma(1.0, 0.0);
    let mut two = ExponentialTopProcess::new(ProcessConfig::new(n).with_beta(1.0).with_seed(4));
    let mut one = ExponentialTopProcess::new(ProcessConfig::new(n).with_beta(0.0).with_seed(4));
    two.run(150_000);
    one.run(150_000);
    let gamma_two = PotentialSnapshot::compute(&two.deviations(), params.alpha).gamma_per_bin;
    let gamma_one = PotentialSnapshot::compute(&one.deviations(), params.alpha).gamma_per_bin;
    assert!(
        gamma_two < 10.0,
        "two-choice Gamma/n = {gamma_two} should be O(1)"
    );
    assert!(
        gamma_one > gamma_two,
        "single-choice potential {gamma_one} should exceed two-choice {gamma_two}"
    );
}

/// Appendix C's pathology, injected: one session runs a hold loop (100 k
/// prefill, 50 k insert/`delete_min` pairs, d = 2, increasing keys); a
/// second session then runs `m` pairs while lane 0's lock is held, or, as
/// the control, while it is not; the first session then runs 50 k more
/// pairs. Returns the max rank over all removals (`InversionCounter`).
fn stalled_max_rank(lanes: usize, seed: u64, m: u64, hold: bool) -> u64 {
    let queue = MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(lanes)
            .with_d(2)
            .with_seed(seed),
    );
    let mut first = queue.register_with(HandlePolicy::instrumented());
    for k in 0..100_000u64 {
        first.insert(k, k);
    }
    let mut next_key = 100_000u64;
    let mut pairs = |session: &mut dyn PqHandle<u64>, count: u64| {
        for _ in 0..count {
            session.insert(next_key, next_key);
            next_key += 1;
            session.delete_min();
        }
    };
    pairs(&mut first, 50_000);
    let mut second = queue.register_with(HandlePolicy::instrumented());
    if hold {
        queue.with_lane_locked(0, || pairs(&mut second, m));
    } else {
        pairs(&mut second, m);
    }
    pairs(&mut first, 50_000);
    let mut counter = InversionCounter::new();
    counter.record_all(first.take_log());
    counter.record_all(second.take_log());
    counter.summarize().max_rank
}

/// A lane held for `m` removals pushes the max rank to about `m/n`: the
/// other session's removals skip the held lane's keys, and about `m/n` of
/// them fall in the key range those removals sweep. Over seeds 1–12 the
/// held max read 0.98–1.02 × m/n at n = 8 and 0.99–1.02 × at n = 16, and
/// the unheld control at most 0.005 × and 0.021 ×; the band leaves room
/// for other seeds. The live estimator cannot see this: it counts lanes,
/// so it stays at most n (DESIGN.md §12.3).
#[test]
fn a_stalled_lane_holder_pushes_the_max_rank_to_about_m_over_n() {
    let m = 100_000u64;
    std::thread::scope(|s| {
        for lanes in [8usize, 16] {
            s.spawn(move || {
                let m_over_n = m as f64 / lanes as f64;
                let held = stalled_max_rank(lanes, 1, m, true) as f64;
                assert!(
                    (0.95..=1.05).contains(&(held / m_over_n)),
                    "n = {lanes}: held max rank {held} is not within 5 % of m/n = {m_over_n}"
                );
                let free = stalled_max_rank(lanes, 1, m, false) as f64;
                assert!(
                    free < 0.05 * m_over_n,
                    "n = {lanes}: unheld max rank {free} is not far below m/n = {m_over_n}"
                );
            });
        }
    });
}
