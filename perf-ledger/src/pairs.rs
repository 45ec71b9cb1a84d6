//! `mq_pairs`: the paper's in-process workload (Figures 1 and 2).
//!
//! Two threads, each with its own `MqHandle`, share a d = 2 `MultiQueue` of
//! four lanes (c = 2 lanes per thread) prefilled with 10^6 uniform keys, so
//! every lane's heap is several MB. Each thread runs a closed hold loop:
//! `delete_min`, then insert the removed key plus a uniform increment. The
//! rank metrics come from a second, single-session phase on the same
//! configuration and seed, logged through an instrumented handle and
//! post-processed by `InversionCounter` — the sequential model the paper's
//! theorems bound, which repeats exactly for a given seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use choice_pq::{HandlePolicy, HandleStats, MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
use rank_stats::rng::RandomSource;
use rank_stats::InversionCounter;

use crate::layers::{self, Mix};
use crate::stats::{self, Progress, RankTally, Samples, Tally};
use crate::{sched, wire, Args, Report};

const LANES: usize = 4;
const THREADS: usize = 2;
const PREFILL: usize = 1_000_000;
/// Width of the key window: prefill keys are uniform in `[0, KEY_SPAN)` and
/// each insert lands uniformly in the window above the key just removed.
const KEY_SPAN: u64 = 1 << 40;
/// Length of each thread's pregenerated increment ring.
const RING: usize = 1 << 20;
/// Set-ups, half before the timed run and half after it, each after a
/// pause of `SETUP_GAP`: the host's speed shifts every second or two, and
/// set-ups taken back to back would rest on one moment of it.
const SETUPS: usize = 16;
const SETUP_GAP: Duration = Duration::from_millis(250);
const RANK_PAIRS: usize = 1_000_000;
/// One pair in this many is timed for the latency metrics.
const SAMPLE_EVERY: u64 = 64;
/// Latency samples kept per thread (over 60 s of sampling at this rate).
const SAMPLES: usize = 1 << 20;

pub fn mix(seed: u64) -> Mix {
    Mix {
        lanes: LANES,
        lane_size: PREFILL / LANES,
        inserts_per_removal: 1,
        batch: 1,
        span: KEY_SPAN,
        seed,
    }
}

fn config(seed: u64) -> MultiQueueConfig {
    MultiQueueConfig::with_queues(LANES)
        .with_d(2)
        .with_seed(seed)
}

struct Inputs {
    prefill: Vec<u64>,
    increments: Vec<Vec<u64>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = stats::rng(seed, 0x5EED_0001);
    let prefill = (0..PREFILL).map(|_| rng.next_below(KEY_SPAN)).collect();
    let increments = (0..THREADS)
        .map(|t| {
            let mut rng = stats::rng(seed, 0x5EED_0100 + t as u64);
            (0..RING).map(|_| rng.next_below(KEY_SPAN)).collect()
        })
        .collect();
    Inputs {
        prefill,
        increments,
    }
}

fn build(seed: u64, prefill: &[u64]) -> MultiQueue<u64> {
    let queue = MultiQueue::new(config(seed));
    {
        let mut session = queue.register();
        for &key in prefill {
            session.insert(key, key);
        }
    }
    queue
}

/// What one thread did in one phase.
#[derive(Default)]
struct ThreadOut {
    pairs: u64,
    failed: u64,
    inserted: Tally,
    removed: Tally,
    /// Sampled pairs (each timed as a whole, not per call) and their
    /// latencies in time order.
    sampled: u64,
    rtt_ns: Vec<u64>,
    delay_ns: Vec<u64>,
    stats: HandleStats,
    insert_ns: u128,
    delete_min_ns: u128,
    /// Traced phase: time from one pair's end to the next pair's start (the
    /// loop's own bookkeeping; a closed-loop op is due at its predecessor's
    /// end), summed, and how many gaps were timed.
    lag_ns: u128,
    lags: u64,
    last_end: Option<Instant>,
}

/// One hold pair: remove, then insert the removed key plus an increment.
#[inline(always)]
fn pair<H: PqHandle<u64>>(session: &mut H, base: &mut u64, increment: u64, out: &mut ThreadOut) {
    match session.delete_min() {
        Some((key, value)) => {
            out.removed.add(key);
            out.failed += u64::from(value != key);
            *base = key;
        }
        None => out.failed += 1,
    }
    let key = *base + increment;
    session.insert(key, key);
    out.inserted.add(key);
}

/// The same pair with each call timed on its own (traced phase).
#[inline(always)]
fn timed_pair<H: PqHandle<u64>>(
    session: &mut H,
    base: &mut u64,
    increment: u64,
    out: &mut ThreadOut,
) {
    let t0 = Instant::now();
    if let Some(previous) = out.last_end {
        out.lag_ns += t0.duration_since(previous).as_nanos();
        out.lags += 1;
    }
    let popped = session.delete_min();
    let t1 = Instant::now();
    match popped {
        Some((key, value)) => {
            out.removed.add(key);
            out.failed += u64::from(value != key);
            *base = key;
        }
        None => out.failed += 1,
    }
    let key = *base + increment;
    let t2 = Instant::now();
    session.insert(key, key);
    let t3 = Instant::now();
    out.inserted.add(key);
    out.delete_min_ns += t1.duration_since(t0).as_nanos();
    out.insert_ns += t3.duration_since(t2).as_nanos();
    out.last_end = Some(t3);
}

fn thread_loop(
    queue: &MultiQueue<u64>,
    increments: &[u64],
    stop: &AtomicBool,
    progress: &Progress,
    traced: bool,
) -> ThreadOut {
    let mut session = queue.register();
    let mask = increments.len() - 1;
    let mut out = ThreadOut::default();
    let mut rtt_ns = Samples::new(SAMPLES);
    let mut delay_ns = Samples::new(SAMPLES);
    let mut base = 0u64;
    let mut i = 0u64;
    loop {
        if i.is_multiple_of(SAMPLE_EVERY) {
            progress.0.store(i, Ordering::Relaxed);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            // A sampled pair, then the next one: the first interval is the
            // pair's latency, the second the time from one completion to
            // the next (a closed-loop op is due when its predecessor ends).
            let t0 = Instant::now();
            pair(
                &mut session,
                &mut base,
                increments[i as usize & mask],
                &mut out,
            );
            let t1 = Instant::now();
            pair(
                &mut session,
                &mut base,
                increments[(i + 1) as usize & mask],
                &mut out,
            );
            let t2 = Instant::now();
            rtt_ns.push(t1.duration_since(t0).as_nanos() as u64);
            delay_ns.push(t2.duration_since(t1).as_nanos() as u64);
            out.sampled += 1;
            out.last_end = None;
            i += 2;
            continue;
        }
        let increment = increments[i as usize & mask];
        if traced {
            timed_pair(&mut session, &mut base, increment, &mut out);
        } else {
            pair(&mut session, &mut base, increment, &mut out);
        }
        i += 1;
    }
    out.pairs = i;
    out.stats = session.stats();
    out.rtt_ns = rtt_ns.into_ordered();
    out.delay_ns = delay_ns.into_ordered();
    out
}

/// One measured phase of the two-thread hold loop.
struct Phase {
    ops_per_s: f64,
    elapsed: Duration,
    threads: Vec<ThreadOut>,
}

fn run_phase(queue: &MultiQueue<u64>, inputs: &Inputs, seconds: f64, traced: bool) -> Phase {
    let stop = AtomicBool::new(false);
    let progress: Vec<Progress> = (0..THREADS).map(|_| Progress::default()).collect();
    let started = Instant::now();
    let (pairs_per_s, threads) = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let (stop, progress) = (&stop, &progress[t]);
                let increments = &inputs.increments[t];
                scope.spawn(move || thread_loop(queue, increments, stop, progress, traced))
            })
            .collect();
        let rate = stats::windowed_rate(seconds, || {
            progress.iter().map(|p| p.0.load(Ordering::Relaxed)).sum()
        });
        stop.store(true, Ordering::Relaxed);
        let threads: Vec<ThreadOut> = joins
            .into_iter()
            .map(|j| j.join().expect("pair thread panicked"))
            .collect();
        (rate, threads)
    });
    Phase {
        ops_per_s: 2.0 * pairs_per_s,
        elapsed: started.elapsed(),
        threads,
    }
}

/// Rank quality of one instrumented session on the same configuration,
/// prefill and increments: `(rank_mean, rank_max, inversions_per_k)` over
/// the hold pairs (the final drain only completes the log).
fn rank_phase(seed: u64, inputs: &Inputs) -> (f64, f64, f64) {
    let queue = build(seed, &inputs.prefill);
    let mut session = queue.register_with(HandlePolicy::instrumented());
    let increments = &inputs.increments[0];
    let mut base = 0u64;
    for i in 0..RANK_PAIRS {
        if let Some((key, _)) = session.delete_min() {
            base = key;
        }
        session.insert(base + increments[i % RING], 0);
    }
    while session.delete_min().is_some() {}
    let mut log = session.take_log();
    log.sort_unstable();
    let keys: Vec<u64> = log.iter().take(RANK_PAIRS).map(|r| r.key).collect();
    let mut counter = InversionCounter::new();
    counter.record_all(log);
    let ranks = counter.per_removal_ranks();
    let mut tally = RankTally::default();
    for &rank in ranks.iter().take(RANK_PAIRS) {
        tally.record(rank);
    }
    (tally.mean(), tally.max(), stats::inversions_per_k(keys))
}

/// Drains the queue after the run and checks key conservation: every key
/// inserted (prefill and loop) was popped in the loop or by the drain.
fn check_conservation(
    queue: &MultiQueue<u64>,
    inserted: Tally,
    removed: Tally,
    report: &mut Report,
) {
    let mut drained = Tally::default();
    let mut session = queue.register();
    let mut batch = Vec::with_capacity(1024);
    while session.delete_min_batch_into(1024, &mut batch) > 0 {
        for (key, _) in batch.drain(..) {
            drained.add(key);
        }
    }
    drop(session);
    let mut out = removed;
    out.merge(drained);
    report.failed += inserted.count.abs_diff(out.count);
    report.check(inserted == out, || {
        format!(
            "key conservation: inserted {} keys (sum {:#x}), popped and drained {} (sum {:#x})",
            inserted.count, inserted.sum, out.count, out.sum
        )
    });
    report.check(queue.approx_len() == 0, || {
        format!("queue reports {} keys after the drain", queue.approx_len())
    });
}

fn fold(phase: &Phase, report: &mut Report, inserted: &mut Tally, removed: &mut Tally) {
    for t in &phase.threads {
        report.attempted += 2 * t.pairs;
        report.failed += t.failed;
        inserted.merge(t.inserted);
        removed.merge(t.removed);
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let inputs = inputs(args.seed);
    let mut inserted = Tally::default();
    for &key in &inputs.prefill {
        inserted.add(key);
    }
    let mut removed = Tally::default();
    if !args.trace {
        // The rank phase first: it sets the process's memory peak, and it
        // does so from the same heap state on every run.
        let (rank_mean, rank_max, inversions) = rank_phase(args.seed, &inputs);
        let mut setups = Vec::with_capacity(SETUPS);
        let set_up = |setups: &mut Vec<f64>| {
            std::thread::sleep(SETUP_GAP);
            let t0 = Instant::now();
            let queue = build(args.seed, &inputs.prefill);
            setups.push(t0.elapsed().as_secs_f64());
            queue
        };
        for _ in 1..SETUPS / 2 {
            drop(set_up(&mut setups));
        }
        let queue = set_up(&mut setups);
        let phase = run_phase(&queue, &inputs, args.seconds, false);
        fold(&phase, report, &mut inserted, &mut removed);
        check_conservation(&queue, inserted, removed, report);
        drop(queue);
        while setups.len() < SETUPS {
            drop(set_up(&mut setups));
        }

        let rtt: Vec<&[u64]> = phase.threads.iter().map(|t| &t.rtt_ns[..]).collect();
        let delay: Vec<&[u64]> = phase.threads.iter().map(|t| &t.delay_ns[..]).collect();
        report.set("setup_s", stats::median(&mut setups));
        report.set("ops_per_s", phase.ops_per_s);
        report.set("rank_mean", rank_mean);
        report.set("rank_max", rank_max);
        report.set("inversions_per_k", inversions);
        let windows = stats::windows(args.seconds);
        stats::set_p50_p99(report, "rtt", &rtt, windows, "pair latency");
        stats::set_p50_p99(report, "delay", &delay, windows, "pair delay");
        return;
    }

    // Traced run: the same loop untraced, then with every call timed.
    let queue = build(args.seed, &inputs.prefill);
    let plain = run_phase(&queue, &inputs, args.seconds / 2.0, false);
    let traced = run_phase(&queue, &inputs, args.seconds / 2.0, true);
    fold(&plain, report, &mut inserted, &mut removed);
    fold(&traced, report, &mut inserted, &mut removed);
    check_conservation(&queue, inserted, removed, report);
    drop(queue);

    let mut stats = HandleStats::default();
    let (mut insert_ns, mut delete_min_ns, mut pairs) = (0u128, 0u128, 0u64);
    let (mut lag_ns, mut lags) = (0u128, 0u64);
    for t in &traced.threads {
        stats.merge(&t.stats);
        insert_ns += t.insert_ns;
        delete_min_ns += t.delete_min_ns;
        lag_ns += t.lag_ns;
        lags += t.lags;
        // Sampled pairs are timed as a whole, not per call.
        pairs += t.pairs - t.sampled * 2;
    }
    let insert_ns = insert_ns as f64 / pairs.max(1) as f64;
    let delete_min_ns = delete_min_ns as f64 / pairs.max(1) as f64;
    report.set("core.insert_ns", insert_ns);
    report.set("core.delete_min_ns", delete_min_ns);
    layers::handle_counters(&stats, report);
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s,
    );
    // Ledger: one thread's wall time per pair against the two timed calls.
    let total_pairs: u64 = traced.threads.iter().map(|t| t.pairs).sum();
    let pair_ns = stats::ns_per(traced.elapsed, total_pairs) * THREADS as f64;
    report.set(
        "ledger.unaccounted_pct",
        100.0 * (pair_ns - insert_ns - delete_min_ns) / pair_ns,
    );

    let mix = mix(args.seed);
    layers::measure(&mix, report);
    sched::micro(&mix, report);
    wire::micro(&mix, report);
    report.set(
        "sched.generator_lag_us",
        lag_ns as f64 / lags.max(1) as f64 / 1e3,
    );
}
