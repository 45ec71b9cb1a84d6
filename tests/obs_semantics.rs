//! Integration tests for the choice-obs layer: snapshot consistency of the
//! sharded metrics registry under concurrent writers, the wire-level
//! `Stats`/`MetricsDump` ops racing queue churn, and the acceptance check
//! that a forced quota refusal lands in the flight recorder with its tenant
//! intact.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use power_of_choice::multiqueue::QueueObs;
use power_of_choice::obs::refusal_category;
use power_of_choice::prelude::*;

const WRITERS: usize = 4;
const PER_WRITER: u64 = 20_000;

/// Four writer threads hammer one shared counter, gauge and histogram while
/// a reader takes merged snapshots the whole time. Mid-churn snapshots must
/// be monotonic (counters) and bounded (the gauge's balanced inc/dec pairs
/// never leave `[-WRITERS, WRITERS]`); the final merge must conserve every
/// write exactly — the shard-merge consistency claim of `DESIGN.md`.
#[test]
fn counter_sums_are_conserved_across_shard_merges_under_churn() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("churn_total", &[("suite", "obs")]);
    let gauge = registry.gauge("churn_inflight", &[("suite", "obs")]);
    let histogram = registry.histogram("churn_value", &[("suite", "obs")]);
    let done = AtomicBool::new(false);
    let total = WRITERS as u64 * PER_WRITER;

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let gauge = Arc::clone(&gauge);
                let histogram = Arc::clone(&histogram);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        counter.inc();
                        gauge.inc();
                        histogram.record(i);
                        gauge.dec();
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut last_count = 0u64;
            let mut snapshots = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = registry.snapshot();
                let count = snap
                    .counter("churn_total", &[("suite", "obs")])
                    .expect("the counter cell exists from registration");
                assert!(
                    count >= last_count,
                    "merged counter went backwards: {count} < {last_count}"
                );
                assert!(count <= total, "merged counter overshot: {count} > {total}");
                last_count = count;
                let g = snap
                    .gauge("churn_inflight", &[("suite", "obs")])
                    .expect("the gauge cell exists from registration");
                assert!(
                    g.unsigned_abs() <= WRITERS as u64,
                    "balanced inc/dec pairs can never skew the merge past \
                     one pending increment per writer, got {g}"
                );
                let h = snap
                    .histogram("churn_value", &[("suite", "obs")])
                    .expect("the histogram cell exists from registration");
                assert_eq!(
                    h.count(),
                    h.iter_nonzero().map(|(_, c)| c).sum::<u64>(),
                    "a histogram snapshot's count is its bucket total"
                );
                assert!(h.count() <= total);
                snapshots += 1;
            }
            snapshots
        });
        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader") >= 1);
    });

    // The final merge conserves every write exactly.
    assert_eq!(counter.value(), total);
    assert_eq!(gauge.value(), 0);
    let snap = registry.snapshot();
    let h = snap
        .histogram("churn_value", &[("suite", "obs")])
        .expect("histogram cell");
    assert_eq!(h.count(), total, "every recorded sample survives the merge");
    assert_eq!(
        h.sum(),
        u128::from(WRITERS as u64 * (PER_WRITER * (PER_WRITER - 1) / 2)),
        "the merged sum is the exact arithmetic total of all samples"
    );
    assert_eq!(h.max(), PER_WRITER - 1);
}

/// `Stats` and `MetricsDump` polled flat-out while other connections churn
/// a named queue through create/insert/drop cycles and write to the default
/// queue. Neither op may ever error or tear: the summed lane count stays
/// that of the never-dropped default queue plus at most one lane for the
/// coarse-heap tenant while it exists, and every dump line stays
/// scrapeable.
#[test]
fn stats_and_metrics_dump_race_queue_churn() {
    let queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_seed(11));
    let erased: Arc<dyn DynSharedPq<u64>> = Arc::new(queue);
    let server = PqServer::spawn(erased, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = PqClient::connect(addr).expect("connect writer");
                    for n in 0..400u64 {
                        client.insert((w << 32) | n, n).expect("insert default");
                        if n % 4 == 3 {
                            client.delete_min().expect("delete default");
                        }
                    }
                })
            })
            .collect();
        let churner = scope.spawn(|| {
            let mut client = PqClient::connect(addr).expect("connect churner");
            for round in 0..25u64 {
                client
                    .create_queue(
                        "tenant/ephemeral",
                        BackendSpec::CoarseHeap,
                        QuotaSpec::unlimited().with_max_inflight(4),
                    )
                    .expect("recreate after drop");
                client.use_queue("tenant/ephemeral").expect("bind tenant");
                for n in 0..4u64 {
                    client
                        .insert(round * 16 + n, n)
                        .expect("insert under quota");
                }
                client.use_queue(DEFAULT_QUEUE).expect("rebind default");
                client.drop_queue("tenant/ephemeral").expect("drop tenant");
            }
        });
        let observer = scope.spawn(|| {
            let mut client = PqClient::connect(addr).expect("connect observer");
            let mut polls = 0u64;
            loop {
                let stats = client.stats().expect("Stats never errors mid-churn");
                assert!(
                    (8..=9).contains(&stats.lanes),
                    "torn lane count mid-churn: {} lanes",
                    stats.lanes
                );
                let dump = client
                    .metrics_dump(polls.is_multiple_of(2))
                    .expect("MetricsDump never errors mid-churn");
                assert!(
                    dump.contains("registry_inflight"),
                    "every dump carries the registry gauges"
                );
                for line in dump.lines() {
                    assert!(
                        line.is_empty()
                            || line.starts_with('#')
                            || line.split_whitespace().count() == 2,
                        "unscrapeable exposition line mid-churn: {line:?}"
                    );
                }
                polls += 1;
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
            polls
        });
        for w in writers {
            w.join().expect("writer");
        }
        churner.join().expect("churner");
        done.store(true, Ordering::Relaxed);
        let polls = observer.join().expect("observer");
        assert!(polls >= 1, "the observer must have raced at least one poll");
    });

    let mut client = PqClient::connect(addr).expect("connect for final stats");
    let final_stats = client.stats().expect("final stats");
    assert_eq!(
        final_stats.lanes, 8,
        "only the default queue is left once the tenant is dropped"
    );
    client.shutdown_server().expect("shutdown");
    server.join();
}

/// Force a quota refusal on a tenant queue, then verify the flight recorder
/// carries it with the correct tenant, refusal category, key and in-flight
/// depth — in the structured events and in every dump rendering.
#[test]
fn quota_refusal_dump_carries_the_tenant() {
    let hub = ObsHub::with_capacity(64);

    // One tenant queue with an in-flight quota of 1: the second admission
    // is refused and must land in the ring.
    let registry = QueueRegistry::default();
    registry.set_obs(Arc::clone(&hub));
    registry
        .create(
            "tenant/a",
            BackendSpec::CoarseHeap,
            QuotaSpec::unlimited().with_max_inflight(1),
        )
        .expect("fresh registry accepts the tenant queue");
    let binding = registry.bind("tenant/a").expect("bind tenant");
    binding.admit_insert(5).expect("first insert under quota");
    binding
        .admit_insert(6)
        .expect_err("the second in-flight insert is over quota");

    let events = hub.recorder().events();
    let refusals: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::QuotaRefusal)
        .collect();
    assert_eq!(refusals.len(), 1, "exactly one forced refusal");
    assert_eq!(
        refusals[0].label, "tenant/a",
        "the refusal names its tenant"
    );
    assert_eq!(
        refusals[0].fields,
        [refusal_category::INFLIGHT, 6, 1],
        "refusal fields are [category, refused key, in-flight depth]"
    );

    // The human-readable dump, the JSON dump and the exposition dump all
    // carry it.
    let text = hub.recorder().dump_text();
    assert!(text.contains("quota-refusal") && text.contains("tenant/a"));
    assert!(text.contains("key=6") && text.contains("inflight=1"));
    let json = hub.recorder().dump_json();
    assert!(json.contains("\"kind\":\"quota-refusal\""));
    let exposition = hub.render_dump(true);
    assert!(exposition.contains("# flight recorder"));
    assert!(exposition.contains("quota-refusal") && exposition.contains("tenant/a"));
}

/// The contention-event rule: a publish that accumulates at least four
/// lost try-locks (the queue's contention-event threshold) records a
/// `LaneContention` event even when a fresh lane draw published — not just
/// the blocking fallback, which used to be the only emitter. Pinned so the
/// emission rule cannot silently regress to fallback-only.
#[test]
fn fast_path_contention_reaches_the_flight_recorder() {
    let hub = ObsHub::with_capacity(64);
    let mut queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(2).with_seed(7));
    queue.attach_obs(QueueObs::new(&hub, "contended"));
    let mut h = queue.register();
    // Uncontended inserts publish directly: below the threshold, no events.
    h.insert(1, 1);
    h.insert(2, 2);
    assert!(
        hub.recorder()
            .events()
            .iter()
            .all(|e| e.kind != EventKind::LaneContention),
        "uncontended inserts must not record contention events"
    );
    // Hold lane 0's lock and insert until one insert draws it four times in
    // a row (p = 1/16 per insert): that insert counts four failed
    // try-locks (>= the threshold), draws again until it lands on lane 1,
    // and must surface in the flight recorder despite never falling back.
    queue.with_lane_locked(0, || {
        for k in 0..512u64 {
            h.insert(10 + k, k);
            if hub
                .recorder()
                .events()
                .iter()
                .any(|e| e.kind == EventKind::LaneContention)
            {
                break;
            }
        }
    });
    let events = hub.recorder().events();
    let contention: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::LaneContention)
        .collect();
    assert!(
        !contention.is_empty(),
        "a held lane must surface as a LaneContention event"
    );
    assert_eq!(contention[0].label, "contended");
    assert_eq!(
        contention[0].fields[0], 1,
        "the event names the lane that took the element, not the held one"
    );
    assert!(
        contention[0].fields[1] >= 4,
        "and carries the accumulated retry count"
    );
}

/// Drains an 8-element queue laid out one-element-per-lane and checks every
/// sampled shadow-probe value against the exact rank from a sorted mirror.
/// Returns `None` when the seed's random placement doubled up a lane (the
/// caller skips those layouts), else `(removals, summed rank error)`.
fn drain_with_exact_ranks(seed: u64) -> Option<(u64, u128)> {
    const KEYS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];
    let hub = ObsHub::new();
    let mut queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(32).with_seed(seed));
    queue.attach_obs(QueueObs::with_sample_every(&hub, "exact", 1));
    let mut session = queue.register();
    for key in KEYS {
        session.insert(key, key);
    }
    if queue.lane_lengths().iter().any(|&len| len > 1) {
        return None; // this seed stacked a lane: the bound is not exact here
    }

    let mut mirror: BTreeSet<u64> = KEYS.into_iter().collect();
    let mut last = (0u64, 0u128); // (count, sum) of mq_rank_error so far
    while let Some((key, _)) = session.delete_min() {
        assert!(mirror.remove(&key), "removed a key that was never inserted");
        // With every element sitting alone in its lane, each remaining
        // smaller element *is* a lane top, so the probe's lane count is the
        // removal's exact rank among the contents at removal time.
        let exact = 1 + mirror.range(..key).count() as u64;
        let snap = hub.metrics().snapshot();
        let h = snap
            .histogram("mq_rank_error", &[("queue", "exact")])
            .expect("stride-1 sampling records the probe on every removal");
        assert_eq!(h.count(), last.0 + 1, "exactly one probe per removal");
        assert_eq!(
            h.sum(),
            last.1 + u128::from(exact),
            "sampled rank-error for key {key} must equal the exact rank {exact}"
        );
        last = (h.count(), h.sum());
    }
    assert!(mirror.is_empty(), "the drain returned every element");
    assert_eq!(last.0, KEYS.len() as u64);
    Some(last)
}

/// The estimator's exactness claim (`DESIGN.md` §12): single-threaded, with
/// at most one element per lane, the lane-top shadow probe *is* the exact
/// rank of every removal — checked removal-by-removal against a sorted
/// mirror across several random layouts, at least one of which must contain
/// a genuine rank error (sum > count) so the equality is not vacuous.
#[test]
fn single_threaded_shadow_probe_equals_the_exact_rank() {
    let mut layouts = 0u64;
    let mut imperfect = 0u64;
    for seed in 0..200 {
        if let Some((count, sum)) = drain_with_exact_ranks(seed) {
            layouts += 1;
            if sum > u128::from(count) {
                imperfect += 1;
            }
        }
        if layouts >= 8 && imperfect >= 1 {
            return;
        }
    }
    panic!(
        "200 seeds yielded {layouts} one-element-per-lane layouts \
         ({imperfect} with a rank error) — need 8 and 1"
    );
}

/// The estimator's envelope claim: under 4 threads the sampled shadow probe
/// is a per-removal lower bound on the ground-truth rank the merged
/// instrumented logs give (`InversionCounter`, exact once the queue fully
/// drains), so its mean can never exceed the ground-truth mean and its p99
/// — read back through the log-bucketed histogram, a ≤2× upper bound — can
/// never exceed twice the ground-truth p99.
#[test]
fn four_thread_estimated_p99_stays_within_the_inversion_envelope() {
    const THREADS: u64 = 4;
    const PREFILL: u64 = 2_048;
    const OPS: u64 = 10_000;
    /// Deterministic key scatter so lanes see an arbitrary arrival order.
    fn scatter(n: u64) -> u64 {
        n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24
    }

    let hub = ObsHub::new();
    let mut queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_seed(17));
    // Stride 1: every successful removal is probed, so the estimator and the
    // ground-truth log describe the same population of removals.
    queue.attach_obs(QueueObs::with_sample_every(&hub, "envelope", 1));

    let mut truth = InversionCounter::new();
    let logs = std::thread::scope(|scope| {
        let mut prefiller = queue.register();
        for i in 0..PREFILL {
            prefiller.insert(scatter(i), i);
        }
        drop(prefiller);
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut session = queue.register_with(HandlePolicy::instrumented());
                    for n in 0..OPS {
                        session.insert(scatter((t + 1) * 1_000_000 + n), n);
                        if n % 2 == 1 {
                            session.delete_min();
                        }
                    }
                    session.take_log()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    for log in logs {
        truth.record_all(log);
    }
    // Drain what is left so the inversion ranks are exact, not lower bounds
    // ("equals it when every inserted key is eventually removed").
    let mut drainer = queue.register_with(HandlePolicy::instrumented());
    while drainer.delete_min().is_some() {}
    truth.record_all(drainer.take_log());

    let mut ranks = truth.per_removal_ranks();
    ranks.sort_unstable();
    assert!(!ranks.is_empty());
    let truth_p99 = ranks[((ranks.len() as f64 * 0.99).ceil() as usize - 1).min(ranks.len() - 1)];
    let truth_mean = truth.summarize().mean_rank;

    let snap = hub.metrics().snapshot();
    let est = snap
        .histogram("mq_rank_error", &[("queue", "envelope")])
        .expect("stride-1 sampling populated the estimator");
    assert_eq!(
        est.count(),
        truth.len() as u64,
        "estimator and ground truth must describe the same removals"
    );
    let est_mean = est.mean();
    assert!(
        est_mean <= truth_mean + 1e-9,
        "the shadow probe is a per-removal lower bound, so its mean \
         ({est_mean:.3}) can never exceed the ground-truth mean ({truth_mean:.3})"
    );
    let est_p99 = est
        .quantile_upper_bound(0.99)
        .expect("non-empty estimator histogram");
    assert!(
        est_p99 >= 1,
        "every removal has rank at least 1, so must its p99 bound"
    );
    assert!(
        est_p99 <= 2 * truth_p99.max(1),
        "estimated p99 ({est_p99}) outside the InversionCounter envelope \
         (ground truth p99 {truth_p99}, log-bucket slack 2x)"
    );
}

/// The handles' counts are the queue's counts. Three sessions run mixed
/// `insert`, `insert_all`, `delete_min` and `delete_min_batch` calls at the
/// default stride while another thread holds a lane, so retries happen;
/// once every handle has dropped, `mq_ops_total` is exactly the sum of the
/// handles' `operations()`, and the lock and sparse retry counters add up
/// to their `contended_retries`. A live handle's counts reach the queue's
/// counters at its sampled calls, so they lag by fewer than 64 calls.
#[test]
fn handle_counts_fold_exactly_into_the_queue_counters() {
    const WORKERS: u64 = 3;
    const CALLS: u64 = 4_000;
    let hub = ObsHub::new();
    let mut queue = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(8).with_seed(5));
    queue.attach_obs(QueueObs::new(&hub, "fold"));
    let labels = [("queue", "fold")];
    let counter = |name| hub.metrics().counter(name, &labels).value();
    let held = std::sync::Barrier::new(WORKERS as usize + 1);
    let contended = AtomicBool::new(false);

    let mut sessions: Vec<HandleStats> = std::thread::scope(|scope| {
        let (queue, held, contended) = (&queue, &held, &contended);
        // Holds lane 0 until some call has lost a `try_lock` to it.
        scope.spawn(move || {
            queue.with_lane_locked(0, || {
                held.wait();
                let start = std::time::Instant::now();
                while !contended.load(Ordering::Relaxed) && start.elapsed().as_secs() < 5 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut h = queue.register();
                    held.wait();
                    let mut batch = Vec::new();
                    for i in 0..CALLS {
                        let key = (w << 32) | (i << 2);
                        match i % 4 {
                            0 => h.insert(key, key),
                            1 => h.insert_all(&mut vec![(key, 0), (key | 1, 1), (key | 2, 2)]),
                            2 => drop(h.delete_min()),
                            _ => drop(h.delete_min_batch_into(3, &mut batch)),
                        }
                        if h.stats().contended_retries > 0 {
                            contended.store(true, Ordering::Relaxed);
                        }
                    }
                    h.stats()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(
        contended.load(Ordering::Relaxed),
        "no call met the held lane"
    );

    // A live handle: after each call, the folded total is what the handle
    // had counted after one of its last 64 calls.
    let base = counter("mq_ops_total");
    let mut h = queue.register();
    let mut counted = vec![0u64];
    let mut batch = Vec::new();
    for i in 0..1_000u64 {
        match i % 3 {
            0 => h.insert(i, i),
            1 => h.insert_all(&mut vec![(i, i), (i + 1, i)]),
            _ => drop(h.delete_min_batch_into(2, &mut batch)),
        }
        counted.push(h.stats().operations());
        let folded = counter("mq_ops_total") - base;
        let recent = &counted[counted.len().saturating_sub(64)..];
        assert!(
            recent.contains(&folded),
            "call {i}: {folded} folded, last 64 counts {recent:?}"
        );
    }
    sessions.push(h.stats());
    drop(h);

    let sum = |f: fn(&HandleStats) -> u64| sessions.iter().map(f).sum::<u64>();
    assert_eq!(counter("mq_ops_total"), sum(HandleStats::operations));
    assert_eq!(
        counter("mq_lock_retries_total") + counter("mq_sparse_retries_total"),
        sum(|s| s.contended_retries)
    );
}

/// A sparse retry is a removal whose samples all missed the occupied lanes.
/// One key on 4096 lanes with d = 1 makes nearly every sample miss, and a
/// single session contends with nobody: every retry is sparse, and the
/// sparse counter holds them all.
#[test]
fn sparse_retries_reach_their_own_counter() {
    let hub = ObsHub::new();
    let labels = [("queue", "sparse")];
    let mut retries = 0;
    for seed in 0..10u64 {
        let mut queue = MultiQueue::<u64>::new(
            MultiQueueConfig::with_queues(4096)
                .with_d(1)
                .with_seed(seed),
        );
        queue.attach_obs(QueueObs::new(&hub, "sparse"));
        let mut h = queue.register();
        h.insert(5, 50);
        assert_eq!(h.delete_min_batch(4).count(), 1);
        retries += h.stats().contended_retries;
    }
    let snap = hub.metrics().snapshot();
    assert!(retries > 0, "no removal missed the lone key");
    assert_eq!(
        snap.counter("mq_sparse_retries_total", &labels),
        Some(retries)
    );
    assert_eq!(snap.counter("mq_lock_retries_total", &labels), Some(0));
}
