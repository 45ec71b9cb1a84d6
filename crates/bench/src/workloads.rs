//! The concurrent workloads of the paper's evaluation section.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use choice_pq::{DynSharedPq, HandlePolicy, MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
use rank_stats::inversion::{InversionCounter, InversionSummary};
use rank_stats::rng::{RandomSource, Xoshiro256};
use rank_stats::timing::OpsTimer;
use sssp_graph::{parallel_sssp, Graph};

/// Result of one throughput trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputResult {
    /// Completed operations (inserts + deleteMins).
    pub operations: u64,
    /// Operations per second.
    pub ops_per_second: f64,
}

/// The Figure 1 workload: `threads` workers perform alternating
/// insert/deleteMin pairs against a queue prefilled with `prefill` elements,
/// for `ops_per_thread` operations each. Keys are drawn uniformly from a large
/// key space, as in the benchmark framework the paper uses. Each worker
/// operates through its own registered session handle.
///
/// Removals that find the structure empty do not count towards throughput
/// (matching the paper's methodology); with the prefill sized well above the
/// drain rate they essentially never happen.
pub fn throughput_workload(
    queue: Arc<dyn DynSharedPq<u64>>,
    threads: usize,
    prefill: u64,
    ops_per_thread: u64,
    seed: u64,
) -> ThroughputResult {
    assert!(threads > 0, "need at least one thread");
    let key_space = 1u64 << 40;
    let mut rng = Xoshiro256::seeded(seed);
    {
        let mut loader = queue.register_dyn();
        for _ in 0..prefill {
            loader.insert(rng.next_below(key_space), 0);
        }
    }
    let completed = Arc::new(AtomicU64::new(0));
    let timer = OpsTimer::start();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let queue = Arc::clone(&queue);
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                let mut handle = queue.register_dyn();
                let mut rng = Xoshiro256::seeded(seed ^ (t as u64 + 1).wrapping_mul(0x9E37));
                let mut done = 0u64;
                let mut i = 0u64;
                while done < ops_per_thread {
                    if i.is_multiple_of(2) {
                        handle.insert(rng.next_below(key_space), t as u64);
                        done += 1;
                    } else if handle.delete_min().is_some() {
                        done += 1;
                    }
                    i += 1;
                }
                completed.fetch_add(done, Ordering::Relaxed);
            });
        }
    });
    let operations = completed.load(Ordering::Relaxed);
    ThroughputResult {
        operations,
        ops_per_second: timer.ops_per_second(operations),
    }
}

/// The Figure 2 workload: a MultiQueue with `queues` lanes and the given β is
/// prefilled with `prefill` consecutive keys; `threads` workers then perform
/// alternating insert/deleteMin pairs (inserting fresh increasing keys)
/// through instrumented session handles
/// ([`HandlePolicy::instrumented`]), which log every removal with a globally
/// coherent timestamp. The merged logs are post-processed into rank
/// statistics exactly as in Section 5.
pub fn rank_quality_workload(
    queues: usize,
    beta: f64,
    threads: usize,
    prefill: u64,
    ops_per_thread: u64,
    seed: u64,
) -> InversionSummary {
    let config = MultiQueueConfig::with_queues(queues)
        .with_beta(beta)
        .with_seed(seed);
    instrumented_rank_run(config, threads, prefill, ops_per_thread, 1)
}

/// The shared instrumented phase of [`rank_quality_workload`] and
/// [`d_sweep_workload`]: prefill with consecutive keys, then have `threads`
/// workers alternate `batch` fresh increasing inserts with one
/// `delete_min_batch_into(batch)` (plain `delete_min` semantics when
/// `batch == 1`), and merge the per-handle removal logs into rank statistics.
fn instrumented_rank_run(
    config: MultiQueueConfig,
    threads: usize,
    prefill: u64,
    ops_per_thread: u64,
    batch: usize,
) -> InversionSummary {
    assert!(threads > 0, "need at least one thread");
    assert!(batch > 0, "need a positive delete batch");
    let queue = MultiQueue::<u64>::new(config);
    {
        let mut loader = queue.register();
        for k in 0..prefill {
            loader.insert(k, k);
        }
    }
    // Fresh keys continue after the prefill; a shared counter hands out blocks.
    let next_key = AtomicU64::new(prefill);
    let logs: Vec<Vec<rank_stats::inversion::TimestampedRemoval>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let queue = &queue;
            let next_key = &next_key;
            handles.push(scope.spawn(move || {
                let mut handle = queue.register_with(HandlePolicy::instrumented());
                let mut pops = Vec::with_capacity(batch);
                let rounds = (ops_per_thread / batch as u64).max(1);
                for _ in 0..rounds {
                    let base = next_key.fetch_add(batch as u64, Ordering::Relaxed);
                    for j in 0..batch as u64 {
                        handle.insert(base + j, base + j);
                    }
                    pops.clear();
                    handle.delete_min_batch_into(batch, &mut pops);
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
    counter.summarize()
}

/// Result of one `d_sweep` trial: throughput and rank quality of a
/// (d, delete-batch) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DSweepResult {
    /// Throughput of the uninstrumented timed phase.
    pub throughput: ThroughputResult,
    /// Rank quality of the instrumented phase (same configuration, fresh
    /// queue).
    pub rank: InversionSummary,
}

/// The `d_sweep` workload axis behind `t5_choice_sweep`: a d-choice
/// MultiQueue with batched deletion, measured for both throughput and rank
/// quality.
///
/// Two phases run per configuration, both over a queue with `queues` lanes,
/// the `DChoice(d)` rule and per-handle delete batches of `batch`:
///
/// 1. **throughput** — `threads` workers alternate `batch` inserts with one
///    `delete_min_batch_into(batch)` against a prefilled queue (uncontended
///    when `threads == 1`); completed inserts + removals per second.
/// 2. **rank** — a fresh, identically configured queue is driven the same
///    way through instrumented handles and the merged removal logs are
///    post-processed into rank statistics (Section 5 methodology).
///
/// Keeping the phases separate keeps the timestamping overhead of the
/// instrumented handles out of the throughput numbers.
pub fn d_sweep_workload(
    d: usize,
    batch: usize,
    threads: usize,
    queues: usize,
    prefill: u64,
    ops_per_thread: u64,
    seed: u64,
) -> DSweepResult {
    assert!(threads > 0, "need at least one thread");
    assert!(batch > 0, "need a positive delete batch");
    let config = MultiQueueConfig::with_queues(queues)
        .with_d(d)
        .with_seed(seed);
    let key_space = 1u64 << 40;

    // Phase 1: throughput, uninstrumented.
    let queue = MultiQueue::<u64>::new(config.clone());
    {
        let mut loader = queue.register();
        let mut rng = Xoshiro256::seeded(seed);
        for _ in 0..prefill {
            loader.insert(rng.next_below(key_space), 0);
        }
    }
    let completed = AtomicU64::new(0);
    let timer = OpsTimer::start();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let queue = &queue;
            let completed = &completed;
            scope.spawn(move || {
                let mut handle = queue.register();
                let mut rng = Xoshiro256::seeded(seed ^ (t as u64 + 1).wrapping_mul(0x9E37));
                let mut pops = Vec::with_capacity(batch);
                let mut done = 0u64;
                while done < ops_per_thread {
                    for _ in 0..batch {
                        handle.insert(rng.next_below(key_space), t as u64);
                    }
                    done += batch as u64;
                    pops.clear();
                    done += handle.delete_min_batch_into(batch, &mut pops) as u64;
                }
                completed.fetch_add(done, Ordering::Relaxed);
            });
        }
    });
    let operations = completed.load(Ordering::Relaxed);
    let throughput = ThroughputResult {
        operations,
        ops_per_second: timer.ops_per_second(operations),
    };

    // Phase 2: rank quality on a fresh, identically configured queue.
    DSweepResult {
        throughput,
        rank: instrumented_rank_run(config, threads, prefill, ops_per_thread, batch),
    }
}

/// The Figure 3 workload: parallel SSSP from node 0 over the given queue.
/// Returns `(seconds, stale_fraction)`.
pub fn sssp_workload(
    graph: &Graph,
    queue: Arc<dyn DynSharedPq<u32>>,
    threads: usize,
) -> (f64, f64) {
    let timer = OpsTimer::start();
    let (_dist, stats) = parallel_sssp(graph, 0, &*queue, threads);
    (timer.elapsed().as_secs_f64(), stats.stale_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{build_queue, QueueSpec};
    use sssp_graph::grid_graph;

    #[test]
    fn throughput_workload_completes_all_operations() {
        let q = build_queue(QueueSpec::multiqueue(0.75), 2, 3);
        let result = throughput_workload(q, 2, 2_000, 2_000, 3);
        assert_eq!(result.operations, 4_000);
        assert!(result.ops_per_second > 0.0);
    }

    #[test]
    fn throughput_workload_on_exact_queues() {
        let q = build_queue(QueueSpec::CoarseHeap, 2, 3);
        let result = throughput_workload(q, 2, 500, 500, 3);
        assert_eq!(result.operations, 1_000);
    }

    #[test]
    fn rank_quality_single_thread_is_order_n() {
        let r = rank_quality_workload(8, 1.0, 1, 20_000, 10_000, 5);
        assert_eq!(r.removals, 10_000);
        assert!(r.mean_rank >= 1.0);
        assert!(
            r.mean_rank < 4.0 * 8.0,
            "single-threaded mean rank {} should be O(n)",
            r.mean_rank
        );
        assert!(r.max_rank >= 1);
    }

    #[test]
    fn rank_quality_beta_ordering() {
        // Single worker: with several workers on an oversubscribed test
        // machine, preemption while holding lane locks (the Appendix C
        // pathology) adds scheduling noise that can swamp the β effect and
        // invert this ordering; single-threaded, the workload mirrors the
        // sequential model the theorems describe and the ordering is robust.
        let tight = rank_quality_workload(8, 1.0, 1, 20_000, 10_000, 9);
        let loose = rank_quality_workload(8, 0.125, 1, 20_000, 10_000, 9);
        assert!(
            loose.mean_rank > tight.mean_rank,
            "beta=0.125 rank {} should exceed beta=1 rank {}",
            loose.mean_rank,
            tight.mean_rank
        );
    }

    #[test]
    fn d_sweep_workload_reports_both_axes() {
        let r = d_sweep_workload(4, 8, 2, 8, 2_000, 2_000, 11);
        assert!(r.throughput.operations >= 4_000);
        assert!(r.throughput.ops_per_second > 0.0);
        assert!(r.rank.removals > 0);
        assert!(r.rank.mean_rank >= 1.0);
    }

    #[test]
    fn d_sweep_larger_d_means_better_rank_sequentially() {
        let wide = d_sweep_workload(8, 1, 1, 8, 20_000, 10_000, 5);
        let narrow = d_sweep_workload(1, 1, 1, 8, 20_000, 10_000, 5);
        assert!(
            wide.rank.mean_rank < narrow.rank.mean_rank,
            "d=8 rank {} should beat d=1 rank {}",
            wide.rank.mean_rank,
            narrow.rank.mean_rank
        );
    }

    #[test]
    fn sssp_workload_runs() {
        let g = grid_graph(20, 20, 20, 1);
        let q = build_queue::<u32>(QueueSpec::multiqueue(0.75), 2, 1);
        let (seconds, stale) = sssp_workload(&g, q, 2);
        assert!(seconds > 0.0);
        assert!((0.0..=1.0).contains(&stale));
    }
}
