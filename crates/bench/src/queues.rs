//! Construction of every benchmarked queue behind one enum.

use std::sync::Arc;

use choice_pq::{ChoiceRule, DynSharedPq, MultiQueue, MultiQueueConfig};
use pq_baselines::{CoarseHeap, KLsmConfig, KLsmQueue, SkipListQueue};

/// Which concurrent priority queue to benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueueSpec {
    /// The (1 + β) MultiQueue with `c` queues per thread.
    MultiQueue {
        /// Two-choice probability β.
        beta: f64,
        /// Queues-per-thread factor.
        queues_per_thread: usize,
    },
    /// The d-choice MultiQueue with `c` queues per thread (the `d_sweep`
    /// axis of `t5_choice_sweep`).
    MultiQueueD {
        /// Number of lanes sampled per deleteMin.
        d: usize,
        /// Queues-per-thread factor.
        queues_per_thread: usize,
    },
    /// The d-choice MultiQueue with `c` queues per thread split into
    /// insert shards (the `t10_lanes` sweep).
    MultiQueueSharded {
        /// Number of lanes sampled per deleteMin.
        d: usize,
        /// Insert shard count (at most the lane count).
        shards: usize,
        /// Queues-per-thread factor.
        queues_per_thread: usize,
    },
    /// The coarse-locked exact heap.
    CoarseHeap,
    /// The centralized skiplist queue (Lindén–Jonsson-style).
    SkipList,
    /// The k-LSM-style deterministic relaxed queue.
    KLsm {
        /// Relaxation factor k.
        relaxation: usize,
    },
}

impl QueueSpec {
    /// The MultiQueue with the paper's default `c = 2` factor.
    pub fn multiqueue(beta: f64) -> Self {
        QueueSpec::MultiQueue {
            beta,
            queues_per_thread: 2,
        }
    }

    /// The d-choice MultiQueue with the default `c = 2` factor.
    pub fn multiqueue_d(d: usize) -> Self {
        QueueSpec::MultiQueueD {
            d,
            queues_per_thread: 2,
        }
    }

    /// Short name used in table rows.
    pub fn label(&self) -> String {
        match self {
            QueueSpec::MultiQueue {
                beta,
                queues_per_thread,
            } => format!("multiqueue(beta={beta}, c={queues_per_thread})"),
            QueueSpec::MultiQueueD {
                d,
                queues_per_thread,
            } => format!("multiqueue(d={d}, c={queues_per_thread})"),
            QueueSpec::MultiQueueSharded {
                d,
                shards,
                queues_per_thread,
            } => format!("multiqueue(d={d}, s={shards}, c={queues_per_thread})"),
            QueueSpec::CoarseHeap => "coarse-heap".to_string(),
            QueueSpec::SkipList => "skiplist".to_string(),
            QueueSpec::KLsm { relaxation } => format!("klsm(k={relaxation})"),
        }
    }

    /// The default line-up benchmarked in Figures 1 and 3: (1 + β)
    /// MultiQueues for β ∈ {1.0, 0.75, 0.5}, the skiplist queue, the k-LSM
    /// (k = 256), and the coarse heap.
    pub fn figure_lineup() -> Vec<QueueSpec> {
        vec![
            QueueSpec::multiqueue(1.0),
            QueueSpec::multiqueue(0.75),
            QueueSpec::multiqueue(0.5),
            QueueSpec::SkipList,
            QueueSpec::KLsm { relaxation: 256 },
            QueueSpec::CoarseHeap,
        ]
    }
}

/// Builds a queue for `threads` worker threads, type-erased behind the
/// [`DynSharedPq`] session interface (register a handle per worker with
/// `queue.register_dyn()`; `&*queue` also works as a generic
/// [`SharedPq`](choice_pq::SharedPq)).
pub fn build_queue<V: Send + 'static>(
    spec: QueueSpec,
    threads: usize,
    seed: u64,
) -> Arc<dyn DynSharedPq<V>> {
    match spec {
        QueueSpec::MultiQueue {
            beta,
            queues_per_thread,
        } => Arc::new(MultiQueue::new(
            MultiQueueConfig::for_threads_with_factor(threads, queues_per_thread)
                .with_beta(beta)
                .with_seed(seed),
        )),
        QueueSpec::MultiQueueD {
            d,
            queues_per_thread,
        } => Arc::new(MultiQueue::new(
            MultiQueueConfig::for_threads_with_factor(threads, queues_per_thread)
                .with_choice(ChoiceRule::uniform(d))
                .with_seed(seed),
        )),
        QueueSpec::MultiQueueSharded {
            d,
            shards,
            queues_per_thread,
        } => Arc::new(MultiQueue::new(
            MultiQueueConfig::for_threads_with_factor(threads, queues_per_thread)
                .with_choice(ChoiceRule::uniform(d))
                .with_shards(shards)
                .with_seed(seed),
        )),
        QueueSpec::CoarseHeap => Arc::new(CoarseHeap::new()),
        QueueSpec::SkipList => Arc::new(SkipListQueue::with_seed(seed)),
        QueueSpec::KLsm { relaxation } => Arc::new(KLsmQueue::new(
            KLsmConfig::for_threads(threads.max(1)).with_relaxation(relaxation),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choice_pq::SharedPq;

    #[test]
    fn labels_are_distinct_and_descriptive() {
        let lineup = QueueSpec::figure_lineup();
        let labels: Vec<String> = lineup.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(labels.iter().any(|l| l.contains("beta=0.75")));
        assert!(labels.iter().any(|l| l == "coarse-heap"));
    }

    #[test]
    fn every_spec_builds_a_working_queue() {
        for spec in QueueSpec::figure_lineup() {
            let q = build_queue::<u64>(spec, 2, 7);
            let mut h = q.register_dyn();
            h.insert(5, 50);
            h.insert(1, 10);
            let popped = h.delete_min().expect("non-empty");
            assert!(popped.0 == 1 || popped.0 == 5);
            assert_eq!(q.approx_len(), 1);
        }
    }

    #[test]
    fn multiqueue_spec_respects_thread_scaling() {
        let q = build_queue::<u64>(QueueSpec::multiqueue(1.0), 4, 1);
        // 4 threads * 2 queues/thread = 8 lanes; we can only check indirectly
        // through the name, which embeds the config.
        assert!(q.name().contains("n=8"));
    }

    #[test]
    fn sharded_spec_builds_a_sharded_queue() {
        let spec = QueueSpec::MultiQueueSharded {
            d: 4,
            shards: 2,
            queues_per_thread: 4,
        };
        assert_eq!(spec.label(), "multiqueue(d=4, s=2, c=4)");
        let q = build_queue::<u64>(spec, 2, 7);
        let shape = q.topology_dyn();
        assert_eq!(shape.lanes, 8, "2 threads × c=4");
        assert_eq!(shape.shards, 2);
        let mut h = q.register_dyn();
        h.insert(1, 10);
        assert_eq!(h.delete_min(), Some((1, 10)));
    }

    #[test]
    fn d_choice_spec_builds_and_labels() {
        let spec = QueueSpec::multiqueue_d(4);
        assert_eq!(spec.label(), "multiqueue(d=4, c=2)");
        let q = build_queue::<u64>(spec, 2, 7);
        assert!(q.name().contains("d=4"));
        let mut h = q.register_dyn();
        h.insert(3, 30);
        h.insert(1, 10);
        let mut out = Vec::new();
        // Batched deletion works through the erased handle (Box forwarding);
        // d = n samples every lane, so the first batch starts at the global
        // minimum (the batch may stop early if the two keys straddle lanes).
        assert!(h.delete_min_batch_into(8, &mut out) >= 1);
        assert_eq!(out[0], (1, 10));
        while h.delete_min_batch_into(8, &mut out) > 0 {}
        assert_eq!(out.len(), 2);
    }
}
