//! # power-of-choice
//!
//! A from-scratch Rust reproduction of *The Power of Choice in Priority
//! Scheduling* (Alistarh, Kopinsky, Li, Nadiradze; PODC 2017 /
//! arXiv:1706.04178): the **(1 + β) MultiQueue** relaxed concurrent priority
//! queue, the sequential and exponential processes its analysis is built on,
//! the balls-into-bins substrates, the baseline priority queues it is compared
//! against, and a parallel Dijkstra application — plus a benchmark harness
//! that regenerates every figure of the paper's evaluation and every
//! quantitative claim of its analysis.
//!
//! This crate is a façade: it re-exports the individual crates of the
//! workspace under stable module names so applications can depend on a single
//! crate. See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction details.
//!
//! ## Quick start
//!
//! A queue is a [`SharedPq`](prelude::SharedPq); every worker registers a
//! session handle carrying its private state (RNG stream, insert shard and,
//! under `HandlePolicy::instrumented()`, a removal log):
//!
//! ```
//! use power_of_choice::prelude::*;
//!
//! // A MultiQueue sized for 4 worker threads, with the paper's beta = 0.75.
//! let pq = MultiQueue::<&'static str>::new(
//!     MultiQueueConfig::for_threads(4).with_beta(0.75),
//! );
//! let mut session = pq.register();
//! session.insert(20, "world");
//! session.insert(10, "hello");
//! let (key, word) = session.delete_min().unwrap();
//! assert!(key == 10 || key == 20);
//! println!("popped {word}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Statistics utilities: PRNGs, Fenwick trees, order statistics,
/// rank-inversion accounting, timing.
pub use rank_stats as stats;

/// Sequential priority queue substrates (MultiQueue lanes).
pub use seq_pq;

/// Balls-into-bins allocation processes.
pub use balls_bins;

/// The sequential labelled process, exponential process and potential
/// functions from the paper's analysis.
pub use choice_process as process;

/// The concurrent (1 + β) MultiQueue — the paper's contribution.
pub use choice_pq as multiqueue;

/// Baseline concurrent priority queues (coarse heap, skiplist, k-LSM-style).
pub use pq_baselines as baselines;

/// Graphs, generators and sequential/parallel Dijkstra.
pub use sssp_graph as graph;

/// The relaxed-priority task scheduler and open-loop traffic engine — the
/// paper's motivating application class, built on the session API.
pub use choice_sched as sched;

/// The TCP priority-queue service: wire protocol, session-per-connection
/// server and blocking pipelined client ("choice-wire").
pub use choice_wire as service;

/// Multi-tenant named-queue registry: per-queue backend choice, quotas and
/// admission control ("choice-registry"). The service layer fronts one of
/// these; it is equally usable in process.
pub use choice_registry as registry;

/// Unified telemetry ("choice-obs"): the sharded lock-free metrics
/// registry, the flight-recorder event ring, and the sampling helpers every
/// layer above reports through.
pub use choice_obs as obs;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use balls_bins::{AllocationProcess, ChoiceRule};
    pub use choice_obs::{EventKind, FlightRecorder, MetricsRegistry, ObsHub};
    pub use choice_pq::{
        DynSharedPq, HandlePolicy, HandleStats, Key, MultiQueue, MultiQueueConfig, PqHandle,
        QueueTopology, SharedPq,
    };
    pub use choice_process::{
        BiasSpec, ExponentialTopProcess, ProcessConfig, RankCostSummary, SequentialProcess,
    };
    pub use choice_registry::{BackendSpec, QueueRegistry, QuotaSpec, DEFAULT_QUEUE};
    pub use choice_sched::{LatenessTracker, Scheduler, SchedulerConfig, SchedulerReport, TaskCtx};
    pub use choice_wire::{PqClient, PqServer, ServerConfig, ServiceStats};
    pub use pq_baselines::{CoarseHeap, KLsmConfig, KLsmQueue, SkipListQueue};
    pub use rank_stats::inversion::InversionCounter;
    pub use seq_pq::{BinaryHeap, SequentialPriorityQueue, SkipListPq};
    pub use sssp_graph::{dijkstra, grid_graph, parallel_sssp, random_geometric_graph, Graph};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        // Build a tiny end-to-end pipeline touching several crates through the
        // facade: a process run, a concurrent queue, and a graph.
        let mut process = SequentialProcess::new(ProcessConfig::new(4).with_beta(1.0));
        process.prefill(100);
        assert!(process.run_removals(50).mean_rank >= 1.0);

        let queue = MultiQueue::<u32>::new(MultiQueueConfig::with_queues(4));
        queue.register().insert(3, 3);
        assert_eq!(queue.approx_len(), 1);

        let graph = grid_graph(4, 4, 5, 1);
        assert_eq!(dijkstra(&graph, 0).len(), 16);
    }
}
