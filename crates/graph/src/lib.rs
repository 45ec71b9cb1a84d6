//! Graph substrate and single-source shortest paths (SSSP).
//!
//! Figure 3 of the paper runs a parallel version of Dijkstra's algorithm on a
//! road network (the California graph), using the relaxed priority queues as
//! the work queue: priority inversions only cost extra relaxations, never
//! correctness, which is exactly the "offset the cost of priority inversions
//! by performing additional work" observation from the paper's introduction.
//!
//! This crate provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) weighted
//!   directed graph;
//! * [`generators`] — synthetic road-network-like graphs (grid and random
//!   geometric graphs) plus Erdős–Rényi graphs, substituting for the paper's
//!   proprietary road data (see `DESIGN.md`);
//! * [`dijkstra`](fn@dijkstra) — a sequential reference Dijkstra over a binary
//!   heap, and a Bellman–Ford cross-check;
//! * [`parallel`] — parallel SSSP over any [`SharedPq`](choice_pq::SharedPq)
//!   (each worker registers its own session handle), with re-relaxation on
//!   stale pops, the algorithm benchmarked in Figure 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dijkstra;
pub mod generators;
pub mod graph;
pub mod parallel;

pub use dijkstra::{bellman_ford, dijkstra};
pub use generators::{grid_graph, random_geometric_graph, random_graph};
pub use graph::{Graph, NodeId, Weight};
pub use parallel::{parallel_sssp, ParallelSsspStats};
