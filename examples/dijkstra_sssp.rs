//! Parallel single-source shortest paths on a synthetic road network — the
//! Figure 3 application — comparing the relaxed MultiQueue against an exact
//! coarse-locked heap.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dijkstra_sssp
//! ```
//!
//! Environment knobs (used by the CI smoke run): `SSSP_GRID` (grid side
//! length, default 200), `SSSP_THREADS` (parallel workers, default 4).

use std::time::Instant;

use choice_bench::env_u64;
use power_of_choice::prelude::*;

fn main() {
    // A sparse road-like graph: side×side grid, random weights in [1, 1000].
    let side = env_u64("SSSP_GRID", 200).max(2) as usize;
    let graph = grid_graph(side, side, 1_000, 7);
    println!(
        "graph: {} nodes, {} directed edges (synthetic stand-in for a road network)",
        graph.nodes(),
        graph.edges()
    );

    // Exact sequential reference.
    let t0 = Instant::now();
    let reference = dijkstra(&graph, 0);
    println!("sequential Dijkstra: {:?}", t0.elapsed());

    let threads = env_u64("SSSP_THREADS", 4).max(1) as usize;

    // Relaxed MultiQueue, beta = 0.75 (the paper's sweet spot). Each SSSP
    // worker registers its own session handle on it.
    let mq = MultiQueue::<u32>::new(MultiQueueConfig::for_threads(threads).with_beta(0.75));
    let t1 = Instant::now();
    let (dist_mq, stats_mq) = parallel_sssp(&graph, 0, &mq, threads);
    println!(
        "parallel ({} threads, multiqueue beta=0.75): {:?}  stale pops: {:.1}%",
        threads,
        t1.elapsed(),
        stats_mq.stale_fraction() * 100.0
    );
    assert_eq!(dist_mq, reference, "relaxation must not change the answer");

    // Exact coarse-locked heap for contrast.
    let coarse = CoarseHeap::new();
    let t2 = Instant::now();
    let (dist_coarse, _) = parallel_sssp(&graph, 0, &coarse, threads);
    println!(
        "parallel ({} threads, coarse-locked heap):   {:?}",
        threads,
        t2.elapsed()
    );
    assert_eq!(dist_coarse, reference);

    let reachable = reference.iter().filter(|&&d| d != u64::MAX).count();
    let longest = reference
        .iter()
        .filter(|&&d| d != u64::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    println!("reachable nodes: {reachable}, longest shortest path: {longest}");
    println!("all three distance vectors agree — relaxation costs extra work, not correctness");
}
