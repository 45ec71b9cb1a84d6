//! Quickstart: create a (1 + β) MultiQueue, use it from several threads
//! through registered session handles, and measure how relaxed it actually
//! was.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Environment knobs (used by the CI smoke run): `QUICKSTART_ITEMS` (items
//! per thread, default 50000), `QUICKSTART_THREADS` (default 4).

use std::sync::atomic::{AtomicU64, Ordering};

use choice_bench::env_u64;
use power_of_choice::prelude::*;

fn main() {
    let threads = env_u64("QUICKSTART_THREADS", 4) as usize;
    let per_thread_items = env_u64("QUICKSTART_ITEMS", 50_000);

    // The paper's recommended sizing: c = 2 queues per thread, beta = 0.75.
    let config = MultiQueueConfig::for_threads(threads).with_beta(0.75);
    println!("creating {}", config.label());
    let queue = MultiQueue::<u64>::new(config);

    // Each thread registers an *instrumented* session handle, inserts a block
    // of keys and then removes the same number. Instrumented handles log
    // removals against the queue's shared coherent clock, so we can compute
    // the mean rank afterwards (the Section 5 methodology).
    let next_key = AtomicU64::new(0);

    let logs: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let queue = &queue;
            let next_key = &next_key;
            handles.push(scope.spawn(move || {
                let mut session = queue.register_with(HandlePolicy::instrumented());
                for _ in 0..per_thread_items {
                    let key = next_key.fetch_add(1, Ordering::Relaxed);
                    session.insert(key, key);
                }
                for _ in 0..per_thread_items {
                    session.delete_min();
                }
                println!(
                    "session {} performed {} operations",
                    session.id(),
                    session.stats().operations()
                );
                session.take_log()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut counter = InversionCounter::new();
    for log in logs {
        counter.record_all(log);
    }
    let summary = counter.summarize();
    println!(
        "performed {} removals across {threads} threads",
        summary.removals
    );
    println!(
        "mean rank of removed elements: {:.2} (1.0 would be a perfectly exact queue)",
        summary.mean_rank
    );
    println!("maximum rank observed:        {}", summary.max_rank);
    println!(
        "theory (Theorem 1): mean rank = O(n) with n = {} internal queues",
        threads * MultiQueueConfig::DEFAULT_QUEUES_PER_THREAD
    );
    assert!(queue.is_empty());
}
