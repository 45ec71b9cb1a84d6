//! The MultiQueue as a network service: spawn a choice-wire server on an
//! ephemeral loopback port, drive it from several pipelined clients, and
//! read back the aggregated per-session statistics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pq_service
//! ```
//!
//! Environment knobs (used by the CI smoke run): `SERVICE_ITEMS` (items per
//! client, default 20000), `SERVICE_CLIENTS` (default 4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use choice_bench::env_u64;
use power_of_choice::prelude::*;
use power_of_choice::service::{Request, Response};

/// Pipeline credit window of every client.
const WINDOW: usize = 32;

fn main() {
    let per_client_items = env_u64("SERVICE_ITEMS", 20_000);
    let clients = env_u64("SERVICE_CLIENTS", 4) as usize;

    // The queue outlives the server: the Arc is shared, not moved away.
    let queue: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::new(
        MultiQueueConfig::for_threads(clients)
            .with_beta(0.75)
            .with_seed(7),
    ));
    let server = PqServer::spawn(Arc::clone(&queue), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    println!(
        "serving {} on {} ({clients} clients × {per_client_items} items, window {WINDOW})",
        queue.name_dyn(),
        server.local_addr()
    );

    let total = clients as u64 * per_client_items;
    let t0 = Instant::now();
    // Relaxed emptiness is best-effort: one client's empty batch does not
    // prove the queue is drained while others still insert, so the fleet
    // terminates on a shared count of entries actually popped, never on an
    // empty observation.
    let collected = AtomicU64::new(0);
    let popped: u64 = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients as u64)
            .map(|c| {
                let addr = server.local_addr();
                let collected = &collected;
                scope.spawn(move || {
                    // One pipelined session per worker — the remote mirror
                    // of "one registered handle per thread".
                    let mut client = PqClient::connect_with_window(addr, WINDOW).expect("connect");
                    for i in 0..per_client_items {
                        client
                            .submit(&Request::Insert {
                                key: c * per_client_items + i,
                                value: i,
                            })
                            .expect("pipelined insert");
                    }
                    client.drain_all(|_| {}).expect("insert acks");
                    let mut popped = 0u64;
                    while collected.load(Ordering::SeqCst) < total {
                        let entries = client.delete_min_batch(64).expect("batched removal");
                        if entries.is_empty() {
                            std::thread::yield_now();
                            continue;
                        }
                        collected.fetch_add(entries.len() as u64, Ordering::SeqCst);
                        popped += entries.len() as u64;
                    }
                    popped
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });
    let elapsed = t0.elapsed();
    println!(
        "round-tripped {total} inserts; popped {popped} back ({:.0} kops/s over loopback TCP)",
        (total + popped) as f64 / elapsed.as_secs_f64() / 1e3
    );

    // One last client reads the aggregate: every session's HandleStats
    // merged server-side (the wire Stats op).
    let mut observer = PqClient::connect(server.local_addr()).expect("connect");
    let stats = observer.stats().expect("stats op");
    println!(
        "server stats: {} sessions, {} inserts, {} removals, {} empty polls",
        stats.sessions, stats.totals.inserts, stats.totals.removals, stats.totals.empty_polls
    );
    match observer.submit(&Request::Insert {
        key: u64::MAX,
        value: 0,
    }) {
        Ok(None) => {
            let (response, _) = observer.drain_one().expect("refusal frame");
            assert!(matches!(response, Response::Error { .. }));
            println!("reserved-key insert refused over the wire (no panic, session intact)");
        }
        other => panic!("unexpected submit outcome: {other:?}"),
    }

    observer.shutdown_server().expect("shutdown handshake");
    let final_stats = server.join();
    assert_eq!(final_stats.totals.inserts, total);
    assert!(
        popped == total && queue.is_empty_dyn(),
        "every inserted element came back exactly once"
    );
    println!("server drained and shut down cleanly");
}
