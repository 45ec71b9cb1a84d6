//! Integration tests for the choice-registry layer behind the service:
//! exactly-once delivery and key conservation across concurrent clients
//! spread over many named queues, on every backend the paper compares, and
//! typed (never panicking) refusals when a queue is dropped mid-drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use power_of_choice::prelude::*;
use power_of_choice::service::{ClientError, ErrorCode, PqServer, Request, Response};

const QUEUES: u64 = 8;
const CLIENTS: usize = 4;
const PER_CLIENT: u64 = 150;
const PER_QUEUE: u64 = CLIENTS as u64 * PER_CLIENT;
const TOTAL: u64 = QUEUES * PER_QUEUE;

/// Keys carry their home queue in the high half, so any cross-queue leak is
/// immediately attributable.
fn key_for(queue: u64, n: u64) -> u64 {
    (queue << 32) | n
}

fn queue_name(queue: u64) -> String {
    format!("tenant/{queue}")
}

/// The backend specs the registry builds lazily, matching the four backends
/// of `tests/service_semantics.rs`.
fn backend_specs() -> Vec<(&'static str, BackendSpec)> {
    vec![
        ("multiqueue", BackendSpec::MultiQueue { lanes: 8, d: 2 }),
        ("coarse-heap", BackendSpec::CoarseHeap),
        (
            "klsm",
            BackendSpec::KLsm {
                threads: CLIENTS as u32,
                relaxation: 256,
            },
        ),
        ("skiplist", BackendSpec::SkipList),
    ]
}

/// Four concurrent clients insert disjoint key ranges into eight named
/// queues and then drain them all through batched removals. Every key must
/// come back exactly once, from the queue it was inserted into, on every
/// backend.
#[test]
fn exactly_once_and_key_conservation_across_named_queues() {
    for (name, spec) in backend_specs() {
        let registry = Arc::new(QueueRegistry::default());
        for q in 0..QUEUES {
            registry
                .create(&queue_name(q), spec, QuotaSpec::unlimited())
                .expect("fresh registry accepts eight queues");
        }
        let server = PqServer::spawn_registry(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let inserted_barrier = Barrier::new(CLIENTS);
        let collected: Vec<AtomicU64> = (0..QUEUES).map(|_| AtomicU64::new(0)).collect();

        let popped: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let inserted_barrier = &inserted_barrier;
                    let collected = &collected;
                    scope.spawn(move || {
                        let mut client = PqClient::connect_with_window(addr, 32).expect("connect");
                        // Insert this client's disjoint slice of every queue,
                        // pipelined within each queue binding.
                        for q in 0..QUEUES {
                            client.use_queue(&queue_name(q)).expect("bind queue");
                            for n in (c * PER_CLIENT)..((c + 1) * PER_CLIENT) {
                                let key = key_for(q, n);
                                if let Some((response, _)) = client
                                    .submit(&Request::Insert {
                                        key,
                                        value: key ^ 0xC3C3,
                                    })
                                    .expect("pipelined insert")
                                {
                                    assert_eq!(response, Response::Inserted, "{name}");
                                }
                            }
                            client
                                .drain_all(|(response, _)| {
                                    assert_eq!(response, Response::Inserted, "{name}")
                                })
                                .expect("insert acks");
                        }
                        inserted_barrier.wait();

                        // Drain every queue cooperatively, starting from a
                        // client-specific offset so the fleet spreads out.
                        // Only the shared per-queue count terminates a queue
                        // (relaxed emptiness is best-effort).
                        let mut mine = Vec::new();
                        for step in 0..QUEUES {
                            let q = (c + step) % QUEUES;
                            client.use_queue(&queue_name(q)).expect("rebind queue");
                            while collected[q as usize].load(Ordering::SeqCst) < PER_QUEUE {
                                let entries = client.delete_min_batch(32).expect("batched removal");
                                if entries.is_empty() {
                                    std::thread::yield_now();
                                    continue;
                                }
                                collected[q as usize]
                                    .fetch_add(entries.len() as u64, Ordering::SeqCst);
                                for (key, value) in entries {
                                    assert_eq!(
                                        key >> 32,
                                        q,
                                        "{name}: key {key:#x} leaked across queues"
                                    );
                                    assert_eq!(value, key ^ 0xC3C3, "{name}: payload mangled");
                                    mine.push(key);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });

        let mut all: Vec<u64> = popped.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..QUEUES)
            .flat_map(|q| (0..PER_QUEUE).map(move |n| key_for(q, n)))
            .collect();
        assert_eq!(all, expected, "{name}: every key exactly once");

        // The aggregate and the per-queue breakdown both conserve the counts.
        let stats = server.join();
        assert_eq!(stats.totals.inserts, TOTAL, "{name}");
        assert_eq!(stats.totals.removals, TOTAL, "{name}");
        assert_eq!(stats.totals.refusals, 0, "{name}: nothing was refused");
        assert_eq!(stats.queues.len(), QUEUES as usize, "{name}");
        for row in &stats.queues {
            assert_eq!(row.totals.inserts, PER_QUEUE, "{name}/{}", row.name);
            assert_eq!(row.totals.removals, PER_QUEUE, "{name}/{}", row.name);
            assert_eq!(row.approx_len, 0, "{name}/{}: nothing strands", row.name);
        }
    }
}

/// Dropping a queue midway through a drain surfaces as typed wire errors on
/// the bound session — `QueueDropped` for operations, `NoSuchQueue` for a
/// rebind — and conserves every key that was popped before the drop.
#[test]
fn drop_queue_mid_drain_returns_typed_errors_and_conserves_keys() {
    const KEYS: u64 = 600;
    const DRAINED: u64 = 300;

    let registry = Arc::new(QueueRegistry::default());
    registry
        .create("victim", BackendSpec::CoarseHeap, QuotaSpec::unlimited())
        .unwrap();
    let server = PqServer::spawn_registry(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();

    let mut a = PqClient::connect(server.local_addr()).unwrap();
    a.use_queue("victim").unwrap();
    for key in 0..KEYS {
        a.insert(key, key ^ 0x77).unwrap();
    }
    // Drain exactly half. The coarse heap is exact and this is the only
    // session, so the keys come back in order.
    for expected in 0..DRAINED {
        assert_eq!(a.delete_min().unwrap(), Some((expected, expected ^ 0x77)));
    }

    // A second connection drops the queue out from under the first.
    let mut b = PqClient::connect(server.local_addr()).unwrap();
    b.drop_queue("victim").unwrap();

    // Every further operation on the bound session is a typed refusal, the
    // connection stays open, and a rebind names the real condition.
    for _ in 0..3 {
        match a.delete_min() {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QueueDropped),
            other => panic!("expected QueueDropped, got {other:?}"),
        }
    }
    match a.insert(9_999, 0) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QueueDropped),
        other => panic!("expected QueueDropped, got {other:?}"),
    }
    match a.use_queue("victim") {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NoSuchQueue),
        other => panic!("expected NoSuchQueue, got {other:?}"),
    }

    // The name is free again: the session recovers by creating a successor.
    a.create_queue("victim", BackendSpec::SkipList, QuotaSpec::unlimited())
        .unwrap();
    a.use_queue("victim").unwrap();
    a.insert(1, 10).unwrap();
    assert_eq!(a.delete_min().unwrap(), Some((1, 10)));

    // The retired roll-up conserved the dropped queue's history: all KEYS
    // inserts and exactly DRAINED removals survive in the aggregate even
    // though the queue itself (and its remaining keys) are gone.
    let stats = server.join();
    assert_eq!(stats.totals.inserts, KEYS + 1);
    assert_eq!(stats.totals.removals, DRAINED + 1);
    assert_eq!(stats.totals.refusals, 4, "3 pops + 1 insert were refused");
    assert_eq!(stats.queues.len(), 1, "only the successor queue has a row");
}

/// A racing drop — concurrent drainers hammering a queue while another
/// connection drops it — never panics the server and never duplicates a
/// key. Drainers see only clean results or typed refusals.
#[test]
fn concurrent_drop_under_drain_never_panics_or_duplicates() {
    const KEYS: u64 = 2_000;
    const DROP_AFTER: u64 = 200;
    const DRAINERS: usize = 2;

    let registry = Arc::new(QueueRegistry::default());
    registry
        .create(
            "r",
            BackendSpec::MultiQueue { lanes: 4, d: 2 },
            QuotaSpec::unlimited(),
        )
        .unwrap();
    let server = PqServer::spawn_registry(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut feeder = PqClient::connect(addr).unwrap();
    feeder.use_queue("r").unwrap();
    for key in 0..KEYS {
        feeder.insert(key, key).unwrap();
    }

    let popped_count = AtomicU64::new(0);
    // Drainers bound so far: the server accepts on a 25 ms poll, so a
    // drainer accepted one poll late could otherwise bind after the drop.
    let bound = AtomicU64::new(0);
    let popped: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let dropper = {
            let (popped_count, bound) = (&popped_count, &bound);
            scope.spawn(move || {
                while popped_count.load(Ordering::SeqCst) < DROP_AFTER
                    || bound.load(Ordering::SeqCst) < DRAINERS as u64
                {
                    std::thread::yield_now();
                }
                let mut client = PqClient::connect(addr).unwrap();
                client.drop_queue("r").unwrap();
            })
        };
        let joins: Vec<_> = (0..DRAINERS)
            .map(|_| {
                let (popped_count, bound) = (&popped_count, &bound);
                scope.spawn(move || {
                    let mut client = PqClient::connect(addr).unwrap();
                    client.use_queue("r").unwrap();
                    bound.fetch_add(1, Ordering::SeqCst);
                    let mut mine = Vec::new();
                    loop {
                        match client.delete_min_batch(16) {
                            Ok(entries) => {
                                // A transiently empty batch just yields:
                                // relaxed emptiness is best-effort, and the
                                // loop only ends on the typed refusal.
                                if entries.is_empty() {
                                    std::thread::yield_now();
                                    continue;
                                }
                                popped_count.fetch_add(entries.len() as u64, Ordering::SeqCst);
                                mine.extend(entries.into_iter().map(|(key, _)| key));
                            }
                            Err(ClientError::Remote { code, .. }) => {
                                assert_eq!(code, ErrorCode::QueueDropped);
                                break;
                            }
                            Err(other) => panic!("unexpected client error {other:?}"),
                        }
                    }
                    // After the typed refusal the connection is still good.
                    match client.use_queue("r") {
                        Err(ClientError::Remote { code, .. }) => {
                            assert_eq!(code, ErrorCode::NoSuchQueue)
                        }
                        other => panic!("expected NoSuchQueue, got {other:?}"),
                    }
                    mine
                })
            })
            .collect();
        dropper.join().unwrap();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let mut all: Vec<u64> = popped.into_iter().flatten().collect();
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "no key was delivered twice");
    assert!(all.iter().all(|&k| k < KEYS), "no key was invented");

    // The server survived the race and still answers: every removal it
    // counted corresponds to a key some drainer actually received.
    let mut check = PqClient::connect(addr).unwrap();
    let stats = check.stats().unwrap();
    assert!(stats.totals.removals as usize <= before);
    drop(check);
    let _ = server.join();
}

/// Wire-level `Stats` raced against `DropQueue`/`CreateQueue` cycles: every
/// response decodes in full, stable queues' rows are always present and
/// exact, and the churning queue's row is either absent or complete —
/// never torn (a garbage name, an impossible counter, or a truncated row
/// would all fail the typed decode or the bounds below).
#[test]
fn stats_rows_under_concurrent_drop_are_absent_or_complete_never_torn() {
    const KEEP: usize = 3;
    const KEEP_KEYS: u64 = 100;
    const VICTIM_KEYS: u64 = 64;
    const CYCLES: u64 = 120;
    const READERS: usize = 2;

    let registry = Arc::new(QueueRegistry::default());
    let server = PqServer::spawn_registry(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Stable queues with known, never-changing histories: any torn encode
    // or misframed row scrambles at least one of these exact values.
    let keep_names: Vec<String> = (0..KEEP).map(|i| format!("keep/{i}")).collect();
    let mut seeder = PqClient::connect(addr).unwrap();
    for name in &keep_names {
        seeder
            .create_queue(name, BackendSpec::CoarseHeap, QuotaSpec::unlimited())
            .unwrap();
        seeder.use_queue(name).unwrap();
        for key in 0..KEEP_KEYS {
            seeder.insert(key, key).unwrap();
        }
    }
    drop(seeder);

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let dropper = scope.spawn(|| {
            let mut client = PqClient::connect(addr).unwrap();
            for cycle in 0..CYCLES {
                client
                    .create_queue("victim", BackendSpec::CoarseHeap, QuotaSpec::unlimited())
                    .unwrap();
                client.use_queue("victim").unwrap();
                for key in 0..VICTIM_KEYS {
                    client.insert((cycle << 16) | key, key).unwrap();
                }
                client.drop_queue("victim").unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = PqClient::connect(addr).unwrap();
                    let mut responses = 0u64;
                    let mut saw_victim = false;
                    while !done.load(Ordering::SeqCst) || responses == 0 {
                        // Decode totality: a torn or short frame surfaces
                        // here as a ClientError, not as a wrong value.
                        let stats = client.stats().unwrap();
                        responses += 1;

                        let mut names: Vec<&str> =
                            stats.queues.iter().map(|r| r.name.as_str()).collect();
                        names.sort_unstable();
                        let before = names.len();
                        names.dedup();
                        assert_eq!(names.len(), before, "duplicate per-queue rows");

                        let mut row_inserts = 0u64;
                        for row in &stats.queues {
                            row_inserts += row.totals.inserts;
                            if let Some(name) = row.name.strip_prefix("keep/") {
                                let idx: usize = name.parse().expect("torn keep name");
                                assert!(idx < KEEP, "invented keep row {}", row.name);
                                assert_eq!(row.totals.inserts, KEEP_KEYS, "{}", row.name);
                                assert_eq!(row.totals.removals, 0, "{}", row.name);
                                assert_eq!(row.approx_len, KEEP_KEYS, "{}", row.name);
                            } else {
                                // The churning queue: absent is fine; when
                                // present the row is complete and every
                                // counter is within one incarnation's reach.
                                assert_eq!(row.name, "victim", "garbage row name");
                                saw_victim = true;
                                assert!(row.totals.inserts <= VICTIM_KEYS, "torn counter");
                                assert!(row.approx_len <= VICTIM_KEYS, "torn length");
                                assert_eq!(row.totals.removals, 0, "victim is never drained");
                            }
                        }
                        // Every keep row is present in every response —
                        // churn on one name never hides the others.
                        assert_eq!(
                            stats
                                .queues
                                .iter()
                                .filter(|r| r.name.starts_with("keep/"))
                                .count(),
                            KEEP,
                            "a stable queue's row went missing"
                        );
                        // Aggregate totals fold the retired roll-up over the
                        // live rows, so they can only exceed the row sum.
                        assert!(
                            stats.totals.inserts >= row_inserts,
                            "aggregate below its own per-queue rows"
                        );
                    }
                    (responses, saw_victim)
                })
            })
            .collect();

        dropper.join().unwrap();
        for reader in readers {
            let (responses, _saw_victim) = reader.join().unwrap();
            assert!(responses > 0, "reader never completed a Stats call");
        }
    });

    // Quiescent close-out: the last cycle ended in a drop, so only the
    // stable rows remain and the retired roll-up holds every incarnation's
    // history — nothing was lost to the churn.
    let stats = server.join();
    assert_eq!(stats.queues.len(), KEEP, "only the stable queues remain");
    assert_eq!(
        stats.totals.inserts,
        KEEP as u64 * KEEP_KEYS + CYCLES * VICTIM_KEYS,
        "every incarnation's inserts survive in the aggregate"
    );
    assert_eq!(stats.totals.removals, 0);
}
