//! T9 — the network workload: every backend behind the choice-wire TCP
//! service, loaded by an open-loop multi-client generator.
//!
//! Per backend × arrival pattern, one scenario runs end to end **over
//! loopback TCP**:
//!
//! 1. a [`PqServer`] is spawned in-process on an ephemeral port, serving the
//!    backend through `DynSharedPq` (the same type-erased construction every
//!    other bench uses);
//! 2. `SERVICE_BENCH_CLIENTS` client threads connect, each with its own
//!    pipelined [`PqClient`] session and its own deterministic
//!    `sched::traffic` arrival schedule (steady / bursty / diurnal — the
//!    same generators that drive `t8_scheduler`, reused over the network);
//! 3. each client follows its schedule *open-loop* — it sleeps until an
//!    arrival's nominal time, never pacing itself on the service — and on
//!    each arrival submits one `Insert`, interleaving one
//!    `DeleteMinBatch(BATCH)` every batch-sized block of
//!    arrivals so the queue stays near steady state;
//! 4. every response is matched (in order — the protocol guarantees it) to
//!    its send time, giving a per-request round-trip latency recorded into a
//!    shared `client_rtt_ns` histogram of a choice-obs [`MetricsRegistry`]
//!    (the clients record concurrently into sharded cells; the report reads
//!    one merged snapshot — no per-thread histogram merging here).
//!
//! Reported per row: completed wire operations, throughput (kops/s), and
//! p50/p99/max round-trip latency in µs (log-bucket upper bounds). Rates are
//! chosen so the steady pattern saturates (the schedule's nominal rate is far
//! above what loopback sustains ⇒ the sleep never fires and the row measures
//! service capacity), while bursty/diurnal run paced and show how latency
//! absorbs the load swings.
//!
//! Environment knobs: `SERVICE_BENCH_OPS` (arrivals per client, default
//! 40000), `SERVICE_BENCH_CLIENTS` (default 4); `BENCH_JSON=1` emits one
//! JSON object per row to stderr. The pipeline window ([`WINDOW`]) and the
//! delete batch ([`BATCH`]) are constants.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use choice_bench::report::{emit_json_row, print_header, print_row, print_section, JsonValue};
use choice_bench::{build_queue, env_u64, QueueSpec};
use choice_obs::{Histogram, LogHistogram, MetricsRegistry};
use choice_sched::{ArrivalPattern, TrafficClass, TrafficSpec};
use choice_wire::{PqClient, PqServer, Request, Response, ServerConfig};

/// Pipeline credit window of every client and of the server.
const WINDOW: usize = 64;

/// Entries one `DeleteMinBatch` asks for, sent once per this many arrivals.
const BATCH: u32 = 8;

/// Runs one client: follow the arrival schedule open-loop, pipeline the
/// operations, time every response into the scenario's shared histogram.
fn run_client(
    addr: SocketAddr,
    spec: &TrafficSpec,
    rtt_ns: &Histogram,
) -> Result<u64, choice_wire::ClientError> {
    let schedule = spec.schedule();
    let mut client = PqClient::connect_with_window(addr, WINDOW)?;
    let mut operations = 0u64;
    let mut record = |(response, rtt): (Response, Duration)| {
        // A refusal would be a bug in the generator (it never sends the
        // reserved key); count only answered operations.
        debug_assert!(!matches!(response, Response::Error { .. }));
        rtt_ns.record(rtt.as_nanos() as u64);
    };
    let epoch = Instant::now();
    for (i, arrival) in schedule.iter().enumerate() {
        let now = epoch.elapsed();
        if arrival.at > now {
            std::thread::sleep(arrival.at - now);
        }
        // EDF-style keys, exactly like the in-process scheduler scenarios:
        // arrival time plus the class deadline, in nanoseconds.
        let key = (arrival.at + spec.classes[arrival.class].deadline).as_nanos() as u64;
        if let Some(timed) = client.submit(&Request::Insert {
            key,
            value: i as u64,
        })? {
            record(timed);
        }
        operations += 1;
        if (i + 1) % BATCH as usize == 0 {
            if let Some(timed) = client.submit(&Request::DeleteMinBatch { max: BATCH })? {
                record(timed);
            }
            operations += 1;
        }
    }
    client.drain_all(&mut record)?;
    Ok(operations)
}

/// One scenario: spawn the service over `spec`'s backend, run the client
/// fleet, aggregate.
fn run_scenario(
    queue_spec: QueueSpec,
    pattern: ArrivalPattern,
    clients: usize,
    ops_per_client: u64,
    seed: u64,
) -> (u64, f64, LogHistogram) {
    let queue = build_queue::<u64>(queue_spec, clients, seed);
    let server = PqServer::spawn(
        Arc::clone(&queue),
        "127.0.0.1:0",
        ServerConfig::default().with_credit_window(WINDOW),
    )
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr();

    let classes = vec![
        TrafficClass::new("interactive", 3.0, Duration::from_micros(500), 0),
        TrafficClass::new("batch", 1.0, Duration::from_millis(20), 0),
    ];
    // Every client records into one shared, sharded obs histogram; the
    // report below reads a single merged snapshot.
    let metrics = MetricsRegistry::new();
    let (backend, pattern_label) = (queue_spec.label(), pattern.label());
    let rtt_ns = metrics.histogram(
        "client_rtt_ns",
        &[("backend", &backend), ("pattern", &pattern_label)],
    );
    let timer = Instant::now();
    let operations: u64 = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let spec = TrafficSpec {
                    pattern,
                    classes: classes.clone(),
                    tasks: ops_per_client,
                    seed: seed ^ (c as u64 + 1).wrapping_mul(0x9E37),
                };
                let rtt_ns = &rtt_ns;
                scope.spawn(move || {
                    run_client(addr, &spec, rtt_ns).expect("client ran to completion")
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });
    let elapsed = timer.elapsed().as_secs_f64();
    server.shutdown();
    server.join();
    (
        operations,
        operations as f64 / elapsed.max(1e-9),
        rtt_ns.snapshot(),
    )
}

fn main() {
    let ops_per_client = env_u64("SERVICE_BENCH_OPS", 40_000);
    let clients = env_u64("SERVICE_BENCH_CLIENTS", 4) as usize;
    let seed = 31u64;

    // Steady saturates loopback (nominal 50M arrivals/s per client: the
    // pacing sleep never fires); bursty and diurnal are genuinely paced.
    let patterns = [
        ArrivalPattern::Steady { rate: 50_000_000.0 },
        ArrivalPattern::Bursty {
            rate: 400_000.0,
            on: Duration::from_millis(2),
            off: Duration::from_millis(6),
        },
        ArrivalPattern::Diurnal {
            base: 50_000.0,
            peak: 400_000.0,
            period: Duration::from_millis(40),
        },
    ];
    let backends = [
        QueueSpec::multiqueue(0.75),
        QueueSpec::CoarseHeap,
        QueueSpec::KLsm { relaxation: 256 },
        QueueSpec::SkipList,
    ];

    print_section(
        "T9",
        "choice-wire service: backend × arrival pattern over loopback TCP",
    );
    println!(
        "{clients} clients × {ops_per_client} arrivals, pipeline window {WINDOW}, \
         delete batch {BATCH}; open-loop traffic schedules reused from sched::traffic"
    );

    let mut total_operations = 0u64;
    for pattern in patterns {
        println!();
        println!("-- {} --", pattern.label());
        print_header(&[
            "backend",
            "ops",
            "kops/s",
            "p50 rtt µs",
            "p99 rtt µs",
            "max rtt µs",
        ]);
        for backend in backends {
            let (operations, ops_per_second, rtt_ns) =
                run_scenario(backend, pattern, clients, ops_per_client, seed);
            total_operations += operations;
            let quantile_us = |q: f64| rtt_ns.quantile_upper_bound(q).unwrap_or(0) as f64 / 1_000.0;
            print_row(&[
                backend.label(),
                operations.to_string(),
                format!("{:.1}", ops_per_second / 1e3),
                format!("{:.1}", quantile_us(0.50)),
                format!("{:.1}", quantile_us(0.99)),
                format!("{:.1}", rtt_ns.max() as f64 / 1_000.0),
            ]);
            emit_json_row(
                "t9",
                &[
                    ("backend", JsonValue::Str(backend.label())),
                    ("pattern", JsonValue::Str(pattern.label())),
                    ("clients", JsonValue::from(clients as u64)),
                    ("window", JsonValue::from(WINDOW as u64)),
                    ("delete_batch", JsonValue::from(u64::from(BATCH))),
                    ("ops", JsonValue::from(operations)),
                    ("kops_per_s", JsonValue::from(ops_per_second / 1e3)),
                    ("p50_rtt_us", JsonValue::from(quantile_us(0.50))),
                    ("p99_rtt_us", JsonValue::from(quantile_us(0.99))),
                    ("max_rtt_us", JsonValue::from(rtt_ns.max() as f64 / 1_000.0)),
                ],
            );
        }
    }

    // The CI smoke step relies on this: a run that silently did nothing is
    // a failure, not a fast success.
    assert!(
        total_operations > 0,
        "t9 completed zero operations — the service never answered"
    );
    println!();
    println!(
        "Expected shape: the relaxed MultiQueue rows match or beat the centralized \
         baselines under multi-client load (no serialisation on the global minimum \
         behind the accept loop); steady rows measure loopback service capacity, \
         bursty/diurnal rows absorb their load swings as p99 RTT."
    );
}
