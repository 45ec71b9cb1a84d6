//! T11 — the registry workload: many named queues behind one server, and
//! quota isolation under a noisy neighbour.
//!
//! Two scenarios, both end to end over loopback TCP against the
//! choice-wire server fronting a [`QueueRegistry`]:
//!
//! **Spread** — the same total operation budget pushed through 1 / 8 / 64
//! named queues (few-huge-queues vs many-small-queues). Every client cycles
//! its pipelined session across the queue namespace in blocks of `UseQueue`
//! rebinds. The registry pitch is that per-queue relaxation keeps this flat:
//! a queue per tenant costs lanes, not a shared serialisation point, so
//! throughput should not collapse as the namespace grows (small-queue rows
//! pay only the rebind round trips and colder per-queue lanes).
//!
//! **Noisy neighbour** — a paced *victim* tenant (open-loop EDF arrivals,
//! lateness measured per popped task against its embedded deadline, exactly
//! the `sched::lateness` convention; the trackers mirror into a choice-obs
//! hub and every reported lateness/refusal number is read back from the
//! hub's metrics snapshot, not from the trackers) shares the server with a
//! saturating
//! *aggressor* tenant on its own queue. Three phases per rep: the victim
//! **solo**; the aggressor **unlimited** (interference visible as victim
//! p99 lateness); the aggressor behind an ops/sec **quota** token bucket
//! (refusals shed it — each `QuotaExceeded` is the backoff signal a
//! well-behaved client waits on). Every rep runs the three phases back to
//! back, rotating which goes first. Aggressor refusals are recorded through
//! [`LatenessTracker::record_refusal`], so its reported completion fraction
//! is demand-relative, first-class shed accounting.
//!
//! The isolation claim is paired per rep: the quota **isolated** the victim
//! when, beside the quota-limited aggressor, it ran at least 10 % faster
//! and with at most half the p99 lateness than beside the unlimited one in
//! the same rep. `T11_STRICT=1` asserts that the quota refused the
//! aggressor and isolated the victim in at least four reps in five.
//!
//! Every per-phase number is the **median of `T11_SAMPLES` reps** (default
//! 5). Environment knobs: `T11_SAMPLES`, `T11_CLIENTS` (spread clients,
//! default 4), `T11_SPREAD_OPS` (arrivals per spread client, default
//! 20000), `T11_VICTIM_OPS` (default 20000), `T11_STRICT=1` (the gate
//! above), `BENCH_JSON=1` (one JSON object per row to stderr; redirect to
//! `BENCH_t11.json`). The victim's
//! arrival rate, the aggressor fleet and its quota, and the pipeline window
//! are the constants below.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use choice_bench::env_u64;
use choice_bench::report::{
    emit_json_row, median, print_header, print_row, print_section, rel_dispersion, JsonValue,
};
use choice_obs::ObsHub;
use choice_sched::LatenessTracker;
use choice_wire::{
    BackendSpec, PqClient, PqServer, QueueRegistry, QuotaSpec, Request, Response, ServerConfig,
};

/// Pipeline credit window of every client and of the server.
const WINDOW: usize = 64;

/// The paced victim's arrival rate (arrivals/s).
const VICTIM_RATE: f64 = 40_000.0;

/// Saturating aggressor connections sharing the aggressor tenant's queue.
const AGGRESSORS: usize = 3;

/// The aggressor tenant's ops/s quota in the rate-limited phase.
const AGGRESSOR_RATE: u64 = 2_000;

// ---------------------------------------------------------------------------
// Scenario A: queue-count spread
// ---------------------------------------------------------------------------

/// One spread run: `queues` named queues, `clients` pipelined clients each
/// pushing `ops_per_client` inserts (plus one `DeleteMinBatch(8)` per 8
/// inserts), rebinding across the namespace in blocks. Returns (total wire
/// ops, ops/s).
fn run_spread(queues: u64, clients: usize, ops_per_client: u64) -> (u64, f64) {
    const BLOCK: u64 = 256;
    const BATCH: u32 = 8;
    let registry = Arc::new(QueueRegistry::default());
    for q in 0..queues {
        registry
            .create(
                &format!("t/{q}"),
                BackendSpec::MultiQueue {
                    lanes: 2 * clients as u32,
                    d: 2,
                },
                QuotaSpec::unlimited(),
            )
            .expect("spread namespace fits the registry");
    }
    let server = PqServer::spawn_registry(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default().with_credit_window(WINDOW),
    )
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr();

    let timer = Instant::now();
    let ops: u64 = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = PqClient::connect_with_window(addr, WINDOW).expect("connect");
                    let mut operations = 0u64;
                    let mut bound = u64::MAX;
                    for i in 0..ops_per_client {
                        // Rotate the binding across the namespace per block;
                        // a rebind is a synchronous round trip, so it also
                        // drains the pipeline.
                        let q = (c + i / BLOCK) % queues;
                        if q != bound {
                            client.use_queue(&format!("t/{q}")).expect("rebind");
                            bound = q;
                        }
                        let key = c * ops_per_client + i;
                        client
                            .submit(&Request::Insert { key, value: key })
                            .expect("pipelined insert");
                        operations += 1;
                        if (i + 1) % u64::from(BATCH) == 0 {
                            client
                                .submit(&Request::DeleteMinBatch { max: BATCH })
                                .expect("pipelined batch removal");
                            operations += 1;
                        }
                    }
                    client.drain_all(|_| {}).expect("acks");
                    operations
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).sum()
    });
    let elapsed = timer.elapsed().as_secs_f64();
    server.shutdown();
    server.join();
    (ops, ops as f64 / elapsed.max(1e-9))
}

// ---------------------------------------------------------------------------
// Scenario B: noisy neighbour
// ---------------------------------------------------------------------------

/// Outcome of one victim run: completed wire ops, wall-clock, and the p99
/// of the lateness distribution — read back from the obs hub the tracker
/// mirrors into (log-bucket upper bound, µs).
struct VictimOutcome {
    ops: u64,
    elapsed_s: f64,
    p99_lateness_us: u64,
}

impl VictimOutcome {
    fn kops(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(1e-9) / 1e3
    }
}

/// Whether the quota isolated the victim in one rep: beside the
/// quota-limited aggressor the victim ran at least 10 % faster, and with at
/// most half the p99 lateness (one log bucket lower), than beside the
/// unlimited aggressor on the same rep.
fn isolated(unlimited: &VictimOutcome, quota: &VictimOutcome) -> bool {
    quota.kops() >= 1.1 * unlimited.kops() && 2 * quota.p99_lateness_us <= unlimited.p99_lateness_us
}

/// The paced victim: open-loop steady arrivals at `rate`/s, EDF keys
/// (arrival + deadline, in ns since the run epoch), one synchronous insert
/// per arrival and one `DeleteMinBatch(4)` per 4 arrivals; the lateness of
/// a popped task is measured on receipt against the deadline in its key.
fn run_victim(addr: SocketAddr, ops: u64) -> VictimOutcome {
    const DEADLINE: Duration = Duration::from_millis(2);
    let mut client = PqClient::connect(addr).expect("victim connect");
    client.use_queue("victim").expect("victim bind");
    let hub = ObsHub::with_capacity(16);
    let mut lateness = LatenessTracker::with_obs(1, &hub);
    let mut completed = 0u64;
    let interval_ns = 1e9 / VICTIM_RATE;
    let epoch = Instant::now();
    for i in 0..ops {
        let at = Duration::from_nanos((interval_ns * i as f64) as u64);
        let now = epoch.elapsed();
        if at > now {
            std::thread::sleep(at - now);
        }
        let key = (at + DEADLINE).as_nanos() as u64;
        client.insert(key, i).expect("victim insert");
        completed += 1;
        if (i + 1) % 4 == 0 {
            let entries = client.delete_min_batch(4).expect("victim removal");
            completed += 1;
            let now_ns = epoch.elapsed().as_nanos() as u64;
            for (deadline_ns, _) in entries {
                lateness.record(0, now_ns.saturating_sub(deadline_ns));
            }
        }
    }
    // Bounded final drain so the tail of the backlog is measured too.
    for _ in 0..16 {
        let entries = client.delete_min_batch(64).expect("victim final drain");
        if entries.is_empty() {
            break;
        }
        completed += 1;
        let now_ns = epoch.elapsed().as_nanos() as u64;
        for (deadline_ns, _) in entries {
            lateness.record(0, now_ns.saturating_sub(deadline_ns));
        }
    }
    // Report from the hub, not the tracker: the mirrored histogram uses the
    // same log-bucket discipline, so the quantile agrees by construction.
    let p99_lateness_us = hub
        .metrics()
        .snapshot()
        .histogram("sched_lateness_ns", &[("class", "0")])
        .and_then(|h| h.quantile_upper_bound(0.99))
        .unwrap_or(0)
        / 1_000;
    drop(lateness);
    VictimOutcome {
        ops: completed,
        elapsed_s: epoch.elapsed().as_secs_f64(),
        p99_lateness_us,
    }
}

/// Outcome of one aggressor run: answered operations and quota refusals
/// (demand-relative, via the lateness tracker's refusal accounting).
struct AggressorOutcome {
    completed: u64,
    refused: u64,
}

/// The saturating aggressor: unpaced pipelined inserts (plus one
/// `DeleteMinBatch(8)` per 8 inserts) on its own queue until `stop`. A
/// `QuotaExceeded` response is treated as the shed signal it is: count it
/// as a refusal and back off briefly before offering more load.
fn run_aggressor(addr: SocketAddr, stop: &AtomicBool) -> AggressorOutcome {
    const BACKOFF: Duration = Duration::from_micros(200);
    let mut client = PqClient::connect_with_window(addr, WINDOW).expect("aggressor connect");
    client.use_queue("aggressor").expect("aggressor bind");
    let hub = ObsHub::with_capacity(16);
    let mut tracker = LatenessTracker::with_obs(1, &hub);
    let mut i = 0u64;
    let handle = |response: Response, tracker: &mut LatenessTracker| -> bool {
        if matches!(response, Response::Error { .. }) {
            tracker.record_refusal(0);
            true
        } else {
            tracker.record(0, 0);
            false
        }
    };
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let mut refused = false;
        if let Some((response, _)) = client
            .submit(&Request::Insert { key: i, value: i })
            .expect("aggressor insert")
        {
            refused |= handle(response, &mut tracker);
        }
        if i.is_multiple_of(8) {
            if let Some((response, _)) = client
                .submit(&Request::DeleteMinBatch { max: 8 })
                .expect("aggressor removal")
            {
                refused |= handle(response, &mut tracker);
            }
        }
        if refused {
            std::thread::sleep(BACKOFF);
        }
    }
    client
        .drain_all(|(response, _)| {
            handle(response, &mut tracker);
        })
        .expect("aggressor drain");
    // Demand accounting read back from the obs mirrors: every `record` is
    // one histogram sample, every `record_refusal` one counter increment.
    let snapshot = hub.metrics().snapshot();
    AggressorOutcome {
        completed: snapshot
            .histogram("sched_lateness_ns", &[("class", "0")])
            .map_or(0, |h| h.count()),
        refused: snapshot
            .counter("sched_refusals_total", &[("class", "0")])
            .unwrap_or(0),
    }
}

/// The aggressor's quota in each noisy-neighbour phase.
#[derive(Clone, Copy)]
enum Neighbour {
    /// No aggressor at all — the victim's baseline.
    Absent,
    /// An aggressor with no quota: full interference.
    Unlimited,
    /// An aggressor behind an ops/sec token bucket.
    RateLimited { ops_per_sec: u64 },
}

impl Neighbour {
    fn label(self) -> &'static str {
        match self {
            Neighbour::Absent => "solo",
            Neighbour::Unlimited => "unlimited",
            Neighbour::RateLimited { .. } => "quota",
        }
    }
}

/// One noisy-neighbour phase: victim (+ optional aggressor) against a fresh
/// server; returns the victim outcome and the aggressor's counters.
fn run_phase(neighbour: Neighbour, victim_ops: u64) -> (VictimOutcome, AggressorOutcome) {
    let registry = Arc::new(QueueRegistry::default());
    registry
        .create(
            "victim",
            BackendSpec::MultiQueue { lanes: 4, d: 2 },
            QuotaSpec::unlimited(),
        )
        .unwrap();
    match neighbour {
        Neighbour::Absent => {}
        Neighbour::Unlimited => {
            registry
                .create(
                    "aggressor",
                    BackendSpec::MultiQueue { lanes: 4, d: 2 },
                    QuotaSpec::unlimited(),
                )
                .unwrap();
        }
        Neighbour::RateLimited { ops_per_sec } => {
            registry
                .create(
                    "aggressor",
                    BackendSpec::MultiQueue { lanes: 4, d: 2 },
                    QuotaSpec::unlimited().with_rate(ops_per_sec, ops_per_sec / 4),
                )
                .unwrap();
        }
    }
    let server = PqServer::spawn_registry(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default().with_credit_window(WINDOW),
    )
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    let (victim, aggressor) = std::thread::scope(|scope| {
        // The aggressor is a small fleet of connections all bound to the
        // same "aggressor" queue: the quota is a per-tenant budget, shared
        // across every session of the tenant, not a per-connection one.
        let fleet: Vec<_> = match neighbour {
            Neighbour::Absent => Vec::new(),
            _ => (0..AGGRESSORS)
                .map(|_| scope.spawn(|| run_aggressor(addr, &stop)))
                .collect(),
        };
        let victim = run_victim(addr, victim_ops);
        stop.store(true, Ordering::Relaxed);
        let aggressor = fleet.into_iter().map(|j| j.join().unwrap()).fold(
            AggressorOutcome {
                completed: 0,
                refused: 0,
            },
            |acc, outcome| AggressorOutcome {
                completed: acc.completed + outcome.completed,
                refused: acc.refused + outcome.refused,
            },
        );
        (victim, aggressor)
    });
    server.shutdown();
    server.join();
    (victim, aggressor)
}

fn main() {
    let samples = env_u64("T11_SAMPLES", 5).max(1);
    let clients = env_u64("T11_CLIENTS", 4) as usize;
    let spread_ops = env_u64("T11_SPREAD_OPS", 20_000);
    let victim_ops = env_u64("T11_VICTIM_OPS", 20_000);
    let strict = std::env::var("T11_STRICT").as_deref() == Ok("1");

    print_section(
        "T11",
        "choice-registry: queue-count spread and noisy-neighbour quota isolation",
    );
    println!(
        "median of {samples} samples; spread: {clients} clients × {spread_ops} arrivals; \
         noisy neighbour: victim {victim_ops} arrivals @ {VICTIM_RATE:.0}/s (EDF, 2ms \
         deadline) vs {AGGRESSORS} saturating aggressor connections sharing one \
         tenant queue (quota {AGGRESSOR_RATE} ops/s)"
    );

    // -- Scenario A: spread ------------------------------------------------
    println!();
    println!("-- spread: one namespace, 1 / 8 / 64 queues, same total budget --");
    print_header(&["queues", "ops", "kops/s"]);
    let mut total_operations = 0u64;
    for queues in [1u64, 8, 64] {
        let runs: Vec<(u64, f64)> = (0..samples)
            .map(|_| run_spread(queues, clients, spread_ops))
            .collect();
        let ops = runs[0].0;
        total_operations += runs.iter().map(|(o, _)| o).sum::<u64>();
        let kops_samples: Vec<f64> = runs.iter().map(|(_, r)| r / 1e3).collect();
        let kops = median(kops_samples.clone());
        print_row(&[queues.to_string(), ops.to_string(), format!("{kops:.1}")]);
        emit_json_row(
            "t11",
            &[
                ("scenario", JsonValue::from("spread")),
                ("queues", JsonValue::from(queues)),
                ("clients", JsonValue::from(clients as u64)),
                ("samples", JsonValue::from(samples)),
                ("ops", JsonValue::from(ops)),
                ("kops_per_s", JsonValue::from(kops)),
                (
                    "rel_dispersion",
                    JsonValue::from(rel_dispersion(&kops_samples)),
                ),
            ],
        );
    }

    // -- Scenario B: noisy neighbour ---------------------------------------
    println!();
    println!("-- noisy neighbour: victim vs aggressor, per-queue quotas --");
    print_header(&[
        "phase",
        "victim kops/s",
        "victim p99 µs",
        "aggr ops",
        "aggr refusals",
        "shed %",
    ]);
    let phases = [
        Neighbour::Absent,
        Neighbour::Unlimited,
        Neighbour::RateLimited {
            ops_per_sec: AGGRESSOR_RATE,
        },
    ];
    // Every rep runs the three phases back to back and rotates which goes
    // first, so a change in machine state lands on all three alike.
    let mut runs: [Vec<(VictimOutcome, AggressorOutcome)>; 3] = Default::default();
    for rep in 0..samples as usize {
        for i in 0..phases.len() {
            let phase = (rep + i) % phases.len();
            runs[phase].push(run_phase(phases[phase], victim_ops));
        }
    }
    let (mut quota_refusals, mut quota_shed) = (0.0, 0.0);
    for (neighbour, runs) in phases.into_iter().zip(&runs) {
        total_operations += runs.iter().map(|(v, _)| v.ops).sum::<u64>();
        let kops: Vec<f64> = runs.iter().map(|(v, _)| v.kops()).collect();
        let med = |f: fn(&VictimOutcome, &AggressorOutcome) -> f64| {
            median(runs.iter().map(|(v, a)| f(v, a)).collect())
        };
        let victim_p99_us = med(|v, _| v.p99_lateness_us as f64);
        let aggressor_ops = med(|_, a| a.completed as f64);
        let refusals = med(|_, a| a.refused as f64);
        let shed = med(|_, a| a.refused as f64 / (a.completed + a.refused).max(1) as f64);
        print_row(&[
            neighbour.label().to_string(),
            format!("{:.1}", median(kops.clone())),
            format!("{victim_p99_us:.0}"),
            format!("{aggressor_ops:.0}"),
            format!("{refusals:.0}"),
            format!("{:.1}", shed * 100.0),
        ]);
        emit_json_row(
            "t11",
            &[
                ("scenario", JsonValue::from("noisy-neighbour")),
                ("phase", JsonValue::from(neighbour.label())),
                ("samples", JsonValue::from(samples)),
                ("aggressor_connections", JsonValue::from(AGGRESSORS as u64)),
                ("victim_ops", JsonValue::from(victim_ops)),
                ("victim_rate", JsonValue::from(VICTIM_RATE)),
                ("victim_kops_per_s", JsonValue::from(median(kops.clone()))),
                ("victim_p99_lateness_us", JsonValue::from(victim_p99_us)),
                ("aggressor_ops", JsonValue::from(aggressor_ops)),
                ("aggressor_refusals", JsonValue::from(refusals)),
                ("aggressor_refusal_share", JsonValue::from(shed)),
                ("rel_dispersion", JsonValue::from(rel_dispersion(&kops))),
            ],
        );
        if let Neighbour::RateLimited { .. } = neighbour {
            (quota_refusals, quota_shed) = (refusals, shed);
        }
    }

    // The gate pairs the quota phase with the unlimited phase of the same
    // rep. Solo is no stable baseline on a small box: when the paced victim
    // runs alone it can fall behind its own schedule (its threads sleep
    // between arrivals), and a busy neighbour can even speed it up.
    println!();
    print_header(&[
        "rep",
        "solo kops/s",
        "unlim kops/s",
        "quota kops/s",
        "solo p99 µs",
        "unlim p99 µs",
        "quota p99 µs",
        "isolated",
    ]);
    let mut isolated_reps = 0;
    let [solo_runs, unlimited_runs, quota_runs] = &runs;
    let reps = solo_runs.iter().zip(unlimited_runs).zip(quota_runs);
    for (rep, (((solo, _), (unlimited, _)), (quota, _))) in reps.enumerate() {
        let isolated = isolated(unlimited, quota);
        isolated_reps += u64::from(isolated);
        let victims = [solo, unlimited, quota];
        let mut cells = vec![rep.to_string()];
        cells.extend(victims.map(|v| format!("{:.1}", v.kops())));
        cells.extend(victims.map(|v| v.p99_lateness_us.to_string()));
        cells.push(if isolated { "yes" } else { "no" }.to_string());
        print_row(&cells);
        emit_json_row(
            "t11",
            &[
                ("scenario", JsonValue::from("noisy-neighbour")),
                ("rep", JsonValue::from(rep as u64)),
                ("solo_kops_per_s", JsonValue::from(solo.kops())),
                ("unlimited_kops_per_s", JsonValue::from(unlimited.kops())),
                ("quota_kops_per_s", JsonValue::from(quota.kops())),
                (
                    "solo_p99_lateness_us",
                    JsonValue::from(solo.p99_lateness_us),
                ),
                (
                    "unlimited_p99_lateness_us",
                    JsonValue::from(unlimited.p99_lateness_us),
                ),
                (
                    "quota_p99_lateness_us",
                    JsonValue::from(quota.p99_lateness_us),
                ),
                ("isolated", JsonValue::from(u64::from(isolated))),
            ],
        );
    }
    // Four reps in five: a rep is short, and two identical unlimited phases
    // can differ by half their throughput.
    let isolation_holds = isolated_reps * 5 >= samples * 4;
    println!();
    println!(
        "isolation: the quota isolated the victim in {isolated_reps} of {samples} reps \
         (gate: at least four in five); quota phase shed {:.1}% of aggressor demand",
        quota_shed * 100.0,
    );
    if strict {
        assert!(
            quota_refusals > 0.0,
            "T11_STRICT: the quota never refused the aggressor"
        );
        assert!(
            isolation_holds,
            "T11_STRICT: the quota isolated the victim in only {isolated_reps} of {samples} reps"
        );
    }

    // The CI smoke step relies on this: a run that silently did nothing is
    // a failure, not a fast success.
    assert!(
        total_operations > 0,
        "t11 completed zero operations — the service never answered"
    );
    println!();
    println!(
        "Expected shape: spread rows stay within the rebind overhead of each \
         other (queues are isolation units, not serialisation points); the \
         unlimited phase inflates victim p99 lateness, the quota phase sheds \
         the aggressor by typed refusals and isolates the victim in at least \
         four reps in five."
    );
}
