//! `wire_pipelined`: the full request path — client, codec, server session,
//! registry admission, type-erased handle, MultiQueue.
//!
//! An in-process `PqServer` serves a d = 2 `MultiQueue` of four lanes as the
//! registry's default queue with an unlimited quota. One `PqClient` runs a
//! closed loop with a pipelining window of 64: it sends a full window, then
//! collects all of its responses before sending more. The mix is eight
//! `Insert`s, then one `DeleteMinBatch(8)`, as in `t9_service`, so the queue
//! keeps the 1024 keys it is prefilled with. Keys are EDF-style: the insert
//! index times 2 µs of nominal arrival, plus a deadline uniform in
//! [0, 100 µs). The server runs each connection's requests in order, so the
//! client knows the queue's exact contents at every removal and ranks are
//! exact.
//!
//! Why the client collects whole windows: with `PqClient::submit` alone,
//! each call past a full window reads one response and flushes one
//! request, and on two CPUs the loop flips between per-request syscalls and
//! batched ones — 140 k to 400 k ops/s from one 100 ms window to the next.
//! Whole windows keep one write and one read per 64 requests on each side.
//!
//! This workload is not in `BENCHMARK.json`: with two other busy processes
//! on a two-CPU host, its rate moved between about 0.4 M and 1.1 M
//! requests/s from one run to the next, and in the slow runs every 10 ms
//! window was slow. [`micro`] gives every other workload's traced run the
//! wire layers' figures.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use choice_obs::SpanStage;
use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig};
use choice_wire::{
    ClientError, PqClient, PqServer, QueueRegistry, QuotaSpec, Request, Response, ServerConfig,
    DEFAULT_QUEUE,
};
use rank_stats::rng::RandomSource;

use crate::layers::{self, Mix};
use crate::stats::{self, PresentKeys, RateWindows, Samples, Tally};
use crate::{Args, Report};

const LANES: usize = 4;
const WINDOW: usize = 64;
const BATCH: usize = 8;
const SETUPS: usize = 31;
/// Key spacing between consecutive inserts (ns of nominal arrival time).
const SPACING: u64 = 2_000;
const RING: usize = 1 << 16;
/// Keys inserted before the loop starts.
const PREFILL: u64 = 1024;
/// Removed keys the rank metrics cover (about 4.7 M requests).
const RANKED: usize = 1 << 19;
/// One response in this many is kept for the latency metrics, in a buffer
/// of `SAMPLES` (over 30 s at this rate).
const SAMPLE_EVERY: u64 = 4;
const SAMPLES: usize = 1 << 21;
/// Length of the traced wire session run for workloads that bypass it.
const MICRO_SECONDS: f64 = 0.5;

pub fn mix(seed: u64) -> Mix {
    Mix {
        lanes: LANES,
        lane_size: PREFILL as usize / LANES,
        inserts_per_removal: BATCH,
        batch: BATCH,
        // Deadlines jitter arrival order by up to 50 inserts.
        span: Duration::from_micros(100).as_nanos() as u64,
        seed,
    }
}

fn spawn(mix: &Mix) -> PqServer {
    let registry = Arc::new(QueueRegistry::default());
    let queue: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(mix.lanes)
            .with_d(2)
            .with_seed(mix.seed),
    ));
    registry
        .install(DEFAULT_QUEUE, queue, QuotaSpec::unlimited())
        .expect("fresh registry accepts the default queue");
    PqServer::spawn_registry(
        registry,
        "127.0.0.1:0",
        ServerConfig::default().with_credit_window(WINDOW),
    )
    .expect("bind an ephemeral loopback port")
}

/// Connects and prefills the queue with the first `PREFILL` keys of the
/// stream, so every lane holds far more than a batch and the queue size
/// stays put while the loop runs.
fn connect(server: &PqServer, keys: &Keys) -> Result<PqClient, ClientError> {
    let mut client = PqClient::connect_with_window(server.local_addr(), WINDOW)?;
    for i in 0..PREFILL {
        if client.in_flight() >= WINDOW {
            expect_inserted(client.drain_one()?.0)?;
        }
        client.submit(&Request::Insert {
            key: keys.key(i),
            value: i,
        })?;
    }
    while client.in_flight() > 0 {
        expect_inserted(client.drain_one()?.0)?;
    }
    Ok(client)
}

fn expect_inserted(response: Response) -> Result<(), ClientError> {
    match response {
        Response::Inserted => Ok(()),
        other => Err(ClientError::Unexpected(other)),
    }
}

/// The insert keys: index times the spacing plus a per-insert offset.
struct Keys {
    offsets: Vec<u64>,
}

impl Keys {
    /// Offsets uniform over the mix's key window.
    fn new(mix: &Mix) -> Keys {
        let mut rng = stats::rng(mix.seed, 0x317E_0002);
        Keys {
            offsets: (0..RING).map(|_| rng.next_below(mix.span)).collect(),
        }
    }

    fn key(&self, index: u64) -> u64 {
        index * SPACING + self.offsets[index as usize % RING]
    }
}

/// Everything one client session observed.
#[derive(Default)]
struct SessionOut {
    answered: u64,
    inserts: u64,
    failed: u64,
    /// Every key removed by the loop.
    removed: Tally,
    /// The first `RANKED` of them in server order, and how many each of
    /// those removal requests returned.
    ranked: Vec<u64>,
    per_removal: Vec<u16>,
    /// Every `SAMPLE_EVERY`-th response's round trip and delay.
    rtt_ns: Option<Samples>,
    delay_ns: Option<Samples>,
    ops_per_s: f64,
    elapsed: Duration,
    submit_ns: u128,
    submits: u64,
    drain_ns: u128,
    drains: u64,
    /// Time from the previous call's return to each submit: a closed-loop
    /// request is due as soon as the loop is free to send it.
    lag_ns: u128,
    problems: Vec<String>,
}

/// Matches each response, in request order, to what its request expects.
struct Tracker<'a> {
    cycle: u64,
    inserts_per_cycle: u64,
    batch: usize,
    issued: VecDeque<Instant>,
    out: &'a mut SessionOut,
}

impl Tracker<'_> {
    fn take(&mut self, (response, rtt): (Response, Duration)) {
        let now = Instant::now();
        let index = self.out.answered;
        self.out.answered += 1;
        let issued = self.issued.pop_front();
        if index.is_multiple_of(SAMPLE_EVERY) {
            if let (Some(samples), Some(issued)) = (self.out.delay_ns.as_mut(), issued) {
                samples.push(now.duration_since(issued).as_nanos() as u64);
            }
            if let Some(samples) = self.out.rtt_ns.as_mut() {
                samples.push(rtt.as_nanos() as u64);
            }
        }
        let is_insert = index % self.cycle < self.inserts_per_cycle;
        let entry;
        let removed: Option<&[(u64, u64)]> = match (&response, is_insert) {
            (Response::Inserted, true) | (Response::Empty, false) => Some(&[]),
            (Response::Batch(entries), false) if self.batch > 1 => Some(entries),
            (Response::Entry { key, value }, false) if self.batch == 1 => {
                entry = [(*key, *value)];
                Some(&entry)
            }
            _ => None,
        };
        if removed.is_none() {
            self.out.failed += 1;
            if self.out.problems.len() < 4 {
                self.out
                    .problems
                    .push(format!("request {index} was answered with {response:?}"));
            }
        }
        if !is_insert {
            let removed = removed.unwrap_or(&[]);
            for &(key, _) in removed {
                self.out.removed.add(key);
            }
            if self.out.ranked.len() < RANKED {
                self.out.ranked.extend(removed.iter().map(|&(k, _)| k));
                self.out.per_removal.push(removed.len() as u16);
            }
        }
    }
}

/// Runs the closed pipelined loop for `seconds`, then collects every
/// outstanding response.
fn drive(
    client: &mut PqClient,
    mix: &Mix,
    keys: &Keys,
    first_insert: u64,
    seconds: f64,
    traced: bool,
) -> Result<SessionOut, ClientError> {
    let mut out = SessionOut {
        rtt_ns: Some(Samples::new(SAMPLES)),
        delay_ns: Some(Samples::new(SAMPLES)),
        ..SessionOut::default()
    };
    let cycle = mix.inserts_per_removal as u64 + 1;
    let mut tracker = Tracker {
        cycle,
        inserts_per_cycle: mix.inserts_per_removal as u64,
        batch: mix.batch,
        issued: VecDeque::with_capacity(WINDOW + 1),
        out: &mut out,
    };
    let removal = if mix.batch == 1 {
        Request::DeleteMin
    } else {
        Request::DeleteMinBatch {
            max: mix.batch as u32,
        }
    };
    if traced {
        client.set_trace_every(1);
    }
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut windows = RateWindows::new(seconds);
    let mut next = 0u64;
    let mut insert = first_insert;
    let mut free = Instant::now();
    loop {
        if next.is_multiple_of(64) {
            let now = Instant::now();
            windows.tick(now, tracker.out.answered);
            if now >= deadline {
                break;
            }
        }
        if client.in_flight() >= WINDOW {
            // A full window is collected whole before the next is sent.
            while client.in_flight() > 0 {
                let t0 = Instant::now();
                let timed = client.drain_one()?;
                tracker.out.drain_ns += t0.elapsed().as_nanos();
                tracker.out.drains += 1;
                tracker.take(timed);
            }
            free = Instant::now();
        }
        let request = if next % cycle < mix.inserts_per_removal as u64 {
            insert += 1;
            tracker.out.inserts += 1;
            Request::Insert {
                key: keys.key(insert - 1),
                value: insert - 1,
            }
        } else {
            removal.clone()
        };
        let t0 = Instant::now();
        tracker.out.lag_ns += t0.duration_since(free).as_nanos();
        tracker.issued.push_back(t0);
        // The window has room, so this only encodes and buffers.
        if let Some(timed) = client.submit(&request)? {
            tracker.take(timed);
        }
        free = Instant::now();
        tracker.out.submit_ns += free.duration_since(t0).as_nanos();
        tracker.out.submits += 1;
        next += 1;
    }
    while client.in_flight() > 0 {
        let timed = client.drain_one()?;
        tracker.take(timed);
    }
    out.elapsed = started.elapsed();
    out.ops_per_s = windows.midmean();
    client.set_trace_every(0);
    Ok(out)
}

/// Ranks and inversions of the first `RANKED` removed keys, replayed in
/// server order. One session's requests run in order, so this prefix is a
/// function of the seed alone, however fast the run went.
fn ranks(keys: &Keys, out: &SessionOut, inserts_per_removal: u64) -> (f64, f64, f64) {
    let total =
        (PREFILL + out.per_removal.len() as u64 * inserts_per_removal).min(PREFILL + out.inserts);
    let universe: Vec<u64> = (0..total).map(|i| keys.key(i)).collect();
    let mut present = PresentKeys::new(universe);
    let mut added = 0u64;
    let mut at = 0usize;
    for (r, &n) in out.per_removal.iter().enumerate() {
        if at >= RANKED {
            break;
        }
        let visible = (PREFILL + (r as u64 + 1) * inserts_per_removal).min(total);
        while added < visible {
            present.add(keys.key(added));
            added += 1;
        }
        for &key in &out.ranked[at..at + n as usize] {
            present.remove_ranked(key);
        }
        at += n as usize;
    }
    (
        present.ranks.mean(),
        present.ranks.max(),
        stats::inversions_per_k(out.ranked[..at].iter().copied()),
    )
}

/// Server stage means and client splits of a traced session. Returns the
/// ledger's accounted time per request: the server's stage self-times plus
/// the client's own submit time.
fn trace_metrics(
    server: &PqServer,
    client: &PqClient,
    out: &SessionOut,
    report: &mut Report,
) -> f64 {
    let metrics = server.obs().metrics();
    let mut server_ns = 0.0;
    for (stage, name) in [
        (SpanStage::Recv, "server.recv_ns"),
        (SpanStage::Decode, "server.decode_ns"),
        (SpanStage::Admit, "server.admit_ns"),
        (SpanStage::QueueOp, "server.queue_op_ns"),
        (SpanStage::Flush, "server.flush_ns"),
    ] {
        let mean = metrics
            .histogram("svc_stage_ns", &[("stage", stage.name())])
            .snapshot()
            .mean();
        server_ns += mean;
        report.set(name, mean);
    }
    let totals = client.trace_totals();
    report.check(totals.traced > 0, || "no traced response came back".into());
    let submit_ns = out.submit_ns as f64 / out.submits.max(1) as f64;
    report.set("client.submit_ns", submit_ns);
    report.set(
        "client.drain_ns",
        out.drain_ns as f64 / out.drains.max(1) as f64,
    );
    report.set(
        "client.outside_server_ns",
        totals.client_queue_ns() as f64 / totals.traced.max(1) as f64,
    );
    report.set(
        "client.server_share",
        totals.server_ns as f64 / totals.rtt_ns.max(1) as f64,
    );
    server_ns + submit_ns
}

/// Takes what is left in the queue and checks conservation against the
/// server's own counters.
fn finish(
    server: PqServer,
    mut client: PqClient,
    keys: &Keys,
    sessions: &[&SessionOut],
    report: &mut Report,
) -> choice_wire::ServiceStats {
    let mut drained: Vec<u64> = Vec::new();
    let drain = loop {
        match client.delete_min_batch(4096) {
            Ok(batch) if batch.is_empty() => break Ok(()),
            Ok(batch) => drained.extend(batch.iter().map(|&(k, _)| k)),
            Err(e) => break Err(e),
        }
    };
    report.check(drain.is_ok(), || format!("final drain failed: {drain:?}"));
    drop(client);
    let service = server.join();

    let inserts: u64 = PREFILL + sessions.iter().map(|s| s.inserts).sum::<u64>();
    let inserted_sum = (0..inserts).fold(0u64, |acc, i| acc.wrapping_add(keys.key(i)));
    let mut removed = Tally::default();
    for session in sessions {
        removed.merge(session.removed);
    }
    for &key in &drained {
        removed.add(key);
    }
    let (removed_count, removed_sum) = (removed.count, removed.sum);
    report.failed += inserts.abs_diff(removed_count);
    report.check(
        inserts == removed_count && inserted_sum == removed_sum,
        || {
            format!(
                "key conservation: {inserts} inserted (sum {inserted_sum:#x}), \
             {removed_count} removed (sum {removed_sum:#x})"
            )
        },
    );
    let totals = service.totals;
    report.check(
        totals.inserts == inserts && totals.removals == removed_count && totals.refusals == 0,
        || {
            format!(
                "server counted {} inserts, {} removals, {} refusals; the client sent \
                 {inserts} inserts and received {removed_count} keys",
                totals.inserts, totals.removals, totals.refusals
            )
        },
    );
    service
}

fn fold(out: &SessionOut, report: &mut Report) {
    report.attempted += out.answered;
    report.failed += out.failed;
    for problem in &out.problems {
        report.check(false, || problem.clone());
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let mix = mix(args.seed);
    let keys = Keys::new(&mix);
    if let Err(e) = run_inner(args, &mix, &keys, report) {
        report.check(false, || format!("client error: {e}"));
        report.failed += 1;
    }
}

fn run_inner(args: &Args, mix: &Mix, keys: &Keys, report: &mut Report) -> Result<(), ClientError> {
    if !args.trace {
        // Servers are set up side by side and retired together: joining one
        // waits out its accept-loop poll.
        let mut setups = Vec::with_capacity(SETUPS);
        let mut servers: Vec<PqServer> = (0..SETUPS)
            .map(|_| {
                let t0 = Instant::now();
                let server = spawn(mix);
                setups.push(t0.elapsed().as_secs_f64());
                server
            })
            .collect();
        let server = servers.pop().expect("at least one set-up");
        for old in &servers {
            old.shutdown();
        }
        for old in servers {
            let _ = old.join();
        }
        let mut client = connect(&server, keys)?;
        let mut out = drive(&mut client, mix, keys, PREFILL, args.seconds, false)?;
        fold(&out, report);
        let (rank_mean, rank_max, inversions) = ranks(keys, &out, BATCH as u64);
        finish(server, client, keys, &[&out], report);
        let rtt = out
            .rtt_ns
            .take()
            .map(Samples::into_ordered)
            .unwrap_or_default();
        let delay = out
            .delay_ns
            .take()
            .map(Samples::into_ordered)
            .unwrap_or_default();
        report.set("setup_s", stats::median(&mut setups));
        report.set("ops_per_s", out.ops_per_s);
        report.set("rank_mean", rank_mean);
        report.set("rank_max", rank_max);
        report.set("inversions_per_k", inversions);
        let windows = stats::windows(args.seconds);
        stats::set_p50_p99(report, "rtt", &[&rtt], windows, "request rtt");
        stats::set_p50_p99(report, "delay", &[&delay], windows, "request delay");
        return Ok(());
    }

    // Traced run: the same session untraced, then with every request traced.
    let server = spawn(mix);
    let mut client = connect(&server, keys)?;
    let plain = drive(&mut client, mix, keys, PREFILL, args.seconds / 2.0, false)?;
    let first = PREFILL + plain.inserts;
    let traced = drive(&mut client, mix, keys, first, args.seconds / 2.0, true)?;
    fold(&plain, report);
    fold(&traced, report);
    // Ledger: the client's wall time per request against the timed layers.
    let accounted = trace_metrics(&server, &client, &traced, report);
    report.set(
        "sched.generator_lag_us",
        traced.lag_ns as f64 / traced.submits.max(1) as f64 / 1e3,
    );
    let op_ns = stats::ns_per(traced.elapsed, traced.answered);
    report.set(
        "ledger.unaccounted_pct",
        100.0 * (op_ns - accounted) / op_ns,
    );
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s,
    );
    let service = finish(server, client, keys, &[&plain, &traced], report);
    layers::handle_counters(&service.totals, report);
    layers::measure(mix, report);
    layers::core_calls(mix, report);
    report.set("registry.refusals", service.totals.refusals as f64);
    crate::sched::micro(mix, report);
    Ok(())
}

/// `server.*` and `client.*` for workloads that bypass the wire: a short
/// traced session of the workload's mix through a fresh server.
pub fn micro(mix: &Mix, report: &mut Report) {
    let keys = Keys::new(mix);
    let server = spawn(mix);
    let session = connect(&server, &keys).and_then(|mut client| {
        let out = drive(&mut client, mix, &keys, PREFILL, MICRO_SECONDS, true)?;
        Ok((client, out))
    });
    match session {
        Ok((client, out)) => {
            trace_metrics(&server, &client, &out, report);
            report.check(out.failed == 0, || {
                "wire micro-run saw failed requests".into()
            });
            finish(server, client, &keys, &[&out], report);
        }
        Err(e) => report.check(false, || format!("wire micro-run: {e}")),
    }
}
