//! T13 — telemetry overhead: the Figure-1 throughput workload with the
//! choice-obs hub detached, attached and traced, gated against a 3 % budget,
//! plus a flight-recorder demo dump.
//!
//! One invocation measures all three modes: **detached** (no hub, the
//! baseline), **attached** (sharded counters on every operation plus
//! 1-in-[`SAMPLE_EVERY`] latency sampling) and **traced** (attached, and
//! sampled operations also record request spans into the hub's span ring,
//! the same write a traced wire request costs the server). Each mode reports
//! into its own hub. Every rep runs the three modes back to back on the same
//! seed and rotates which mode goes first, so a change in machine state
//! during the run lands on all three alike instead of reading as overhead.
//!
//! The overhead budget is a claim, so the run gates it. For each pair —
//! attached vs detached, traced vs detached, traced vs attached — the second
//! mode's median throughput may fall below the first's by at most
//! [`BUDGET`] plus both modes' relative dispersion
//! ([`exceeds_budget`]). A pair beyond that makes the process exit with
//! status 1, after every table, row and dump below has been written.
//!
//! After the throughput rows, a deterministic **flight-recorder demo**
//! forces a quota refusal on a tenant queue (via the registry's admission
//! gate), then prints the full exposition dump, which is also the README's
//! observability quick-start output. The demo asserts the refusal landed,
//! so a silent telemetry regression fails the smoke run, not just the docs.
//!
//! Environment knobs: `T13_SAMPLES` (reps, default 3), `T13_THREADS`
//! (default 4), `T13_OPS` (operations per thread, default 200000),
//! `T13_SPAN_DUMP` (path: write the traced hub's span-ring dump there);
//! `BENCH_JSON=1` emits one JSON object per mode and one per compared pair
//! to stderr.

use std::sync::Arc;

use choice_bench::report::{
    allowance, emit_json_row, exceeds_budget, median, print_header, print_row, print_section,
    rel_dispersion, relative_change, JsonValue,
};
use choice_bench::{env_u64, throughput_workload};
use choice_obs::ObsHub;
use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig, QueueObs};
use choice_wire::{BackendSpec, QueueRegistry, QuotaSpec};

/// The telemetry overhead budget: the largest throughput fall a mode may
/// show against a cheaper one, before both modes' dispersion widens it.
const BUDGET: f64 = 0.03;

/// Keys inserted before the timed phase of every sample.
const PREFILL: u64 = 4_096;

/// Latency sampling stride of the attached and traced modes.
const SAMPLE_EVERY: u32 = 64;

/// How the MultiQueue under test reports.
#[derive(Clone, Copy)]
enum Mode {
    /// No hub attached: the baseline.
    Detached,
    /// Counters and sampled latencies.
    Attached,
    /// Attached, plus request spans for the sampled operations.
    Traced,
}

impl Mode {
    /// Every mode, indexed by `mode as usize`.
    const ALL: [Mode; 3] = [Mode::Detached, Mode::Attached, Mode::Traced];

    fn label(self) -> &'static str {
        match self {
            Mode::Detached => "detached",
            Mode::Attached => "attached",
            Mode::Traced => "traced",
        }
    }
}

/// The gated pairs, `(base, current)`: `current` must not fall below
/// `base` beyond the allowance.
const PAIRS: [(Mode, Mode); 3] = [
    (Mode::Detached, Mode::Attached),
    (Mode::Detached, Mode::Traced),
    (Mode::Attached, Mode::Traced),
];

/// One throughput sample: a fresh MultiQueue reporting into `hub` as `mode`
/// says, run through the shared Figure-1 workload. Returns (ops, ops/s).
fn run_sample(
    mode: Mode,
    hub: &Arc<ObsHub>,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> (u64, f64) {
    let mut queue =
        MultiQueue::<u64>::new(MultiQueueConfig::with_queues(2 * threads).with_seed(seed));
    match mode {
        Mode::Detached => {}
        Mode::Attached => {
            queue.attach_obs(QueueObs::with_sample_every(hub, "bench", SAMPLE_EVERY));
        }
        Mode::Traced => queue.attach_obs(QueueObs::with_trace(hub, "bench", SAMPLE_EVERY)),
    }
    let shared: Arc<dyn DynSharedPq<u64>> = Arc::new(queue);
    let result = throughput_workload(shared, threads, PREFILL, ops_per_thread, seed);
    (result.operations, result.ops_per_second)
}

/// The deterministic flight-recorder demo: force a quota refusal into a
/// hub, dump it, and check the event landed.
fn flight_recorder_demo() -> String {
    let hub = ObsHub::with_capacity(256);

    // A tenant queue with an in-flight quota of 2: the third admission is
    // refused, and the refusal lands in the ring with its category, key and
    // in-flight depth.
    let registry = QueueRegistry::default();
    registry.set_obs(Arc::clone(&hub));
    registry
        .create(
            "tenant/a",
            BackendSpec::CoarseHeap,
            QuotaSpec::unlimited().with_max_inflight(2),
        )
        .expect("fresh registry accepts the tenant queue");
    let binding = registry.bind("tenant/a").expect("bind the tenant queue");
    for key in [1u64, 2] {
        binding.admit_insert(key).expect("under quota");
    }
    binding
        .admit_insert(3)
        .expect_err("the third in-flight insert must be refused");

    let dump = hub.render_dump(true);
    assert!(
        dump.contains("quota-refusal") && dump.contains("tenant/a"),
        "the demo dump must carry the tenant's quota refusal:\n{dump}"
    );
    dump
}

fn main() {
    let samples = env_u64("T13_SAMPLES", 3).max(1);
    let threads = env_u64("T13_THREADS", 4) as usize;
    let ops_per_thread = env_u64("T13_OPS", 200_000);
    let seed = 53u64;

    print_section(
        "T13",
        "choice-obs overhead: Figure-1 workload, telemetry detached / attached / traced",
    );
    println!(
        "{threads} threads × {ops_per_thread} ops, prefill {PREFILL}, latency sampling \
         1-in-{SAMPLE_EVERY}; {samples} reps, each running every mode on one seed with the \
         first mode rotating; median per mode. Gate: no pair falls by more than {:.0}% plus \
         both modes' dispersion.",
        BUDGET * 100.0
    );

    let hubs: [Arc<ObsHub>; 3] = std::array::from_fn(|_| ObsHub::new());
    let mut mops: [Vec<f64>; 3] = Default::default();
    let mut operations = 0u64;
    for rep in 0..samples {
        let rep_seed = seed ^ (rep + 1).wrapping_mul(0x9E37);
        for i in 0..Mode::ALL.len() {
            let mode = Mode::ALL[(rep as usize + i) % Mode::ALL.len()];
            let (ops, ops_per_second) = run_sample(
                mode,
                &hubs[mode as usize],
                threads,
                ops_per_thread,
                rep_seed,
            );
            operations = ops;
            mops[mode as usize].push(ops_per_second / 1e6);
        }
    }
    // The CI smoke step relies on this: a run that silently did nothing is
    // a failure, not a fast success.
    assert!(
        operations > 0,
        "t13 completed zero operations — the workload never ran"
    );

    println!();
    print_header(&["mode", "ops", "mops/s", "disp %", "mq_ops_total", "spans"]);
    // Telemetry self-check: an attached hub counted every operation of every
    // rep, prefill included; the detached hub counted none; only the traced
    // hub recorded spans (a traced run that recorded nothing would gate a
    // vacuous overhead).
    let counted_ops = samples * (PREFILL + operations);
    for mode in Mode::ALL {
        let hub = &hubs[mode as usize];
        let mq_ops = hub
            .metrics()
            .snapshot()
            .counter("mq_ops_total", &[("queue", "bench")])
            .unwrap_or(0);
        let spans = hub.spans().recorded();
        match mode {
            Mode::Detached => assert_eq!(mq_ops, 0, "the detached hub must record nothing"),
            Mode::Attached | Mode::Traced => assert!(
                mq_ops >= counted_ops,
                "{} hub: mq_ops_total={mq_ops} < {counted_ops} operations over {samples} reps",
                mode.label()
            ),
        }
        assert_eq!(
            spans > 0,
            matches!(mode, Mode::Traced),
            "{} hub recorded {spans} spans; only the traced hub may, and must",
            mode.label()
        );
        let samples_of_mode = &mops[mode as usize];
        let mops_median = median(samples_of_mode.clone());
        let dispersion = rel_dispersion(samples_of_mode);
        print_row(&[
            mode.label().to_string(),
            operations.to_string(),
            format!("{mops_median:.2}"),
            format!("{:.1}", dispersion * 100.0),
            mq_ops.to_string(),
            spans.to_string(),
        ]);
        emit_json_row(
            "t13",
            &[
                ("mode", JsonValue::from(mode.label())),
                ("threads", JsonValue::from(threads as u64)),
                ("prefill", JsonValue::from(PREFILL)),
                ("samples", JsonValue::from(samples)),
                ("ops", JsonValue::from(operations)),
                ("mops_per_s", JsonValue::from(mops_median)),
                ("rel_dispersion", JsonValue::from(dispersion)),
                ("mq_ops_total", JsonValue::from(mq_ops)),
                ("spans_recorded", JsonValue::from(spans)),
            ],
        );
    }

    println!();
    print_header(&["current", "base", "change %", "allow %", "verdict"]);
    let mut failed_pairs = 0;
    for (base, current) in PAIRS {
        let (base_mops, current_mops) = (&mops[base as usize], &mops[current as usize]);
        let change = relative_change(base_mops, current_mops);
        let allowed = allowance(base_mops, current_mops, BUDGET);
        let breach = exceeds_budget(base_mops, current_mops, BUDGET);
        let verdict = if breach { "FAIL" } else { "pass" };
        failed_pairs += usize::from(breach);
        print_row(&[
            current.label().to_string(),
            base.label().to_string(),
            format!("{:+.1}", change * 100.0),
            format!("{:.1}", allowed * 100.0),
            verdict.to_string(),
        ]);
        emit_json_row(
            "t13",
            &[
                (
                    "pair",
                    JsonValue::Str(format!("{}_vs_{}", current.label(), base.label())),
                ),
                ("budget", JsonValue::from(BUDGET)),
                ("change", JsonValue::from(change)),
                ("allowance", JsonValue::from(allowed)),
                ("verdict", JsonValue::from(verdict)),
            ],
        );
    }

    println!();
    println!(
        "gate: {} — {failed_pairs} of {} pairs beyond the budget",
        if failed_pairs == 0 { "PASS" } else { "FAIL" },
        PAIRS.len()
    );

    if let Ok(path) = std::env::var("T13_SPAN_DUMP") {
        if !path.is_empty() {
            std::fs::write(&path, hubs[Mode::Traced as usize].spans().dump_text())
                .unwrap_or_else(|e| panic!("T13_SPAN_DUMP={path}: {e}"));
            println!("span-ring dump written to {path}");
        }
    }

    println!();
    println!("-- flight recorder demo: one forced quota refusal --");
    println!("{}", flight_recorder_demo());
    println!(
        "Expected shape: every pair passes the {:.0}% budget (widened by both modes' \
         dispersion); the demo dump above shows the quota-refusal event with its tenant, \
         category, key and in-flight depth.",
        BUDGET * 100.0
    );

    if failed_pairs > 0 {
        std::process::exit(1);
    }
}
