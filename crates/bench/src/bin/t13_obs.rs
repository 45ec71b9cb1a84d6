//! T13 — telemetry overhead: the Figure-1 throughput workload with the
//! choice-obs hub detached and attached, gated against a 3 % budget, plus a
//! flight-recorder demo dump.
//!
//! One invocation measures both modes: **detached** (no hub, the baseline)
//! and **attached** (1-in-[`SAMPLE_EVERY`] latency sampling, whose sampled
//! operations also fold the handles' operation and retry counts into the
//! queue's counters). Each mode reports into its own hub. Every rep runs the
//! two modes back to back on the same seed and rotates which mode goes
//! first, so a change in machine state during the run lands on both alike
//! instead of reading as overhead.
//!
//! The overhead budget is a claim, so the run gates it: the attached
//! median throughput may fall below the detached one by at most [`BUDGET`]
//! plus both modes' relative dispersion ([`exceeds_budget`]). A fall beyond
//! that makes the process exit with status 1, after every table, row and
//! dump below has been written. Next to the gate the run reports each rep's
//! paired change (attached against detached on the same seed), with its
//! median and quartiles: machine drift between reps does not widen it, so
//! it shows an overhead the dispersion-widened gate cannot see.
//!
//! After the throughput rows, a deterministic **flight-recorder demo**
//! forces a quota refusal on a tenant queue (via the registry's admission
//! gate), then prints the full exposition dump, which is also the README's
//! observability quick-start output. The demo asserts the refusal landed,
//! so a silent telemetry regression fails the smoke run, not just the docs.
//!
//! Environment knobs: `T13_SAMPLES` (reps, default 3), `T13_THREADS`
//! (default 4), `T13_OPS` (operations per thread, default 200000);
//! `BENCH_JSON=1` emits one JSON object per mode, per rep and for the
//! compared pair to stderr.

use std::sync::Arc;

use choice_bench::report::{
    allowance, emit_json_row, exceeds_budget, median, print_header, print_row, print_section,
    quartiles, rel_dispersion, relative_change, JsonValue,
};
use choice_bench::{env_u64, throughput_workload};
use choice_obs::ObsHub;
use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig, QueueObs};
use choice_wire::{BackendSpec, QueueRegistry, QuotaSpec};

/// The telemetry overhead budget: the largest throughput fall the attached
/// mode may show against the detached one, before both modes' dispersion
/// widens it.
const BUDGET: f64 = 0.03;

/// Keys inserted before the timed phase of every sample.
const PREFILL: u64 = 4_096;

/// Latency sampling stride of the attached mode.
const SAMPLE_EVERY: u32 = 64;

/// The two modes, indexed 0 (detached) and 1 (attached).
const MODES: [&str; 2] = ["detached", "attached"];

/// One throughput sample: a fresh MultiQueue, attached to `hub` when
/// `attached`, run through the shared Figure-1 workload. Returns (ops,
/// ops/s).
fn run_sample(
    attached: bool,
    hub: &Arc<ObsHub>,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> (u64, f64) {
    let mut queue =
        MultiQueue::<u64>::new(MultiQueueConfig::with_queues(2 * threads).with_seed(seed));
    if attached {
        queue.attach_obs(QueueObs::with_sample_every(hub, "bench", SAMPLE_EVERY));
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
        "choice-obs overhead: Figure-1 workload, telemetry detached / attached",
    );
    println!(
        "{threads} threads × {ops_per_thread} ops, prefill {PREFILL}, latency sampling \
         1-in-{SAMPLE_EVERY}; {samples} reps, each running both modes on one seed with the \
         first mode rotating; median per mode. Gate: attached falls by no more than {:.0}% \
         plus both modes' dispersion.",
        BUDGET * 100.0
    );

    let hubs: [Arc<ObsHub>; 2] = std::array::from_fn(|_| ObsHub::new());
    let mut mops: [Vec<f64>; 2] = Default::default();
    let mut operations = 0u64;
    for rep in 0..samples {
        let rep_seed = seed ^ (rep + 1).wrapping_mul(0x9E37);
        for i in 0..MODES.len() {
            let mode = (rep as usize + i) % MODES.len();
            let (ops, ops_per_second) =
                run_sample(mode == 1, &hubs[mode], threads, ops_per_thread, rep_seed);
            operations = ops;
            mops[mode].push(ops_per_second / 1e6);
        }
    }
    // The CI smoke step relies on this: a run that silently did nothing is
    // a failure, not a fast success.
    assert!(
        operations > 0,
        "t13 completed zero operations — the workload never ran"
    );

    println!();
    print_header(&["mode", "ops", "mops/s", "disp %", "mq_ops_total"]);
    // Telemetry self-check: the attached hub counted every operation of
    // every rep, prefill included (the handles fold their counts when they
    // drop); the detached hub counted none.
    let counted_ops = samples * (PREFILL + operations);
    for (mode, label) in MODES.into_iter().enumerate() {
        let mq_ops = hubs[mode]
            .metrics()
            .snapshot()
            .counter("mq_ops_total", &[("queue", "bench")])
            .unwrap_or(0);
        if mode == 0 {
            assert_eq!(mq_ops, 0, "the detached hub must record nothing");
        } else {
            assert!(
                mq_ops >= counted_ops,
                "attached hub: mq_ops_total={mq_ops} < {counted_ops} operations over {samples} reps"
            );
        }
        let mops_median = median(mops[mode].clone());
        let dispersion = rel_dispersion(&mops[mode]);
        print_row(&[
            label.to_string(),
            operations.to_string(),
            format!("{mops_median:.2}"),
            format!("{:.1}", dispersion * 100.0),
            mq_ops.to_string(),
        ]);
        emit_json_row(
            "t13",
            &[
                ("mode", JsonValue::from(label)),
                ("threads", JsonValue::from(threads as u64)),
                ("prefill", JsonValue::from(PREFILL)),
                ("samples", JsonValue::from(samples)),
                ("ops", JsonValue::from(operations)),
                ("mops_per_s", JsonValue::from(mops_median)),
                ("rel_dispersion", JsonValue::from(dispersion)),
                ("mq_ops_total", JsonValue::from(mq_ops)),
            ],
        );
    }

    // Each rep's attached run against the detached run on the same seed,
    // back to back: reported, not gated.
    println!();
    print_header(&["rep", "detached", "attached", "paired %"]);
    let paired: Vec<f64> = (0..samples as usize)
        .map(|rep| {
            let (detached, attached) = (mops[0][rep], mops[1][rep]);
            let change = attached / detached - 1.0;
            print_row(&[
                rep.to_string(),
                format!("{detached:.2}"),
                format!("{attached:.2}"),
                format!("{:+.1}", change * 100.0),
            ]);
            emit_json_row(
                "t13",
                &[
                    ("rep", JsonValue::from(rep as u64)),
                    ("detached_mops_per_s", JsonValue::from(detached)),
                    ("attached_mops_per_s", JsonValue::from(attached)),
                    ("paired_change", JsonValue::from(change)),
                ],
            );
            change
        })
        .collect();
    let (q1, paired_median, q3) = quartiles(&paired);

    println!();
    print_header(&[
        "current", "base", "change %", "allow %", "verdict", "paired %", "q1 %", "q3 %",
    ]);
    let change = relative_change(&mops[0], &mops[1]);
    let allowed = allowance(&mops[0], &mops[1], BUDGET);
    let breach = exceeds_budget(&mops[0], &mops[1], BUDGET);
    let verdict = if breach { "FAIL" } else { "pass" };
    print_row(&[
        MODES[1].to_string(),
        MODES[0].to_string(),
        format!("{:+.1}", change * 100.0),
        format!("{:.1}", allowed * 100.0),
        verdict.to_string(),
        format!("{:+.1}", paired_median * 100.0),
        format!("{:+.1}", q1 * 100.0),
        format!("{:+.1}", q3 * 100.0),
    ]);
    emit_json_row(
        "t13",
        &[
            ("pair", JsonValue::from("attached_vs_detached")),
            ("budget", JsonValue::from(BUDGET)),
            ("change", JsonValue::from(change)),
            ("allowance", JsonValue::from(allowed)),
            ("verdict", JsonValue::from(verdict)),
            ("paired_median", JsonValue::from(paired_median)),
            ("paired_q1", JsonValue::from(q1)),
            ("paired_q3", JsonValue::from(q3)),
        ],
    );

    println!();
    println!(
        "gate: {} — attached {:+.1}% against a {:.1}% allowance",
        if breach { "FAIL" } else { "PASS" },
        change * 100.0,
        allowed * 100.0
    );

    println!();
    println!("-- flight recorder demo: one forced quota refusal --");
    println!("{}", flight_recorder_demo());
    println!(
        "Expected shape: attached passes the {:.0}% budget (widened by both modes' \
         dispersion); the paired median estimates the overhead; the demo dump above shows \
         the quota-refusal event with its tenant, category, key and in-flight depth.",
        BUDGET * 100.0
    );

    if breach {
        std::process::exit(1);
    }
}
