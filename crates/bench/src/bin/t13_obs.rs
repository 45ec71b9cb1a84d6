//! T13 — telemetry overhead: the Figure-1 throughput workload with the
//! choice-obs hub attached vs detached, plus a flight-recorder demo dump.
//!
//! The observability budget is a *claim*, so it is measured like any other
//! bench and gated like any other trajectory: one invocation runs the
//! alternating insert/deleteMin workload in exactly **one** telemetry mode
//! (`T13_OBS=0` detached — the baseline; `T13_OBS=1` attached — sharded
//! counters on every operation plus 1-in-`T13_SAMPLE_EVERY` latency
//! sampling; `T13_OBS=2` attached **and traced** — sampled operations also
//! record request spans into the hub's span ring, the same write a traced
//! wire request costs the server), and emits the same `BENCH_JSON=1` row
//! identity in every mode: `obs_mode`/`obs_enabled` are **diagnostic**
//! fields, not config keys, so the artifacts compare as the *same* bench
//! points. CI runs the binary three times and feeds each pair through
//! `t12_compare` at `T12_THRESHOLD=0.03` — the ≤3% overhead budget as a
//! failing gate, with the usual noise-aware allowance on top.
//!
//! After the throughput rows, a deterministic **flight-recorder demo**
//! forces a quota refusal on a tenant queue (via the registry's admission
//! gate), then prints the full exposition dump, which is also the README's
//! observability quick-start output. The demo asserts the refusal landed,
//! so a silent telemetry regression fails the smoke run, not just the docs.
//!
//! Environment knobs: `T13_OBS` (0/1/2, default 0), `T13_SAMPLES` (reps per
//! row, default 3), `T13_THREADS` (default 4), `T13_OPS` (operations per
//! thread, default 200000), `T13_PREFILL` (default 4096),
//! `T13_SAMPLE_EVERY` (latency sampling stride when enabled, default 64),
//! `T13_SPAN_DUMP` (path: in traced mode, write the span-ring dump there —
//! the CI artifact showing what the traced run recorded); `BENCH_JSON=1`
//! emits one JSON object per row to stderr.

use std::sync::Arc;

use choice_bench::report::{emit_json_row, print_header, print_row, print_section, JsonValue};
use choice_bench::{env_u64, throughput_workload};
use choice_obs::ObsHub;
use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig, QueueObs};
use choice_wire::{BackendSpec, QueueRegistry, QuotaSpec};

/// Median of a non-empty sample vector.
fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Half the sample span over the median — the dispersion `t12_compare`
/// widens its allowance by (same convention as `t11_registry`).
fn rel_dispersion(samples: &[f64]) -> f64 {
    let m = median(samples.to_vec());
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let half_span = (hi - lo) / 2.0;
    if half_span == 0.0 {
        0.0
    } else if m.abs() < 1e-12 {
        1.0
    } else {
        half_span / m.abs()
    }
}

/// One throughput sample: a fresh MultiQueue (obs attached when `hub` is
/// given, span-traced when `traced` too), run through the shared Figure-1
/// workload. Returns (ops, ops/s).
fn run_sample(
    hub: Option<&Arc<ObsHub>>,
    traced: bool,
    threads: usize,
    prefill: u64,
    ops_per_thread: u64,
    sample_every: u32,
    seed: u64,
) -> (u64, f64) {
    let mut queue =
        MultiQueue::<u64>::new(MultiQueueConfig::with_queues(2 * threads).with_seed(seed));
    if let Some(hub) = hub {
        queue.attach_obs(if traced {
            QueueObs::with_trace(hub, "bench", sample_every)
        } else {
            QueueObs::with_sample_every(hub, "bench", sample_every)
        });
    }
    let shared: Arc<dyn DynSharedPq<u64>> = Arc::new(queue);
    let result = throughput_workload(shared, threads, prefill, ops_per_thread, seed);
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
    let obs_mode = env_u64("T13_OBS", 0).min(2);
    let obs_enabled = obs_mode != 0;
    let traced = obs_mode == 2;
    let samples = env_u64("T13_SAMPLES", 3).max(1);
    let threads = env_u64("T13_THREADS", 4) as usize;
    let ops_per_thread = env_u64("T13_OPS", 200_000);
    let prefill = env_u64("T13_PREFILL", 4_096);
    let sample_every = env_u64("T13_SAMPLE_EVERY", 64).max(1) as u32;
    let seed = 53u64;
    let mode_label = match obs_mode {
        0 => "detached",
        1 => "ATTACHED",
        _ => "ATTACHED+TRACED",
    };

    print_section(
        "T13",
        "choice-obs overhead: Figure-1 workload, telemetry attached vs detached",
    );
    println!(
        "mode: obs {mode_label} — {threads} threads × {ops_per_thread} ops, prefill \
         {prefill}, latency sampling 1-in-{sample_every}; median of {samples} samples. \
         Run once per mode and gate each pair with t12_compare (T12_THRESHOLD=0.03): \
         `obs_mode` is a diagnostic, so all modes are the same trajectory point.",
    );
    println!();
    print_header(&["threads", "obs", "ops", "mops/s", "disp %"]);

    let hub = ObsHub::new();
    let runs: Vec<(u64, f64)> = (0..samples)
        .map(|s| {
            run_sample(
                obs_enabled.then_some(&hub),
                traced,
                threads,
                prefill,
                ops_per_thread,
                sample_every,
                seed ^ (s + 1).wrapping_mul(0x9E37),
            )
        })
        .collect();
    let operations = runs[0].0;
    let mops_samples: Vec<f64> = runs.iter().map(|(_, r)| r / 1e6).collect();
    let mops = median(mops_samples.clone());
    let dispersion = rel_dispersion(&mops_samples);
    print_row(&[
        threads.to_string(),
        match obs_mode {
            0 => "off",
            1 => "on",
            _ => "traced",
        }
        .to_string(),
        operations.to_string(),
        format!("{mops:.2}"),
        format!("{:.1}", dispersion * 100.0),
    ]);

    // Telemetry self-check: with obs attached, the sharded counters must
    // have seen (at least) every completed operation across the samples.
    let mq_ops = hub
        .metrics()
        .snapshot()
        .counter("mq_ops_total", &[("queue", "bench")])
        .unwrap_or(0);
    if obs_enabled {
        assert!(
            mq_ops >= operations,
            "obs attached but mq_ops_total={mq_ops} < {operations} completed operations"
        );
    } else {
        assert_eq!(mq_ops, 0, "obs detached must record nothing");
    }
    // In traced mode the span ring must actually have seen sampled spans —
    // a traced run that recorded nothing would gate a vacuous overhead.
    let spans_recorded = hub.spans().recorded();
    if traced {
        assert!(
            spans_recorded > 0,
            "obs traced but the span ring recorded nothing"
        );
        if let Ok(path) = std::env::var("T13_SPAN_DUMP") {
            if !path.is_empty() {
                std::fs::write(&path, hub.spans().dump_text())
                    .unwrap_or_else(|e| panic!("T13_SPAN_DUMP={path}: {e}"));
                println!("span-ring dump written to {path}");
            }
        }
    } else {
        assert_eq!(spans_recorded, 0, "untraced modes must not record spans");
    }

    emit_json_row(
        "t13",
        &[
            ("threads", JsonValue::from(threads as u64)),
            ("prefill", JsonValue::from(prefill)),
            ("samples", JsonValue::from(samples)),
            ("ops", JsonValue::from(operations)),
            ("mops_per_s", JsonValue::from(mops)),
            ("rel_dispersion", JsonValue::from(dispersion)),
            ("obs_enabled", JsonValue::from(obs_enabled as u64)),
            ("obs_mode", JsonValue::from(obs_mode)),
            ("mq_ops_total", JsonValue::from(mq_ops)),
            ("spans_recorded", JsonValue::from(spans_recorded)),
        ],
    );

    // The CI smoke step relies on this: a run that silently did nothing is
    // a failure, not a fast success.
    assert!(
        operations > 0,
        "t13 completed zero operations — the workload never ran"
    );

    println!();
    println!("-- flight recorder demo: one forced quota refusal --");
    println!("{}", flight_recorder_demo());
    println!(
        "Expected shape: the attached and detached rows agree within the 3% telemetry \
         budget (the gate t12_compare enforces in CI); the demo dump above shows the \
         quota-refusal event with its tenant, category, key and in-flight depth."
    );
}
