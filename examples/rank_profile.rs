//! Rank profile of the sequential process: reproduce the paper's headline
//! numbers interactively.
//!
//! Sweeps β for a fixed number of queues and prints the mean/max rank of the
//! sequential (1 + β) process, the exponential-process potential Γ/n, and the
//! divergence of the single-choice process — a condensed, fast version of the
//! T1/T2/T3/T5 experiment binaries.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rank_profile
//! ```
//!
//! Environment knobs (used by the CI smoke run): `RANK_STEPS` (process steps
//! per configuration, default 100000), `RANK_QUEUES` (number of queues n,
//! default 16).

use choice_bench::env_u64;
use power_of_choice::prelude::*;
use power_of_choice::process::potential::{PotentialParams, PotentialSnapshot};

fn main() {
    let n = env_u64("RANK_QUEUES", 16).max(2) as usize;
    let steps = env_u64("RANK_STEPS", 100_000).max(1);
    let floor = (n as u64) * 500;

    println!("sequential (1 + beta) process with n = {n} queues, {steps} steps");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "beta", "mean rank", "max rank", "mean rank / n"
    );
    for beta in [1.0, 0.75, 0.5, 0.25, 0.0] {
        let mut process =
            SequentialProcess::new(ProcessConfig::new(n).with_beta(beta).with_seed(1));
        let summary = process.run_alternating(steps, floor);
        println!(
            "{:>8} {:>12.2} {:>12} {:>14.2}",
            beta,
            summary.mean_rank,
            summary.max_rank,
            summary.mean_rank / n as f64
        );
    }
    println!();
    println!("(Theorem 1: for beta bounded away from 0 the mean rank stays O(n);");
    println!(" Theorem 6: for beta = 0 it grows with the run length.)");

    // Potential of the exponential process (Theorem 3).
    let params = PotentialParams::from_beta_gamma(1.0, 0.0);
    let mut exponential = ExponentialTopProcess::new(ProcessConfig::new(n).with_seed(1));
    exponential.run(steps);
    let snapshot = PotentialSnapshot::compute(&exponential.deviations(), params.alpha);
    println!();
    println!(
        "exponential process after {steps} steps: Gamma/n = {:.2} (Theorem 3 says O(1))",
        snapshot.gamma_per_bin
    );

    // Insertion bias robustness.
    let mut biased = SequentialProcess::new(
        ProcessConfig::new(n)
            .with_beta(1.0)
            .with_bias_gamma(0.3)
            .with_seed(1),
    );
    let summary = biased.run_alternating(steps, floor);
    println!(
        "with insertion bias gamma = 0.3: mean rank {:.2} (still O(n) — bias robustness)",
        summary.mean_rank
    );
}
