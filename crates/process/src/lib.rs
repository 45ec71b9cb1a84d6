//! The sequential processes analysed by the paper.
//!
//! *The Power of Choice in Priority Scheduling* (Alistarh, Kopinsky, Li,
//! Nadiradze; PODC 2017) analyses the following **sequential labelled
//! process**: `n` queues receive consecutively labelled elements, each
//! inserted into queue `i` with probability `π_i` (uniform up to a bias bound
//! `γ`). A removal, with probability `β`, samples two queues uniformly at
//! random and removes the smaller (higher-priority) label of the two tops; with
//! probability `1 − β` it removes the top of a single random queue. The cost of
//! a removal is the *rank* of the removed label among all labels still present.
//!
//! The paper's main results, all reproducible with this crate:
//!
//! * **Theorem 1** — for `β = Ω(γ)` the expected rank per removal is
//!   `O(n/β²)` and the expected maximum rank is `O((n/β)(log n + log 1/β))`,
//!   *independent of how long the process runs* ([`sequential`]).
//! * **Theorem 6** — the single-choice process (`β = 0`) diverges: its rank
//!   cost grows as `Ω(√(t·n·log n))` ([`sequential`] with
//!   [`ChoiceRule::SingleChoice`](config::ChoiceRule)).
//! * **Theorem 2** — the rank distribution of the labelled process equals that
//!   of an *exponential process* with real-valued labels ([`exponential`],
//!   checked statistically in [`coupling`]).
//! * **Theorem 3** — the potential `Γ(t) = Φ(t) + Ψ(t)` of the exponential
//!   process stays `O(n)` in expectation ([`potential`]).
//! * **Appendix A** — under round-robin insertion the process reduces exactly
//!   to a classic two-choice balls-into-bins process ([`round_robin`]).
//!
//! Every process is parameterised by the workspace-wide
//! [`ChoiceRule`] — the same type that
//! configures the concurrent `choice_pq::MultiQueue` — so a theory prediction
//! and the matching real-queue experiment are driven by one rule value. In
//! addition to the paper's single-/two-/(1 + β)-choice rules this admits the
//! general `d`-choice rule (`ChoiceRule::DChoice(d)`), whose couplings the
//! processes here share with the queue.
//!
//! # Example
//!
//! ```
//! use choice_process::{ProcessConfig, SequentialProcess};
//!
//! // 8 queues, pure two-choice removals, 10k prefilled labels.
//! let config = ProcessConfig::new(8).with_beta(1.0).with_seed(7);
//! let mut process = SequentialProcess::new(config);
//! process.prefill(10_000);
//! let summary = process.run_removals(5_000);
//! // Theorem 1: the average rank is O(n); with n = 8 it is a small number.
//! assert!(summary.mean_rank < 8.0 * 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coupling;
pub mod exponential;
pub mod metrics;
pub mod potential;
pub mod round_robin;
pub mod sequential;

pub use config::{BiasSpec, ChoiceRule, ProcessConfig};
pub use coupling::{distance_to_theory, rank_occupancy_distance, RankOccupancy};
pub use exponential::{ExponentialInsertion, ExponentialTopProcess};
pub use metrics::{RankCostSummary, RankTimeSeries};
pub use potential::{PotentialParams, PotentialSnapshot, PotentialTrajectory};
pub use round_robin::RoundRobinProcess;
pub use sequential::{RemovalRecord, SequentialProcess};
