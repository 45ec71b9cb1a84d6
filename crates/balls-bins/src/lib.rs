//! Balls-into-bins allocation processes.
//!
//! The paper's analysis repeatedly leans on the balls-into-bins literature:
//!
//! * the classic *two-choice* ("power of two choices") process \[5, 26\],
//! * its heavily-loaded, long-lived extension \[7, 30\], and
//! * the *(1 + β)-choice* process of Peres, Talwar and Wieder \[30\].
//!
//! Appendix A of the paper shows that under **round-robin insertion** the
//! labelled removal process reduces exactly to a two-choice process on
//! "virtual bins"; Appendix B uses the known Θ(√(t/n·log n)) gap of the
//! single-choice process to prove the divergence lower bound. This crate
//! implements those processes ([`AllocationProcess`] for insert-only
//! allocation, [`LongLivedProcess`] for the long-lived one) so the reduction
//! and the gap claims can be checked empirically (experiment T7).
//!
//! # Example
//!
//! ```
//! use balls_bins::{AllocationProcess, ChoiceRule};
//!
//! // 1024 balls into 64 bins with the two-choice rule: the gap between the
//! // most loaded bin and the average is O(log log n), far below single-choice.
//! let mut p = AllocationProcess::new(64, ChoiceRule::TwoChoice, 42);
//! p.insert_many(1024);
//! assert_eq!(p.total_balls(), 1024);
//! assert!(p.load_stats().gap_above_mean <= 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod longlived;
pub mod process;

pub use longlived::LongLivedProcess;
pub use process::{AllocationProcess, ChoiceRule, LoadStats};
