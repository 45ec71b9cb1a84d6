//! Statistics and utility substrate for the power-of-choice reproduction.
//!
//! This crate contains the small, dependency-free building blocks that every
//! other crate in the workspace relies on:
//!
//! * [`choice`] — the shared [`ChoiceRule`] sampling rule
//!   (single-choice, `d`-choice, (1 + β)) used identically by the concurrent
//!   MultiQueue, the theory processes and the balls-into-bins allocators.
//! * [`rng`] — deterministic, fast pseudo-random number generators
//!   ([`SplitMix64`] and [`Xoshiro256`]) used on
//!   the hot paths of the MultiQueue and of the simulated processes. Using our
//!   own PRNGs keeps every experiment exactly reproducible from a seed.
//! * [`fenwick`] — a Fenwick (binary indexed) tree used for *exact* rank
//!   accounting: given the set of labels still present in the system, the rank
//!   of a removed label is a prefix-sum query.
//! * [`order`] — an order-statistics multiset built on the Fenwick tree, with
//!   `rank`, `select` and removal, the workhorse of the sequential-process cost
//!   accounting.
//! * [`inversion`] — the timestamp-based rank-inversion counter replicating the
//!   measurement methodology of Section 5 of the paper.
//! * [`timing`] — [`OpsTimer`], operations per second over a wall-clock
//!   window.
//! * [`tokens`] — a deterministic, explicit-time token bucket used by the
//!   service layer for per-tenant rate admission.
//!
//! # Example
//!
//! ```
//! use rank_stats::rng::{RandomSource, Xoshiro256};
//! use rank_stats::order::OrderStatisticsSet;
//!
//! let mut rng = Xoshiro256::seeded(42);
//! let mut set = OrderStatisticsSet::with_capacity(1024);
//! for _ in 0..100 {
//!     set.insert(rng.next_below(1024));
//! }
//! let smallest = set.select(0).unwrap();
//! assert_eq!(set.rank(smallest), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod fenwick;
pub mod inversion;
pub mod order;
pub mod rng;
pub mod timing;
pub mod tokens;

pub use choice::ChoiceRule;
pub use fenwick::FenwickTree;
pub use inversion::{InversionCounter, TimestampedRemoval};
pub use order::OrderStatisticsSet;
pub use rng::{RandomSource, SplitMix64, Xoshiro256};
pub use timing::OpsTimer;
pub use tokens::TokenBucket;
