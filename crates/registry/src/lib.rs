//! # choice-registry — multi-tenant named priority queues
//!
//! One relaxed priority queue per workload stops scaling the moment a
//! second tenant shows up: the (1+β) rank bound is a *per-structure*
//! guarantee, so tenants sharing one MultiQueue also share its relaxation
//! budget, its contention, and its failure modes. This crate gives each
//! tenant its own structure instead, behind a shared namespace:
//!
//! * [`QueueRegistry`] — a bounded namespace of named queues. Each entry
//!   carries a declarative [`BackendSpec`] (which backend, what sizing) and
//!   a [`QuotaSpec`] (resource budget); the structure itself is built
//!   lazily on first use, seeded deterministically per name.
//! * [`QueueBinding`] — one session's claim on a queue: the admission gate
//!   (in-flight quota, token-bucket rate, drop tombstones) plus the
//!   session's stats slot. Every refusal is typed ([`Refusal`]) and
//!   counted first-class in the queue's
//!   [`HandleStats::refusals`](choice_pq::HandleStats) — shedding is an
//!   observable outcome, not a silent drop.
//! * Per-queue statistics that stay bounded and monotonic under session
//!   churn: live sessions keep individual slots, closed sessions roll up
//!   into a single accumulator, dropped queues retire into a
//!   registry-level roll-up.
//!
//! The service crate (`choice-wire`) exposes all of this over the wire
//! (`CreateQueue` / `DropQueue` / `ListQueues` / `UseQueue`); a connection
//! starts bound to the [`DEFAULT_QUEUE`] when the registry holds one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod spec;

pub use registry::{
    valid_name, QueueBinding, QueueRegistry, QueueSnapshot, Refusal, RegistryError, DEFAULT_QUEUE,
    MAX_NAME_LEN, MAX_QUEUES,
};
pub use spec::{BackendSpec, QuotaSpec};
