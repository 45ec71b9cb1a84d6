//! Baseline concurrent priority queues the paper compares against.
//!
//! Figure 1 and Figure 3 of the paper benchmark the (1 + β) MultiQueue against
//! three families of existing structures. This crate provides a working
//! implementation of each family behind the same handle-based session API
//! ([`SharedPq`] / [`PqHandle`]):
//!
//! * [`CoarseHeap`] — a single 4-ary heap behind one
//!   global lock: the textbook *exact* queue whose sequential bottleneck
//!   motivates relaxation in the first place.
//! * [`SkipListQueue`] — a centralized,
//!   *exact*, skiplist-based queue in the spirit of Lindén–Jonsson: removals
//!   mark nodes logically deleted and physical cleanup is batched, so
//!   `delete_min` does very little work under the lock. It remains
//!   centralized, which is the property the comparison relies on.
//! * [`KLsmQueue`] — a deterministic-relaxed queue in the
//!   spirit of the k-LSM: per-session buffers plus a shared spill structure,
//!   guaranteeing that `delete_min` returns one of the `k + T·b` smallest
//!   elements (where `T` is the session count and `b` the local buffer
//!   bound). Its sessions ([`KLsmHandle`]) are pinned to a
//!   thread slot at registration.
//!
//! The exact centralized queues implement [`FlatOps`](choice_pq::FlatOps)
//! (their operations are intrinsically shared), so their sessions are
//! [`FlatHandle`](choice_pq::FlatHandle)s carrying only statistics.
//!
//! The substitutions relative to the paper's exact comparators (which are
//! lock-free CAS-based structures) are documented in `DESIGN.md`; what is
//! preserved is the *semantic class* (exact centralized vs. deterministic
//! bounded relaxation vs. randomized relaxation) and the coarse performance
//! shape (centralized structures serialise `delete_min`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarse_heap;
pub mod klsm;
pub mod skiplist_queue;

pub use coarse_heap::CoarseHeap;
pub use klsm::{KLsmConfig, KLsmHandle, KLsmQueue};
pub use skiplist_queue::SkipListQueue;

/// Re-export of the shared session traits so downstream code can depend only
/// on this crate when it wants "all the queues".
pub use choice_pq::{DynSharedPq, HandleStats, Key, PqHandle, SharedPq};
