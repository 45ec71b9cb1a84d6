//! Sync-primitive indirection for the lanes and the queue's counters.
//!
//! Normally these are the real primitives (`parking_lot::Mutex`, the `std`
//! atomics) with zero overhead. Under the `check` cargo feature they become
//! the `choice-check` wrappers, whose every access is a schedule point of
//! the deterministic-interleaving explorer — so the *real* `MultiQueue`
//! (not a transliterated model) can run under explored schedules in
//! `tests/check_multiqueue.rs`. Outside an active exploration the wrappers
//! pass straight through to the `std` primitives, so a `--features check`
//! build still runs the ordinary test suite unchanged.

#[cfg(not(feature = "check"))]
pub(crate) use parking_lot::{Mutex, MutexGuard};
#[cfg(not(feature = "check"))]
pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize};

#[cfg(feature = "check")]
pub(crate) use choice_check::sync::{AtomicU64, AtomicUsize, Mutex, MutexGuard};

pub(crate) use std::sync::atomic::Ordering;
