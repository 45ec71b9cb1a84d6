//! Drop-in sync primitives that become schedule points under exploration.
//!
//! [`Mutex`] mirrors the `parking_lot` shim's API (`lock` returns a guard,
//! `try_lock` an `Option`, no poisoning) and the `Atomic*` types mirror the
//! `std::sync::atomic` API, so production code can route through these with a
//! one-line `use` swap behind a cargo feature. Outside an exploration every
//! operation is a plain passthrough to the `std` primitive; inside one, every
//! operation first parks the calling virtual thread so the scheduler can
//! interleave another thread before the effect happens, and all atomic
//! orderings are strengthened to `SeqCst` (the explorer checks sequentially
//! consistent executions only — see DESIGN.md §9).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::{Arc, PoisonError, TryLockError};

pub use std::sync::atomic::Ordering;

use crate::exec::{current, Execution, Wait};

/// Parks at a schedule point if called from a virtual thread.
/// Returns whether an exploration is active (→ force `SeqCst`).
fn interleave() -> bool {
    if let Some((exec, tid)) = current() {
        exec.park(tid, Wait::Ready);
        true
    } else {
        false
    }
}

/// A mutex that, under exploration, is acquired *virtually*: availability
/// and the waiter's blocked state live in the execution's state, so the
/// scheduler decides who acquires next and records the acquisition order.
/// The protected data still sits behind a real `std::sync::Mutex`, which is
/// provably uncontended once the virtual acquisition succeeded.
pub struct Mutex<T: ?Sized> {
    /// Packed `generation << 32 | (lock id + 1)`; 0 = not yet registered
    /// with any execution. Only the running virtual thread touches this, so
    /// plain store suffices.
    vid: StdAtomicU64,
    data: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`] and [`Mutex::try_lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    /// `(execution, lock id, holder tid)` when virtually held.
    virt: Option<(Arc<Execution>, usize, usize)>,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            vid: StdAtomicU64::new(0),
            data: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The lock id of this mutex within `exec`, registering it on first use.
    fn virtual_id(&self, exec: &Execution) -> usize {
        let gen = exec.generation & 0xFFFF_FFFF;
        let v = self.vid.load(Ordering::Relaxed);
        if v >> 32 == gen && (v & 0xFFFF_FFFF) != 0 {
            return (v & 0xFFFF_FFFF) as usize - 1;
        }
        let id = exec.alloc_lock();
        self.vid
            .store((gen << 32) | (id as u64 + 1), Ordering::Relaxed);
        id
    }

    fn real_guard(&self) -> std::sync::MutexGuard<'_, T> {
        // A virtual holder that panicked poisons the std mutex on unwind;
        // recover, matching parking_lot's no-poisoning semantics.
        match self.data.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("virtual mutex exclusion violated: real lock contended")
            }
        }
    }

    /// Acquires the lock, blocking (virtually, under exploration) until it
    /// is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some((exec, tid)) = current() {
            let id = self.virtual_id(&exec);
            exec.park(tid, Wait::Ready); // schedule point before the acquire
            loop {
                {
                    let mut s = exec.st();
                    if s.lock_holders[id].is_none() {
                        s.lock_holders[id] = Some(tid);
                        Execution::push_trace(&mut s, format!("t{tid} acquired m{id}"));
                        break;
                    }
                }
                // Held: park until the scheduler sees the lock free and
                // picks us; re-check (we are then the only runner).
                exec.park(tid, Wait::Lock(id));
            }
            MutexGuard {
                virt: Some((exec, id, tid)),
                inner: self.real_guard(),
            }
        } else {
            MutexGuard {
                virt: None,
                inner: self.data.lock().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some((exec, tid)) = current() {
            let id = self.virtual_id(&exec);
            exec.park(tid, Wait::Ready);
            let acquired = {
                let mut s = exec.st();
                if s.lock_holders[id].is_none() {
                    s.lock_holders[id] = Some(tid);
                    Execution::push_trace(&mut s, format!("t{tid} acquired m{id} (try)"));
                    true
                } else {
                    false
                }
            };
            acquired.then(|| MutexGuard {
                virt: Some((exec, id, tid)),
                inner: self.real_guard(),
            })
        } else {
            match self.data.try_lock() {
                Ok(g) => Some(MutexGuard {
                    virt: None,
                    inner: g,
                }),
                Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                    virt: None,
                    inner: p.into_inner(),
                }),
                Err(TryLockError::WouldBlock) => None,
            }
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed: the exclusive borrow proves no other thread holds the lock).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Avoid a schedule point inside Debug: peek at the real lock only.
        match self.data.try_lock() {
            Ok(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((exec, id, tid)) = self.virt.take() {
            // The real guard is still held here, but no other thread can run
            // until we next park, so release order is unobservable.
            let mut s = exec.st();
            s.lock_holders[id] = None;
            Execution::push_trace(&mut s, format!("t{tid} released m{id}"));
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$doc])*
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic holding `value`.
            pub const fn new(value: $prim) -> Self {
                Self { inner: std::sync::atomic::$std::new(value) }
            }

            /// Loads the value; a schedule point under exploration.
            pub fn load(&self, order: Ordering) -> $prim {
                if interleave() {
                    self.inner.load(Ordering::SeqCst)
                } else {
                    self.inner.load(order)
                }
            }

            /// Stores `value`; a schedule point under exploration.
            pub fn store(&self, value: $prim, order: Ordering) {
                if interleave() {
                    self.inner.store(value, Ordering::SeqCst)
                } else {
                    self.inner.store(value, order)
                }
            }

            /// Swaps in `value`, returning the previous value.
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                if interleave() {
                    self.inner.swap(value, Ordering::SeqCst)
                } else {
                    self.inner.swap(value, order)
                }
            }

            /// Adds `value`, returning the previous value.
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                if interleave() {
                    self.inner.fetch_add(value, Ordering::SeqCst)
                } else {
                    self.inner.fetch_add(value, order)
                }
            }

            /// Subtracts `value`, returning the previous value.
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                if interleave() {
                    self.inner.fetch_sub(value, Ordering::SeqCst)
                } else {
                    self.inner.fetch_sub(value, order)
                }
            }

            /// Stores the maximum of the current and given value, returning
            /// the previous value.
            pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                if interleave() {
                    self.inner.fetch_max(value, Ordering::SeqCst)
                } else {
                    self.inner.fetch_max(value, order)
                }
            }

            /// Compare-and-exchange; one schedule point covers the whole
            /// read-modify-write (it is a single atomic step).
            pub fn compare_exchange(
                &self,
                cur: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                if interleave() {
                    self.inner
                        .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                } else {
                    self.inner.compare_exchange(cur, new, success, failure)
                }
            }

            /// Weak compare-and-exchange (never fails spuriously here, which
            /// the API permits).
            pub fn compare_exchange_weak(
                &self,
                cur: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(cur, new, success, failure)
            }

            /// Returns a mutable reference to the underlying value.
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic and returns the contained value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl From<$prim> for $name {
            fn from(value: $prim) -> Self {
                Self::new(value)
            }
        }
    };
}

int_atomic!(
    /// `std::sync::atomic::AtomicU64` mirror whose every access is a
    /// schedule point under exploration.
    AtomicU64,
    AtomicU64,
    u64
);
int_atomic!(
    /// `std::sync::atomic::AtomicUsize` mirror whose every access is a
    /// schedule point under exploration.
    AtomicUsize,
    AtomicUsize,
    usize
);
int_atomic!(
    /// `std::sync::atomic::AtomicU32` mirror whose every access is a
    /// schedule point under exploration.
    AtomicU32,
    AtomicU32,
    u32
);

/// `std::sync::atomic::AtomicBool` mirror whose every access is a schedule
/// point under exploration.
#[derive(Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a new atomic holding `value`.
    pub const fn new(value: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Loads the value; a schedule point under exploration.
    pub fn load(&self, order: Ordering) -> bool {
        if interleave() {
            self.inner.load(Ordering::SeqCst)
        } else {
            self.inner.load(order)
        }
    }

    /// Stores `value`; a schedule point under exploration.
    pub fn store(&self, value: bool, order: Ordering) {
        if interleave() {
            self.inner.store(value, Ordering::SeqCst)
        } else {
            self.inner.store(value, order)
        }
    }

    /// Swaps in `value`, returning the previous value.
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        if interleave() {
            self.inner.swap(value, Ordering::SeqCst)
        } else {
            self.inner.swap(value, order)
        }
    }

    /// Compare-and-exchange; one schedule point covers the whole step.
    pub fn compare_exchange(
        &self,
        cur: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        if interleave() {
            self.inner
                .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
        } else {
            self.inner.compare_exchange(cur, new, success, failure)
        }
    }
}

impl fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}
