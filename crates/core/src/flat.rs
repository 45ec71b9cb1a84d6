//! Session handles for *flat* queues — structures whose operations are
//! intrinsically shared (`&self`) and need no per-session randomness.
//!
//! Centralized exact queues like the coarse-locked heap or the skiplist queue
//! synchronise every operation on shared state anyway, so their session
//! handle only needs to carry the per-session statistics. Implementing
//! [`FlatOps`] gives such a queue a ready-made [`PqHandle`] type
//! ([`FlatHandle`]) so it can implement [`SharedPq`](crate::SharedPq) in a few lines:
//!
//! ```
//! use choice_pq::{FlatHandle, FlatOps, Key, PqHandle, SharedPq};
//!
//! struct LockedVec(std::sync::Mutex<Vec<(Key, u32)>>);
//!
//! impl FlatOps<u32> for LockedVec {
//!     fn flat_insert(&self, key: Key, value: u32) {
//!         self.0.lock().unwrap().push((key, value));
//!     }
//!     fn flat_delete_min(&self) -> Option<(Key, u32)> {
//!         let mut v = self.0.lock().unwrap();
//!         let i = v.iter().enumerate().min_by_key(|(_, (k, _))| *k).map(|(i, _)| i)?;
//!         Some(v.swap_remove(i))
//!     }
//! }
//!
//! impl SharedPq<u32> for LockedVec {
//!     type Handle<'q> = FlatHandle<'q, Self, u32>;
//!     fn register(&self) -> Self::Handle<'_> {
//!         FlatHandle::new(self)
//!     }
//!     fn approx_len(&self) -> usize {
//!         self.0.lock().unwrap().len()
//!     }
//!     fn name(&self) -> String {
//!         "locked-vec".into()
//!     }
//! }
//!
//! let q = LockedVec(std::sync::Mutex::new(Vec::new()));
//! let mut h = q.register();
//! h.insert(4, 40);
//! assert_eq!(h.delete_min(), Some((4, 40)));
//! ```

use std::marker::PhantomData;

use crate::traits::{HandleStats, Key, PqHandle};

/// The shared-operation core of a flat (centralized, sessionless) queue.
///
/// Implementations own their synchronisation; key validation is enforced
/// once by [`FlatHandle::insert`], so `flat_insert` may assume the key is
/// legal.
pub trait FlatOps<V>: Send + Sync {
    /// Inserts an entry into the shared structure.
    fn flat_insert(&self, key: Key, value: V);

    /// Removes a smallest entry from the shared structure.
    fn flat_delete_min(&self) -> Option<(Key, V)>;
}

/// A [`PqHandle`] over a [`FlatOps`] queue: forwards operations to the shared
/// structure and keeps per-session statistics.
#[derive(Debug)]
pub struct FlatHandle<'q, Q: ?Sized, V> {
    queue: &'q Q,
    stats: HandleStats,
    _values: PhantomData<fn(V) -> V>,
}

impl<'q, Q: ?Sized, V> FlatHandle<'q, Q, V> {
    /// Opens a session over `queue`.
    pub fn new(queue: &'q Q) -> Self {
        Self {
            queue,
            stats: HandleStats::default(),
            _values: PhantomData,
        }
    }
}

impl<V, Q: FlatOps<V> + ?Sized> PqHandle<V> for FlatHandle<'_, Q, V> {
    fn insert(&mut self, key: Key, value: V) {
        crate::traits::check_key(key);
        self.stats.inserts += 1;
        self.queue.flat_insert(key, value);
    }

    fn delete_min(&mut self) -> Option<(Key, V)> {
        let result = self.queue.flat_delete_min();
        if result.is_some() {
            self.stats.removals += 1;
        } else {
            // Flat structures synchronise every operation, so a `None` is an
            // authoritative emptiness observation, never a lost race.
            self.stats.failed_removals += 1;
            self.stats.empty_polls += 1;
        }
        result
    }

    fn stats(&self) -> HandleStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MinVec(std::sync::Mutex<Vec<(Key, u8)>>);

    impl FlatOps<u8> for MinVec {
        fn flat_insert(&self, key: Key, value: u8) {
            self.0.lock().unwrap().push((key, value));
        }
        fn flat_delete_min(&self) -> Option<(Key, u8)> {
            let mut v = self.0.lock().unwrap();
            let i = v
                .iter()
                .enumerate()
                .min_by_key(|(_, (k, _))| *k)
                .map(|(i, _)| i)?;
            Some(v.swap_remove(i))
        }
    }

    #[test]
    fn forwards_and_counts() {
        let q = MinVec(std::sync::Mutex::new(Vec::new()));
        let mut h = FlatHandle::new(&q);
        h.insert(8, 1);
        h.insert(2, 2);
        assert_eq!(h.delete_min(), Some((2, 2)));
        assert_eq!(h.delete_min(), Some((8, 1)));
        assert_eq!(h.delete_min(), None);
        let stats = h.stats();
        assert_eq!(
            (stats.inserts, stats.removals, stats.failed_removals),
            (2, 2, 1)
        );
    }
}
