//! The (1 + β) MultiQueue: a relaxed concurrent priority queue.
//!
//! This crate is the practical contribution of *The Power of Choice in
//! Priority Scheduling* (Alistarh, Kopinsky, Li, Nadiradze; PODC 2017). The
//! structure keeps `n` sequential priority queues, each behind its own lock:
//!
//! * **insert** picks a queue uniformly at random, acquires its lock (retrying
//!   on a fresh random queue if the lock is contended) and pushes;
//! * **deleteMin** samples lanes according to the configured [`ChoiceRule`] —
//!   two uniform lanes for the classic rule, one-or-two for the paper's
//!   (1 + β) rule, or any `d ≥ 1` distinct lanes for the generalised
//!   `d`-choice — peeks at the sampled tops, locks the lane holding the
//!   smallest (highest-priority) key and pops it. If the lock cannot be
//!   acquired the whole operation restarts, exactly as in the MultiQueue of
//!   Rihani, Sanders and Dementiev that the paper builds on. The batched form
//!   ([`MqHandle::delete_min_batch`]) drains up to `n` elements under that
//!   single lane lock.
//!
//! The queue is *relaxed*: `delete_min` may return an element that is not the
//! global minimum. The paper proves that in the sequential model the expected
//! rank of the returned element is `O(n/β²)` and the expected maximum rank is
//! `O((n/β)(log n + log 1/β))`, independent of the execution length; the
//! companion `choice-process` crate reproduces those bounds — driven by the
//! *same* [`ChoiceRule`] value this crate executes — and the `choice-bench`
//! crate measures the concurrent structure directly.
//!
//! # The session API
//!
//! Access is organised the way the paper's model is: per *thread*. A queue is
//! a [`SharedPq`]; operating on it requires registering a session, which
//! returns an owned [`PqHandle`] carrying the session-local state (private
//! RNG stream, insert shard, and the instrumentation log a
//! [`HandlePolicy`] turns on). There is no hidden `thread_local!` state.
//!
//! # Example
//!
//! ```
//! use choice_pq::{MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
//!
//! let queue = MultiQueue::<u64>::new(MultiQueueConfig::for_threads(4).with_beta(0.75));
//! let mut handle = queue.register();
//! handle.insert(10, 100);
//! handle.insert(5, 50);
//! let (key, _value) = handle.delete_min().unwrap();
//! // With only two elements and fresh lanes the smaller key comes back.
//! assert!(key == 5 || key == 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod flat;
pub mod handle;
pub(crate) mod lane;
pub mod obs;
pub mod queue;
pub(crate) mod sync;
pub mod traits;

pub use config::{ChoiceRule, MultiQueueConfig};
pub use flat::{FlatHandle, FlatOps};
pub use handle::{HandlePolicy, MqHandle};
pub use obs::QueueObs;
pub use queue::MultiQueue;
pub use traits::{
    check_key, DynSharedPq, HandleStats, Key, PqHandle, QueueTopology, SharedPq, RESERVED_KEY,
};
