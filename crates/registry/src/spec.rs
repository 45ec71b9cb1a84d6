//! Declarative queue construction ([`BackendSpec`]) and per-queue resource
//! budgets ([`QuotaSpec`]).
//!
//! A registry entry is created from a *description*, not a queue value: the
//! backend spec is a small, wire-encodable enum naming one of the backends
//! the paper compares plus its sizing parameters, and the actual structure
//! is built lazily on first use. That keeps `CreateQueue` cheap (thousands
//! of queues can exist with only the hot ones instantiated) and makes the
//! description round-trippable through the service protocol.

use std::sync::Arc;

use choice_obs::ObsHub;
use choice_pq::{DynSharedPq, MultiQueue, MultiQueueConfig, QueueObs};
use pq_baselines::{CoarseHeap, KLsmConfig, KLsmQueue, SkipListQueue};

/// Which backend a named queue runs on, with its sizing parameters.
///
/// Mirrors the bench harness's `QueueSpec` line-up, but sized in absolute
/// lanes/threads (a registry does not know how many workers a tenant will
/// bring) and encodable in three small wire fields: a code byte plus two
/// `u32` parameters (unused parameters are ignored; zero parameters are
/// clamped up to `1`, and lane and thread counts down to
/// [`MAX_SIZE`](Self::MAX_SIZE), so any wire value builds *some* valid
/// queue rather than panicking or exhausting memory deep inside the
/// server).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// The d-choice MultiQueue with a fixed lane count.
    MultiQueue {
        /// Total lane count `n`.
        lanes: u32,
        /// Lanes sampled per `delete_min`.
        d: u32,
    },
    /// The coarse-locked exact binary heap.
    CoarseHeap,
    /// The k-LSM-style deterministic relaxed queue.
    KLsm {
        /// Thread slots the structure is sized for.
        threads: u32,
        /// Relaxation factor k.
        relaxation: u32,
    },
    /// The centralized skiplist queue.
    SkipList,
}

impl BackendSpec {
    /// The largest MultiQueue lane count and k-LSM thread-slot count a spec
    /// builds. Both are allocated up front at construction (a padded lane,
    /// a local buffer), so a larger wire value is clamped down to this one
    /// instead of letting a single `CreateQueue` allocate gigabytes.
    pub const MAX_SIZE: u32 = 4096;

    /// A lane or thread-slot count as built: clamped to `1..=MAX_SIZE`.
    fn size(param: u32) -> usize {
        param.clamp(1, Self::MAX_SIZE) as usize
    }

    /// A sensibly-sized default backend: an 8-lane two-choice MultiQueue.
    pub fn default_multiqueue() -> Self {
        BackendSpec::MultiQueue { lanes: 8, d: 2 }
    }

    /// The wire code byte identifying this backend family. Code `1` named
    /// a backend that no longer exists; it stays unassigned.
    pub fn code(&self) -> u8 {
        match self {
            BackendSpec::MultiQueue { .. } => 0,
            BackendSpec::CoarseHeap => 2,
            BackendSpec::KLsm { .. } => 3,
            BackendSpec::SkipList => 4,
        }
    }

    /// The two positional wire parameters (unused ones are zero).
    pub fn params(&self) -> (u32, u32) {
        match *self {
            BackendSpec::MultiQueue { lanes, d } => (lanes, d),
            BackendSpec::KLsm {
                threads,
                relaxation,
            } => (threads, relaxation),
            BackendSpec::CoarseHeap | BackendSpec::SkipList => (0, 0),
        }
    }

    /// Reassembles a spec from its wire form; `None` for an unknown code.
    pub fn from_wire(code: u8, p1: u32, p2: u32) -> Option<Self> {
        match code {
            0 => Some(BackendSpec::MultiQueue { lanes: p1, d: p2 }),
            2 => Some(BackendSpec::CoarseHeap),
            3 => Some(BackendSpec::KLsm {
                threads: p1,
                relaxation: p2,
            }),
            4 => Some(BackendSpec::SkipList),
            _ => None,
        }
    }

    /// Short human-readable label used in queue listings.
    pub fn label(&self) -> String {
        match *self {
            BackendSpec::MultiQueue { lanes, d } => {
                format!("multiqueue(n={}, d={})", Self::size(lanes), d.max(1))
            }
            BackendSpec::CoarseHeap => "coarse-heap".to_string(),
            BackendSpec::KLsm {
                threads,
                relaxation,
            } => format!("klsm(t={}, k={})", Self::size(threads), relaxation.max(1)),
            BackendSpec::SkipList => "skiplist".to_string(),
        }
    }

    /// Builds the described queue, type-erased. Zero-valued parameters are
    /// clamped up to `1`, and lane and thread counts down to
    /// [`MAX_SIZE`](Self::MAX_SIZE), so every wire-decodable spec
    /// constructs without panicking.
    pub fn build(&self, seed: u64) -> Arc<dyn DynSharedPq<u64>> {
        match *self {
            BackendSpec::MultiQueue { lanes, d } => Arc::new(MultiQueue::<u64>::new(
                MultiQueueConfig::with_queues(Self::size(lanes))
                    .with_d(d.max(1) as usize)
                    .with_seed(seed),
            )),
            BackendSpec::CoarseHeap => Arc::new(CoarseHeap::new()),
            BackendSpec::KLsm {
                threads,
                relaxation,
            } => Arc::new(KLsmQueue::new(
                KLsmConfig::for_threads(Self::size(threads))
                    .with_relaxation(relaxation.max(1) as usize),
            )),
            BackendSpec::SkipList => Arc::new(SkipListQueue::with_seed(seed)),
        }
    }

    /// Like [`build`](Self::build), but attaches a [`QueueObs`] bundle
    /// labelled `queue_name` to backends that support telemetry (the
    /// MultiQueue family) *before* type erasure, so a registry-built queue
    /// reports its counters, latency samples, and live rank-error probe
    /// (`mq_rank_error{queue=...}`) into `hub`. Baseline backends carry no
    /// instrumentation and build exactly as [`build`](Self::build) does.
    pub fn build_observed(
        &self,
        seed: u64,
        hub: &ObsHub,
        queue_name: &str,
    ) -> Arc<dyn DynSharedPq<u64>> {
        match *self {
            BackendSpec::MultiQueue { lanes, d } => {
                let mut q = MultiQueue::<u64>::new(
                    MultiQueueConfig::with_queues(Self::size(lanes))
                        .with_d(d.max(1) as usize)
                        .with_seed(seed),
                );
                q.attach_obs(QueueObs::new(hub, queue_name));
                Arc::new(q)
            }
            BackendSpec::CoarseHeap | BackendSpec::KLsm { .. } | BackendSpec::SkipList => {
                self.build(seed)
            }
        }
    }
}

/// Resource budget of one named queue. `0` means *unlimited* for every
/// field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Maximum elements in flight (inserted, not yet removed) at once.
    /// Inserts beyond this are refused until removals free budget.
    pub max_inflight: u64,
    /// Sustained queue-operation rate (inserts + removals per second)
    /// metered by a token bucket. `0` disables rate metering.
    pub ops_per_sec: u64,
    /// Token-bucket burst capacity. `0` defaults to one second of budget
    /// (`ops_per_sec`).
    pub burst: u64,
}

impl QuotaSpec {
    /// No limits at all (the quota of the backward-compat default queue).
    pub fn unlimited() -> Self {
        Self {
            max_inflight: 0,
            ops_per_sec: 0,
            burst: 0,
        }
    }

    /// Sets the in-flight element ceiling (`0` = unlimited).
    pub fn with_max_inflight(mut self, max_inflight: u64) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets the sustained ops/sec rate and burst (`burst == 0` defaults to
    /// one second of budget).
    pub fn with_rate(mut self, ops_per_sec: u64, burst: u64) -> Self {
        self.ops_per_sec = ops_per_sec;
        self.burst = burst;
        self
    }

    /// The effective burst capacity (the one-second default applied).
    pub fn effective_burst(&self) -> u64 {
        if self.burst == 0 {
            self.ops_per_sec
        } else {
            self.burst
        }
    }
}

impl Default for QuotaSpec {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choice_pq::SharedPq;

    #[test]
    fn every_backend_round_trips_through_the_wire_form() {
        let specs = [
            BackendSpec::MultiQueue { lanes: 8, d: 2 },
            BackendSpec::CoarseHeap,
            BackendSpec::KLsm {
                threads: 4,
                relaxation: 256,
            },
            BackendSpec::SkipList,
        ];
        for spec in specs {
            let (p1, p2) = spec.params();
            assert_eq!(BackendSpec::from_wire(spec.code(), p1, p2), Some(spec));
        }
        assert_eq!(BackendSpec::from_wire(99, 0, 0), None);
        assert_eq!(BackendSpec::from_wire(1, 16, 4), None, "unassigned");
    }

    #[test]
    fn every_backend_builds_a_working_queue() {
        let specs = [
            BackendSpec::MultiQueue { lanes: 4, d: 2 },
            BackendSpec::CoarseHeap,
            BackendSpec::KLsm {
                threads: 2,
                relaxation: 16,
            },
            BackendSpec::SkipList,
        ];
        for spec in specs {
            let q = spec.build(7);
            let mut h = q.register_dyn();
            h.insert(5, 50);
            h.insert(1, 10);
            let (k, _) = h.delete_min().expect("non-empty");
            assert!(k == 1 || k == 5, "{}", spec.label());
            assert_eq!(q.approx_len(), 1, "{}", spec.label());
        }
    }

    #[test]
    fn zero_parameters_are_clamped_not_panics() {
        for code in [0u8, 2, 3, 4] {
            let spec = BackendSpec::from_wire(code, 0, 0).unwrap();
            let q = spec.build(1);
            let mut h = q.register_dyn();
            h.insert(1, 1);
            assert_eq!(h.delete_min(), Some((1, 1)), "code {code}");
        }
    }

    #[test]
    fn oversized_lane_and_thread_counts_are_clamped() {
        let huge = BackendSpec::MultiQueue {
            lanes: u32::MAX,
            d: 2,
        };
        let max = BackendSpec::MAX_SIZE as usize;
        for q in [
            huge.build(1),
            huge.build_observed(1, &ObsHub::new(), "huge"),
        ] {
            assert_eq!(q.topology().lanes, max);
            let mut h = q.register_dyn();
            h.insert(1, 1);
            assert_eq!(h.delete_min(), Some((1, 1)));
        }
        assert_eq!(huge.label(), format!("multiqueue(n={max}, d=2)"));
        // The wire form is untouched: the clamp applies when building.
        assert_eq!(huge.params(), (u32::MAX, 2));

        let huge = BackendSpec::KLsm {
            threads: u32::MAX,
            relaxation: 16,
        };
        let q = huge.build(1);
        assert_eq!(q.name(), "klsm(k=16)");
        let mut h = q.register_dyn();
        h.insert(1, 1);
        assert_eq!(h.delete_min(), Some((1, 1)));
        assert_eq!(huge.label(), format!("klsm(t={max}, k=16)"));
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            BackendSpec::MultiQueue { lanes: 8, d: 2 }.label(),
            "multiqueue(n=8, d=2)"
        );
        assert_eq!(BackendSpec::CoarseHeap.label(), "coarse-heap");
        assert!(BackendSpec::default_multiqueue().label().contains("n=8"));
    }

    #[test]
    fn quota_builders_and_defaults() {
        let q = QuotaSpec::default();
        assert_eq!(q, QuotaSpec::unlimited());
        let q = QuotaSpec::unlimited()
            .with_max_inflight(100)
            .with_rate(500, 0);
        assert_eq!(q.max_inflight, 100);
        assert_eq!(q.effective_burst(), 500, "burst defaults to one second");
        assert_eq!(
            QuotaSpec::unlimited().with_rate(500, 50).effective_burst(),
            50
        );
    }
}
