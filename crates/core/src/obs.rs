//! Queue-level telemetry: the [`QueueObs`] bundle a [`MultiQueue`] writes
//! its metrics and flight-recorder events through.
//!
//! The bundle is attached *before* the queue is shared
//! ([`MultiQueue::attach_obs`]) so the hot path pays exactly one branch when
//! telemetry is disabled and one sampler tick per operation when enabled.
//! Every 1-in-N operation (see [`LatencySampler`]) records its latency, and
//! the handle folds the operation and retry counts its
//! [`HandleStats`](crate::HandleStats) gathered since its previous fold into
//! the queue's counters; a dropped handle folds the rest. Contended
//! publishes are rare by construction and go to the flight recorder as
//! `LaneContention` events.
//!
//! [`MultiQueue`]: crate::MultiQueue
//! [`MultiQueue::attach_obs`]: crate::MultiQueue::attach_obs
//! [`LatencySampler`]: choice_obs::LatencySampler

use std::sync::Arc;

use choice_obs::{Counter, EventKind, FlightRecorder, Histogram, ObsHub};

/// Default 1-in-N stride for handle-level latency sampling: two clock reads
/// every 64 operations keeps the profiling cost far below the ~3% telemetry
/// budget while the log-bucketed histograms only need order-of-magnitude
/// resolution anyway.
pub const DEFAULT_SAMPLE_EVERY: u32 = 64;

/// The per-queue telemetry bundle: counters, latency histograms and the
/// flight recorder, pre-resolved from an [`ObsHub`] at attach time so the
/// hot path never touches the registry's name map.
#[derive(Debug)]
pub struct QueueObs {
    recorder: Arc<FlightRecorder>,
    label: String,
    /// Operations the queue's handles counted (inserts, removed elements,
    /// failed removals: [`HandleStats::operations`](crate::HandleStats::operations)).
    pub(crate) ops_total: Arc<Counter>,
    /// Retry-loop iterations lost to lock contention.
    pub(crate) lock_retries_total: Arc<Counter>,
    /// Retry-loop iterations where every sampled top looked empty.
    pub(crate) sparse_retries_total: Arc<Counter>,
    /// Sampled `insert` latency (ns).
    pub(crate) insert_ns: Arc<Histogram>,
    /// Sampled `delete_min` latency (ns).
    pub(crate) delete_min_ns: Arc<Histogram>,
    /// Sampled `delete_min_batch` latency (ns).
    pub(crate) delete_min_batch_ns: Arc<Histogram>,
    /// Live rank-error bound from the sampled lane-top shadow probe (see
    /// [`MultiQueue::lane_rank_bound`](crate::MultiQueue::lane_rank_bound)).
    pub(crate) rank_error: Arc<Histogram>,
    sample_every: u32,
}

impl QueueObs {
    /// Builds the bundle for queue `queue` against `hub`, with the
    /// [default sampling stride](DEFAULT_SAMPLE_EVERY).
    pub fn new(hub: &ObsHub, queue: &str) -> Arc<Self> {
        Self::with_sample_every(hub, queue, DEFAULT_SAMPLE_EVERY)
    }

    /// Builds the bundle with an explicit latency-sampling stride (1 times
    /// every operation).
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn with_sample_every(hub: &ObsHub, queue: &str, sample_every: u32) -> Arc<Self> {
        assert!(sample_every > 0, "sampling stride must be positive");
        let m = hub.metrics();
        let labels: &[(&str, &str)] = &[("queue", queue)];
        Arc::new(Self {
            recorder: Arc::clone(hub.recorder()),
            label: queue.to_string(),
            ops_total: m.counter("mq_ops_total", labels),
            lock_retries_total: m.counter("mq_lock_retries_total", labels),
            sparse_retries_total: m.counter("mq_sparse_retries_total", labels),
            insert_ns: m.histogram("mq_op_ns", &[("queue", queue), ("op", "insert")]),
            delete_min_ns: m.histogram("mq_op_ns", &[("queue", queue), ("op", "delete_min")]),
            delete_min_batch_ns: m
                .histogram("mq_op_ns", &[("queue", queue), ("op", "delete_min_batch")]),
            rank_error: m.histogram("mq_rank_error", labels),
            sample_every,
        })
    }

    /// The queue label stamped on events and metric rows.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The handle-level latency sampling stride.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// The live rank-error histogram (`mq_rank_error{queue=...}`).
    pub fn rank_error(&self) -> &Arc<Histogram> {
        &self.rank_error
    }

    /// An insert's publish was contended: it either fell through to the
    /// blocking arm (always recorded, whatever the retry count), or
    /// published on a later draw after accumulating at least
    /// `MultiQueue::CONTENTION_EVENT_THRESHOLD` (4) contended retries.
    /// `lane` is the lane that finally took the elements, `retries` the
    /// full count — so contention that fresh draws absorbed reaches the
    /// flight recorder too.
    pub(crate) fn on_lane_contention(&self, lane: usize, retries: u64) {
        self.recorder.record(
            EventKind::LaneContention,
            &self.label,
            [lane as u64, retries, 0],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiQueueConfig;
    use crate::traits::{PqHandle, SharedPq};
    use crate::MultiQueue;

    fn observed_queue(hub: &Arc<ObsHub>) -> MultiQueue<u64> {
        let mut q = MultiQueue::new(MultiQueueConfig::with_queues(8).with_seed(42));
        q.attach_obs(QueueObs::with_sample_every(hub, "q0", 1));
        q
    }

    #[test]
    fn ops_and_latency_flow_into_the_hub() {
        let hub = ObsHub::new();
        let q = observed_queue(&hub);
        let mut h = q.register();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        while h.delete_min().is_some() {}
        drop(h);
        let snap = hub.metrics().snapshot();
        let ops = snap
            .counter("mq_ops_total", &[("queue", "q0")])
            .expect("ops counter registered");
        assert!(ops >= 200, "100 inserts + 100 removals: {ops}");
        let insert_ns = snap
            .histogram("mq_op_ns", &[("op", "insert"), ("queue", "q0")])
            .expect("insert histogram registered");
        assert_eq!(insert_ns.count(), 100, "stride 1 samples every insert");
        let del_ns = snap
            .histogram("mq_op_ns", &[("op", "delete_min"), ("queue", "q0")])
            .expect("delete histogram registered");
        assert!(del_ns.count() >= 100, "failed removals are timed too");
    }

    #[test]
    fn a_dyn_handle_forwards_insert_all_and_samples_it_once() {
        use crate::traits::DynSharedPq;
        let hub = ObsHub::new();
        let q = observed_queue(&hub);
        let mut h = q.register_dyn();
        let mut entries: Vec<(u64, u64)> = (0..5u64).map(|k| (k, k)).collect();
        h.insert_all(&mut entries);
        assert!(entries.is_empty());
        assert_eq!(h.stats().inserts, 5);
        let snap = hub.metrics().snapshot();
        assert_eq!(snap.counter("mq_ops_total", &[("queue", "q0")]), Some(5));
        // Stride 1 samples every call: the forwarded override is one call,
        // where the trait's per-entry default would have been five.
        let insert_ns = snap
            .histogram("mq_op_ns", &[("op", "insert"), ("queue", "q0")])
            .expect("insert histogram registered");
        assert_eq!(insert_ns.count(), 1);
    }

    #[test]
    fn unobserved_queues_are_untouched() {
        let q = MultiQueue::<u64>::new(MultiQueueConfig::with_queues(4).with_seed(1));
        assert!(q.obs().is_none());
        let mut h = q.register();
        h.insert(1, 1);
        assert_eq!(h.delete_min(), Some((1, 1)));
    }
}
