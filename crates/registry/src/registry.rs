//! The queue registry: named queues, lazy instantiation, session bindings,
//! quota enforcement and per-queue statistics.
//!
//! # Lifecycle
//!
//! A queue is **created** from a [`BackendSpec`] + [`QuotaSpec`] description
//! (or **installed** pre-built, the backward-compat path for single-queue
//! servers). Creation does not build the structure: the first
//! [`QueueBinding`] that actually operates on it does, seeded
//! deterministically from the registry seed and the queue name. A queue is
//! **dropped** by name; the entry leaves the namespace immediately (the name
//! can be recreated) and every live binding observes the tombstone on its
//! next admitted operation, getting a typed refusal — never a panic, and
//! never a dangling session. A registry holds at most [`MAX_QUEUES`]
//! queues, the row count the wire's list and stats frames are sized for.
//!
//! # Statistics
//!
//! Each entry keeps one slot per *live* binding plus a single rolled-up
//! accumulator for every binding that has closed — connection churn costs
//! O(1) retained memory per queue, not O(sessions ever). A closing binding
//! merges its final counters into the roll-up and removes its slot under
//! one lock, so aggregates taken concurrently never double-count and never
//! go backwards. Refusals are counted on the entry (they have no session
//! stats slot of their own) and folded into the aggregate's
//! `HandleStats::refusals`.
//!
//! A dropped queue's counters move to the registry's retired total, which
//! stays complete and monotonic: an operation admitted just before the drop
//! may publish its counters after it, so the dropped entry is read live
//! until its last binding closes, and only then folds into the retired
//! roll-up.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use choice_obs::{
    refusal_category, refusal_category_name, Counter, EventKind, FlightRecorder, Gauge, ObsHub,
};
use choice_pq::{DynSharedPq, HandleStats, Key, PqHandle, QueueTopology};
use parking_lot::Mutex;
use rank_stats::tokens::TokenBucket;

use crate::spec::{BackendSpec, QuotaSpec};

/// The number of queues a registry may hold (the wire protocol sizes its
/// list/stats frames against this).
pub const MAX_QUEUES: usize = 1024;

/// Base RNG seed ("nest"); each queue derives its own seed from this and its
/// name, so a registry full of queues stays deterministic per name.
const SEED: u64 = 0x5EED_4E57;

/// The queue every service connection starts bound to (when it exists).
pub const DEFAULT_QUEUE: &str = "default";

/// Maximum queue-name length in bytes (names ride in one-byte-length wire
/// fields with room to spare).
pub const MAX_NAME_LEN: usize = 64;

/// Whether `name` is a legal queue name: 1..=[`MAX_NAME_LEN`] bytes of
/// ASCII alphanumerics plus `- _ . /`.
pub fn valid_name(name: &str) -> bool {
    (1..=MAX_NAME_LEN).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'/'))
}

/// Everything a registry lifecycle or bind call can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is empty, too long, or holds characters outside the allowed
    /// set.
    BadName(String),
    /// `create`/`install` target already exists.
    Exists(String),
    /// The named queue does not exist (never created, or dropped).
    NotFound(String),
    /// The registry is at its queue-count ceiling.
    Full {
        /// The ceiling that was hit ([`MAX_QUEUES`]).
        limit: usize,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::BadName(name) => write!(
                f,
                "invalid queue name {name:?} (1..={MAX_NAME_LEN} bytes of [A-Za-z0-9._/-])"
            ),
            RegistryError::Exists(name) => write!(f, "queue {name:?} already exists"),
            RegistryError::NotFound(name) => write!(f, "no queue named {name:?}"),
            RegistryError::Full { limit } => {
                write!(f, "registry is full ({limit} queues)")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Why an admitted-path operation was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The queue's token bucket could not cover the operation.
    Rate,
    /// The in-flight element quota is exhausted.
    InFlight,
    /// The queue was dropped while this binding was live.
    Dropped,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Rate => write!(f, "rate quota exhausted"),
            Refusal::InFlight => write!(f, "in-flight element quota exhausted"),
            Refusal::Dropped => write!(f, "queue was dropped"),
        }
    }
}

/// A point-in-time view of one registry entry, used by queue listings and
/// the per-queue Stats breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueSnapshot {
    /// The queue's registry name.
    pub name: String,
    /// Backend label (see [`BackendSpec::label`]; installed queues report
    /// the queue's own name string).
    pub backend: String,
    /// Whether the backing structure has been built yet.
    pub instantiated: bool,
    /// Sessions ever bound to this queue.
    pub sessions_total: u64,
    /// Sessions currently bound.
    pub sessions_live: u64,
    /// Aggregated per-session counters (live slots + closed roll-up), with
    /// the entry's refusal count folded into `totals.refusals`.
    pub totals: HandleStats,
    /// Approximate element count (`0` while uninstantiated).
    pub approx_len: u64,
    /// Lane topology (`None` while uninstantiated).
    pub topology: Option<QueueTopology>,
}

/// Live + closed session counters of one entry, moved under a single lock
/// so a closing binding's "merge into roll-up, remove slot" is atomic with
/// respect to aggregation (totals can never double-count or go backwards).
struct StatsInner {
    live: Vec<Arc<Mutex<HandleStats>>>,
    closed: HandleStats,
}

/// One named queue: description, lazily-built structure, quota state.
struct QueueEntry {
    name: String,
    backend_label: String,
    spec: Option<BackendSpec>,
    quota: QuotaSpec,
    seed: u64,
    queue: OnceLock<Arc<dyn DynSharedPq<u64>>>,
    dropped: AtomicBool,
    /// Admitted-but-not-yet-removed element estimate (saturating).
    inflight: AtomicU64,
    sessions_live: AtomicU64,
    sessions_total: AtomicU64,
    /// Refusals of every category, including those decided outside the
    /// quota machinery (e.g. the service layer's reserved-key check), so
    /// per-queue totals stay complete. The per-category split lives in
    /// `registry_refusals_total{category}`.
    refusals: AtomicU64,
    bucket: Option<Mutex<TokenBucket>>,
    stats: Mutex<StatsInner>,
}

impl QueueEntry {
    fn new(name: &str, spec: Option<BackendSpec>, quota: QuotaSpec, seed: u64) -> Self {
        let bucket = if quota.ops_per_sec > 0 {
            Some(Mutex::new(TokenBucket::new(
                quota.ops_per_sec as f64,
                quota.effective_burst().max(1) as f64,
            )))
        } else {
            None
        };
        Self {
            name: name.to_string(),
            backend_label: spec
                .as_ref()
                .map(|s| s.label())
                .unwrap_or_else(|| "installed".to_string()),
            spec,
            quota,
            seed,
            queue: OnceLock::new(),
            dropped: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            sessions_live: AtomicU64::new(0),
            sessions_total: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            bucket,
            stats: Mutex::new(StatsInner {
                live: Vec::new(),
                closed: HandleStats::default(),
            }),
        }
    }

    /// The backing queue, built on first use. When the registry carries a
    /// telemetry hub the lazy build attaches a per-queue
    /// [`QueueObs`](choice_pq::QueueObs) bundle (see
    /// [`BackendSpec::build_observed`]); pre-installed queues
    /// are returned as-is (their owner decides their instrumentation).
    fn queue(&self, hub: Option<&Arc<ObsHub>>) -> &Arc<dyn DynSharedPq<u64>> {
        self.queue.get_or_init(|| {
            let spec = self
                .spec
                .as_ref()
                .expect("entry without a spec must be pre-installed");
            match hub {
                Some(hub) => spec.build_observed(self.seed, hub, &self.name),
                None => spec.build(self.seed),
            }
        })
    }

    /// Aggregated counters: closed roll-up + every live slot + refusals.
    fn aggregate(&self) -> HandleStats {
        let inner = self.stats.lock();
        let mut totals = inner.closed;
        for slot in &inner.live {
            totals.merge(&slot.lock());
        }
        drop(inner);
        totals.refusals = totals
            .refusals
            .saturating_add(self.refusals.load(Ordering::Relaxed));
        totals
    }

    fn snapshot(&self) -> QueueSnapshot {
        let instantiated = self.queue.get().is_some();
        let (approx_len, topology) = match self.queue.get() {
            Some(q) => (q.approx_len_dyn() as u64, Some(q.topology_dyn())),
            None => (0, None),
        };
        QueueSnapshot {
            name: self.name.clone(),
            backend: self.backend_label.clone(),
            instantiated,
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            sessions_live: self.sessions_live.load(Ordering::Relaxed),
            totals: self.aggregate(),
            approx_len,
            topology,
        }
    }
}

/// FNV-1a over the queue name: mixed into the registry seed so each queue's
/// RNG stream is deterministic per (registry seed, name).
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A registry of named queues with per-queue quotas.
///
/// Thread-safe: lifecycle calls, binds and snapshots may race freely. The
/// namespace lock is held only for map operations — never while building a
/// queue or taking stats locks.
pub struct QueueRegistry {
    queues: Mutex<BTreeMap<String, Arc<QueueEntry>>>,
    /// Monotonic origin for token-bucket timestamps.
    epoch: Instant,
    /// Refusals answered without any queue bound (e.g. session ops from a
    /// connection whose queue vanished) — kept out of per-queue rows but
    /// folded into service-level totals.
    unbound_refusals: AtomicU64,
    /// Dropped queues' counters, so service-level totals stay monotonic
    /// across `drop_queue` (per-queue rows for dropped queues disappear;
    /// their history does not). Shared with every binding, whose close may
    /// be the one that folds its dropped queue in.
    retired: Arc<Mutex<Retired>>,
    /// Telemetry hub, attached once via [`set_obs`](Self::set_obs). A
    /// `OnceLock` because the registry `Arc` is typically created before
    /// the server that owns the hub.
    obs: OnceLock<Arc<ObsHub>>,
}

/// The retired roll-up: final aggregates of dropped queues whose bindings
/// have all closed, plus the dropped queues that still have a live binding
/// (read live, since those bindings may still publish counters).
#[derive(Default)]
struct Retired {
    folded: HandleStats,
    draining: Vec<Arc<QueueEntry>>,
}

impl QueueRegistry {
    /// Attaches a telemetry hub: every binding opened afterwards counts its
    /// refusals into `registry_refusals_total{queue=,category=}`, mirrors
    /// the in-flight quota into the `registry_inflight{queue=}` gauge, and
    /// records an epoch-stamped [`EventKind::QuotaRefusal`] flight-recorder
    /// event per refusal. The first hub wins; later calls are no-ops
    /// (bindings hold per-queue cells resolved from the hub at bind time,
    /// so swapping hubs mid-flight would split the counters).
    pub fn set_obs(&self, hub: Arc<ObsHub>) {
        let _ = self.obs.set(hub);
    }

    /// The attached telemetry hub, if any.
    pub fn obs(&self) -> Option<&Arc<ObsHub>> {
        self.obs.get()
    }

    /// Number of queues currently registered.
    pub fn len(&self) -> usize {
        self.queues.lock().len()
    }

    /// Whether the registry holds no queues.
    pub fn is_empty(&self) -> bool {
        self.queues.lock().is_empty()
    }

    /// Whether a queue named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.queues.lock().contains_key(name)
    }

    /// Registers a new queue described by `backend` + `quota`. The backing
    /// structure is built lazily on first use.
    pub fn create(
        &self,
        name: &str,
        backend: BackendSpec,
        quota: QuotaSpec,
    ) -> Result<(), RegistryError> {
        self.insert_entry(name, Some(backend), None, quota)
    }

    /// Registers a pre-built queue under `name` (the compat path: a server
    /// given one queue installs it as [`DEFAULT_QUEUE`]).
    pub fn install(
        &self,
        name: &str,
        queue: Arc<dyn DynSharedPq<u64>>,
        quota: QuotaSpec,
    ) -> Result<(), RegistryError> {
        self.insert_entry(name, None, Some(queue), quota)
    }

    fn insert_entry(
        &self,
        name: &str,
        spec: Option<BackendSpec>,
        prebuilt: Option<Arc<dyn DynSharedPq<u64>>>,
        quota: QuotaSpec,
    ) -> Result<(), RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        let seed = SEED ^ name_hash(name);
        let entry = Arc::new(QueueEntry::new(name, spec, quota, seed));
        if let Some(queue) = prebuilt {
            let _ = entry.queue.set(queue);
        }
        let mut map = self.queues.lock();
        if map.contains_key(name) {
            return Err(RegistryError::Exists(name.to_string()));
        }
        if map.len() >= MAX_QUEUES {
            return Err(RegistryError::Full { limit: MAX_QUEUES });
        }
        map.insert(name.to_string(), entry);
        Ok(())
    }

    /// Drops the named queue: the name leaves the namespace immediately and
    /// live bindings observe a [`Refusal::Dropped`] tombstone on their next
    /// admitted operation. The queue's counters move into the retired total
    /// so service-level totals stay monotonic; per-queue rows for it
    /// disappear. With no binding left the final aggregate folds in now;
    /// otherwise the entry is read live until its last binding closes,
    /// which folds it in.
    pub fn drop_queue(&self, name: &str) -> Result<(), RegistryError> {
        let entry = self
            .queues
            .lock()
            .remove(name)
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))?;
        entry.dropped.store(true, Ordering::SeqCst);
        // Sessions are claimed under the namespace lock, so none can be
        // added now. A binding whose close this load does not see sees
        // `dropped` and folds the entry itself (see `QueueBinding::drop`).
        let mut retired = self.retired.lock();
        if entry.sessions_live.load(Ordering::SeqCst) == 0 {
            retired.folded.merge(&entry.aggregate());
        } else {
            retired.draining.push(entry);
        }
        Ok(())
    }

    /// Opens a session binding on the named queue (counted as live until
    /// the binding drops).
    pub fn bind(&self, name: &str) -> Result<QueueBinding, RegistryError> {
        // The session is claimed under the namespace lock, so `drop_queue`
        // never sees a dropped entry gain a binding.
        let entry = {
            let map = self.queues.lock();
            let entry = map
                .get(name)
                .ok_or_else(|| RegistryError::NotFound(name.to_string()))?;
            entry.sessions_live.fetch_add(1, Ordering::SeqCst);
            Arc::clone(entry)
        };
        entry.sessions_total.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Mutex::new(HandleStats::default()));
        entry.stats.lock().live.push(Arc::clone(&slot));
        Ok(QueueBinding {
            obs: self.obs.get().map(|hub| BindingObs::new(hub, name)),
            hub: self.obs.get().cloned(),
            entry,
            slot,
            epoch: self.epoch,
            retired: Arc::clone(&self.retired),
        })
    }

    /// Snapshots every queue, sorted by name.
    pub fn stats(&self) -> Vec<QueueSnapshot> {
        let entries: Vec<Arc<QueueEntry>> = self.queues.lock().values().cloned().collect();
        entries.iter().map(|e| e.snapshot()).collect()
    }

    /// The retired total: the counters of every dropped queue, including
    /// what its still-open bindings have published since the drop.
    pub fn retired_totals(&self) -> HandleStats {
        let retired = self.retired.lock();
        let mut totals = retired.folded;
        for entry in &retired.draining {
            totals.merge(&entry.aggregate());
        }
        totals
    }

    /// Counts one refusal that no queue can be charged for.
    pub fn note_unbound_refusal(&self) {
        self.unbound_refusals.fetch_add(1, Ordering::Relaxed);
        if let Some(hub) = self.obs.get() {
            hub.metrics()
                .counter("registry_unbound_refusals_total", &[])
                .inc();
        }
    }

    /// Refusals answered without a bound queue.
    pub fn unbound_refusals(&self) -> u64 {
        self.unbound_refusals.load(Ordering::Relaxed)
    }
}

impl Default for QueueRegistry {
    /// An empty registry.
    fn default() -> Self {
        Self {
            queues: Mutex::new(BTreeMap::new()),
            epoch: Instant::now(),
            unbound_refusals: AtomicU64::new(0),
            retired: Arc::default(),
            obs: OnceLock::new(),
        }
    }
}

impl fmt::Debug for QueueRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueRegistry")
            .field("queues", &self.len())
            .finish()
    }
}

/// Obs cells one binding touches, resolved once at bind time so the
/// admission path never takes the metrics-registry lock: refusal counters
/// indexed by [`refusal_category`] code, the queue's in-flight gauge, and
/// the flight recorder for per-refusal events.
struct BindingObs {
    recorder: Arc<FlightRecorder>,
    refusals: [Arc<Counter>; 4],
    inflight: Arc<Gauge>,
}

impl BindingObs {
    fn new(hub: &ObsHub, queue: &str) -> Self {
        let refusals = [
            refusal_category::DROPPED,
            refusal_category::INFLIGHT,
            refusal_category::RATE,
            refusal_category::EXTERNAL,
        ]
        .map(|code| {
            hub.metrics().counter(
                "registry_refusals_total",
                &[("queue", queue), ("category", refusal_category_name(code))],
            )
        });
        Self {
            recorder: Arc::clone(hub.recorder()),
            refusals,
            inflight: hub
                .metrics()
                .gauge("registry_inflight", &[("queue", queue)]),
        }
    }
}

/// One session's claim on a named queue: the admission gate every service
/// operation passes through, plus this session's stats slot. Dropping the
/// binding ends the session and rolls its final counters into the queue's
/// closed accumulator.
pub struct QueueBinding {
    entry: Arc<QueueEntry>,
    slot: Arc<Mutex<HandleStats>>,
    epoch: Instant,
    obs: Option<BindingObs>,
    /// The registry's telemetry hub at bind time, handed to the entry's
    /// lazy queue build so registry-built backends come up instrumented.
    hub: Option<Arc<ObsHub>>,
    /// The registry's retired roll-up, which the last binding of a dropped
    /// queue folds the queue into.
    retired: Arc<Mutex<Retired>>,
}

impl QueueBinding {
    /// The bound queue's name.
    pub fn name(&self) -> &str {
        &self.entry.name
    }

    /// The bound queue's quota record.
    pub fn quota(&self) -> &QuotaSpec {
        &self.entry.quota
    }

    /// Whether the queue was dropped out from under this binding.
    pub fn is_dropped(&self) -> bool {
        self.entry.dropped.load(Ordering::SeqCst)
    }

    /// The backing queue (built on first call).
    pub fn queue(&self) -> &Arc<dyn DynSharedPq<u64>> {
        self.entry.queue(self.hub.as_ref())
    }

    /// Opens a session handle on the backing queue (the handle borrows this
    /// binding, exactly as in-process handles borrow their queue).
    pub fn register(&self) -> Box<dyn PqHandle<u64> + '_> {
        self.entry.queue(self.hub.as_ref()).register_dyn()
    }

    /// Admission check for an insert of `key`. Charges the in-flight quota
    /// and one rate token; `key` only labels a refusal's flight-recorder
    /// event.
    pub fn admit_insert(&self, key: Key) -> Result<(), Refusal> {
        self.admit(true, key)
    }

    /// Admission check for a removal-side operation (delete-min, batch).
    /// Charges one rate token; the in-flight quota is not consulted
    /// (removals free it).
    pub fn admit_removal(&self) -> Result<(), Refusal> {
        self.admit(false, 0)
    }

    fn admit(&self, is_insert: bool, key: Key) -> Result<(), Refusal> {
        if self.entry.dropped.load(Ordering::SeqCst) {
            self.obs_refusal(refusal_category::DROPPED, key);
            return Err(Refusal::Dropped);
        }
        let mut inflight_claimed = false;
        if is_insert {
            let max = self.entry.quota.max_inflight;
            if max > 0 {
                let claimed =
                    self.entry
                        .inflight
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                            (v < max).then_some(v + 1)
                        });
                if claimed.is_err() {
                    self.obs_refusal(refusal_category::INFLIGHT, key);
                    return Err(Refusal::InFlight);
                }
            } else {
                self.entry.inflight.fetch_add(1, Ordering::Relaxed);
            }
            inflight_claimed = true;
        }
        if let Some(bucket) = &self.entry.bucket {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            if !bucket.lock().try_take(now_ns, 1.0) {
                if inflight_claimed {
                    // Give the optimistic in-flight claim back.
                    let _ =
                        self.entry
                            .inflight
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                                Some(v.saturating_sub(1))
                            });
                }
                self.obs_refusal(refusal_category::RATE, key);
                return Err(Refusal::Rate);
            }
        }
        if is_insert {
            if let Some(obs) = &self.obs {
                obs.inflight.inc();
            }
        }
        Ok(())
    }

    /// Counts one refusal on the entry and mirrors it into the obs hub:
    /// per-category counter plus a flight-recorder
    /// [`EventKind::QuotaRefusal`] event labelled with the queue name,
    /// carrying `[category, key, inflight-at-refusal]`.
    fn obs_refusal(&self, category: u64, key: Key) {
        self.entry.refusals.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.refusals[category as usize].inc();
            obs.recorder.record(
                EventKind::QuotaRefusal,
                &self.entry.name,
                [category, key, self.entry.inflight.load(Ordering::Relaxed)],
            );
        }
    }

    /// Credits `n` successful removals back to the in-flight quota.
    pub fn note_removed(&self, n: u64) {
        if n > 0 {
            let prev = self
                .entry
                .inflight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    Some(v.saturating_sub(n))
                })
                .unwrap_or(0);
            if let Some(obs) = &self.obs {
                // Mirror the credit that actually landed (the atomic
                // saturates at zero) so the gauge never goes negative.
                obs.inflight.add(-(prev.min(n) as i64));
            }
        }
    }

    /// Counts one refusal decided outside the quota machinery (e.g. a
    /// reserved-key refusal at the service layer) against this queue.
    pub fn note_external_refusal(&self) {
        self.obs_refusal(refusal_category::EXTERNAL, 0);
    }

    /// Publishes this session's current handle counters to its stats slot
    /// (the aggregate reads them from there).
    pub fn publish_stats(&self, stats: HandleStats) {
        *self.slot.lock() = stats;
    }

    /// This binding's queue snapshot (for tests and diagnostics).
    pub fn snapshot(&self) -> QueueSnapshot {
        self.entry.snapshot()
    }
}

impl fmt::Debug for QueueBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueBinding")
            .field("queue", &self.entry.name)
            .field("dropped", &self.is_dropped())
            .finish()
    }
}

impl Drop for QueueBinding {
    fn drop(&mut self) {
        // Merge-and-remove under one lock so concurrent aggregation sees
        // either (live slot) or (roll-up including it), never both/neither.
        let finals = *self.slot.lock();
        let mut inner = self.entry.stats.lock();
        inner.closed.merge(&finals);
        inner.live.retain(|s| !Arc::ptr_eq(s, &self.slot));
        drop(inner);
        // The last binding of a dropped queue folds it into the retired
        // roll-up (unless `drop_queue`, reading no binding, already did).
        if self.entry.sessions_live.fetch_sub(1, Ordering::SeqCst) == 1
            && self.entry.dropped.load(Ordering::SeqCst)
        {
            let mut retired = self.retired.lock();
            let draining = &mut retired.draining;
            if let Some(i) = draining.iter().position(|e| Arc::ptr_eq(e, &self.entry)) {
                draining.swap_remove(i);
                retired.folded.merge(&self.entry.aggregate());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mq() -> BackendSpec {
        BackendSpec::MultiQueue { lanes: 4, d: 2 }
    }

    #[test]
    fn create_bind_operate_drop_lifecycle() {
        let reg = QueueRegistry::default();
        reg.create("tenant/a", mq(), QuotaSpec::unlimited())
            .unwrap();
        assert!(reg.contains("tenant/a"));
        assert_eq!(reg.len(), 1);
        // Creation is lazy: nothing instantiated yet.
        assert!(!reg.stats()[0].instantiated);

        let binding = reg.bind("tenant/a").unwrap();
        let mut session = binding.register();
        binding.admit_insert(5).unwrap();
        session.insert(5, 50);
        binding.admit_removal().unwrap();
        assert_eq!(session.delete_min(), Some((5, 50)));
        binding.note_removed(1);
        binding.publish_stats(session.stats());
        drop(session);
        drop(binding);

        let snap = &reg.stats()[0];
        assert!(snap.instantiated);
        assert_eq!(snap.totals.inserts, 1);
        assert_eq!(snap.totals.removals, 1);
        assert_eq!(snap.sessions_total, 1);
        assert_eq!(snap.sessions_live, 0);

        reg.drop_queue("tenant/a").unwrap();
        assert!(!reg.contains("tenant/a"));
        assert_eq!(
            reg.drop_queue("tenant/a"),
            Err(RegistryError::NotFound("tenant/a".to_string()))
        );
        // History survives in the retired roll-up.
        assert_eq!(reg.retired_totals().inserts, 1);
        // The name is immediately reusable.
        reg.create("tenant/a", mq(), QuotaSpec::unlimited())
            .unwrap();
    }

    #[test]
    fn lazy_instantiation_is_deterministic_per_name() {
        let removal_order = || {
            let reg = QueueRegistry::default();
            reg.create("q", mq(), QuotaSpec::unlimited()).unwrap();
            let b = reg.bind("q").unwrap();
            let mut s = b.register();
            for k in 0..64u64 {
                s.insert(k * 37 % 64, k);
            }
            std::iter::from_fn(|| s.delete_min()).collect::<Vec<_>>()
        };
        assert_eq!(removal_order(), removal_order());
    }

    #[test]
    fn namespace_errors_are_typed() {
        let reg = QueueRegistry::default();
        assert!(matches!(
            reg.create("", mq(), QuotaSpec::unlimited()),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(
            reg.create("no spaces", mq(), QuotaSpec::unlimited()),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(
            reg.create(&"x".repeat(MAX_NAME_LEN + 1), mq(), QuotaSpec::unlimited()),
            Err(RegistryError::BadName(_))
        ));
        reg.create("a", mq(), QuotaSpec::unlimited()).unwrap();
        assert_eq!(
            reg.create("a", mq(), QuotaSpec::unlimited()),
            Err(RegistryError::Exists("a".to_string()))
        );
        for i in 1..MAX_QUEUES {
            reg.create(&format!("q{i}"), mq(), QuotaSpec::unlimited())
                .unwrap();
        }
        assert_eq!(
            reg.create("c", mq(), QuotaSpec::unlimited()),
            Err(RegistryError::Full { limit: MAX_QUEUES })
        );
        assert!(matches!(
            reg.bind("missing"),
            Err(RegistryError::NotFound(_))
        ));
    }

    #[test]
    fn inflight_quota_refuses_then_recovers_on_removal() {
        let reg = QueueRegistry::default();
        reg.create("q", mq(), QuotaSpec::unlimited().with_max_inflight(2))
            .unwrap();
        let b = reg.bind("q").unwrap();
        b.admit_insert(1).unwrap();
        b.admit_insert(2).unwrap();
        assert_eq!(b.admit_insert(3), Err(Refusal::InFlight));
        // Removals do not consult the in-flight quota...
        b.admit_removal().unwrap();
        // ...and crediting one removal frees one insert.
        b.note_removed(1);
        b.admit_insert(3).unwrap();
        assert_eq!(b.snapshot().totals.refusals, 1);
    }

    #[test]
    fn rate_refusal_returns_the_inflight_claim() {
        let reg = QueueRegistry::default();
        reg.create(
            "q",
            mq(),
            QuotaSpec::unlimited().with_max_inflight(10).with_rate(1, 2),
        )
        .unwrap();
        let b = reg.bind("q").unwrap();
        b.admit_insert(1).unwrap();
        b.admit_insert(1).unwrap();
        assert_eq!(b.admit_insert(1), Err(Refusal::Rate));
        // Two admitted inserts hold two in-flight slots; the refused one
        // holds none — 8 more removals' worth of budget remain.
        b.note_removed(2);
        b.admit_removal().unwrap_err(); // bucket empty: removal shed too
        let snap = b.snapshot();
        assert_eq!(snap.totals.refusals, 2);
    }

    #[test]
    fn dropped_queue_refuses_with_a_tombstone_and_counts_it() {
        let reg = QueueRegistry::default();
        reg.create("q", mq(), QuotaSpec::unlimited()).unwrap();
        let b = reg.bind("q").unwrap();
        b.admit_insert(1).unwrap();
        reg.drop_queue("q").unwrap();
        assert!(b.is_dropped());
        assert_eq!(b.admit_insert(2), Err(Refusal::Dropped));
        assert_eq!(b.admit_removal(), Err(Refusal::Dropped));
        // The binding itself never panics; dropping it releases cleanly.
        drop(b);
    }

    /// Work admitted just before `drop_queue` publishes its counters after
    /// it; the retired total must still count it, and fold the queue in
    /// exactly once, when its last binding closes.
    #[test]
    fn counts_that_straddle_a_drop_reach_the_retired_totals() {
        let reg = QueueRegistry::default();
        reg.create("q", BackendSpec::CoarseHeap, QuotaSpec::unlimited())
            .unwrap();
        let b = reg.bind("q").unwrap();
        let other = reg.bind("q").unwrap();
        let mut s = b.register();
        for k in 0..8u64 {
            b.admit_insert(k).unwrap();
            s.insert(k, k);
        }
        b.publish_stats(s.stats());
        b.admit_removal().unwrap();
        reg.drop_queue("q").unwrap();
        assert_eq!(reg.retired_totals().inserts, 8);
        // The batch admitted before the drop lands after it.
        let mut out = Vec::new();
        assert_eq!(s.delete_min_batch_into(8, &mut out), 8);
        b.note_removed(8);
        b.publish_stats(s.stats());
        assert_eq!(b.admit_insert(9), Err(Refusal::Dropped));
        let live = reg.retired_totals();
        assert_eq!((live.inserts, live.removals, live.refusals), (8, 8, 1));
        drop(s);
        drop(b);
        // One binding is still open: the entry is read live, not folded.
        assert_eq!(reg.retired.lock().draining.len(), 1);
        assert_eq!(reg.retired_totals(), live);
        drop(other);
        assert!(reg.retired.lock().draining.is_empty(), "folded on close");
        assert_eq!(reg.retired_totals(), live, "folded exactly once");
    }

    #[test]
    fn closed_sessions_roll_up_into_one_accumulator() {
        let reg = QueueRegistry::default();
        reg.create("q", mq(), QuotaSpec::unlimited()).unwrap();
        for round in 0..100u64 {
            let b = reg.bind("q").unwrap();
            let mut s = b.register();
            s.insert(round, round);
            b.publish_stats(s.stats());
            drop(s);
            drop(b);
        }
        let snap = &reg.stats()[0];
        assert_eq!(snap.totals.inserts, 100);
        assert_eq!(snap.sessions_total, 100);
        assert_eq!(snap.sessions_live, 0);
        // The roll-up is bounded: the entry's live list is empty, and the
        // closed accumulator is a single HandleStats regardless of churn.
        assert_eq!(reg.bind("q").unwrap().snapshot().sessions_live, 1);
    }

    #[test]
    fn aggregate_is_monotonic_under_concurrent_churn() {
        let reg = QueueRegistry::default();
        reg.create("q", mq(), QuotaSpec::unlimited()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50u64 {
                        let b = reg.bind("q").unwrap();
                        let mut s = b.register();
                        s.insert(i, i);
                        b.publish_stats(s.stats());
                        drop(s);
                        drop(b);
                    }
                });
            }
            scope.spawn(|| {
                let mut last = 0u64;
                for _ in 0..200 {
                    let inserts = reg.stats()[0].totals.inserts;
                    assert!(inserts >= last, "aggregate went backwards");
                    last = inserts;
                }
            });
        });
        assert_eq!(reg.stats()[0].totals.inserts, 200);
    }

    #[test]
    fn snapshots_come_back_sorted_by_name() {
        let reg = QueueRegistry::default();
        for name in ["zeta", "alpha", "mid"] {
            reg.create(name, mq(), QuotaSpec::unlimited()).unwrap();
        }
        let names: Vec<String> = reg.stats().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn installed_queues_share_state_with_the_caller() {
        let reg = QueueRegistry::default();
        let queue = mq().build(3);
        {
            let mut h = queue.register_dyn();
            h.insert(9, 90);
        }
        reg.install("default", Arc::clone(&queue), QuotaSpec::unlimited())
            .unwrap();
        let b = reg.bind("default").unwrap();
        let mut s = b.register();
        assert_eq!(s.delete_min(), Some((9, 90)), "same underlying structure");
        assert_eq!(b.snapshot().backend, "installed");
    }

    #[test]
    fn registry_built_queues_come_up_instrumented() {
        let hub = ObsHub::new();
        let reg = QueueRegistry::default();
        reg.set_obs(Arc::clone(&hub));
        reg.create("tenant/a", mq(), QuotaSpec::unlimited())
            .unwrap();
        let b = reg.bind("tenant/a").unwrap();
        {
            let mut s = b.register();
            for k in 0..200u64 {
                s.insert(k, k);
            }
            while s.delete_min().is_some() {}
        }
        let snap = hub.metrics().snapshot();
        let ops = snap
            .counter("mq_ops_total", &[("queue", "tenant/a")])
            .expect("the lazily-built backend reports into the hub");
        assert!(ops >= 400, "200 inserts + 200 removals: {ops}");
        assert!(
            snap.histogram("mq_rank_error", &[("queue", "tenant/a")])
                .is_some(),
            "the rank-error probe is registered under the queue's name"
        );
        // Without a hub, the same spec builds uninstrumented — the old
        // behaviour is the no-telemetry baseline.
        let bare = QueueRegistry::default();
        bare.create("tenant/b", mq(), QuotaSpec::unlimited())
            .unwrap();
        let bb = bare.bind("tenant/b").unwrap();
        let mut s = bb.register();
        s.insert(1, 1);
        assert_eq!(s.delete_min(), Some((1, 1)));
    }

    #[test]
    fn obs_hub_mirrors_refusals_inflight_and_quota_events() {
        let hub = ObsHub::new();
        let reg = QueueRegistry::default();
        reg.set_obs(Arc::clone(&hub));
        // Two tokens at one per second: the test spends both well inside
        // the first second.
        reg.create(
            "tenant/a",
            mq(),
            QuotaSpec::unlimited().with_max_inflight(2).with_rate(1, 2),
        )
        .unwrap();
        let b = reg.bind("tenant/a").unwrap();
        b.admit_insert(1).unwrap();
        b.admit_insert(2).unwrap();
        assert_eq!(b.admit_insert(3), Err(Refusal::InFlight));
        b.note_external_refusal();
        b.note_removed(1);
        assert_eq!(b.admit_insert(4), Err(Refusal::Rate));
        reg.drop_queue("tenant/a").unwrap();
        assert_eq!(b.admit_removal(), Err(Refusal::Dropped));
        reg.note_unbound_refusal();

        let snap = hub.metrics().snapshot();
        let refusal = |cat: &str| {
            snap.counter(
                "registry_refusals_total",
                &[("queue", "tenant/a"), ("category", cat)],
            )
        };
        assert_eq!(refusal("inflight"), Some(1));
        assert_eq!(refusal("rate"), Some(1));
        assert_eq!(refusal("external"), Some(1), "the reserved-key refusal");
        assert_eq!(refusal("dropped"), Some(1));
        assert_eq!(refusal_category_name(4), "unknown", "four codes, 0..=3");
        assert_eq!(
            snap.gauge("registry_inflight", &[("queue", "tenant/a")]),
            Some(1),
            "two admits minus one removal credit; the rate refusal rolled back"
        );
        assert_eq!(
            snap.counter("registry_unbound_refusals_total", &[]),
            Some(1)
        );

        // Every refusal left an epoch-stamped event naming the tenant.
        let events: Vec<_> = hub
            .recorder()
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::QuotaRefusal)
            .collect();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.label == "tenant/a"));
        assert_eq!(events[0].fields[0], refusal_category::INFLIGHT);
        assert_eq!(events[0].fields[1], 3, "the refused key rides along");
        assert_eq!(events[0].fields[2], 2, "in-flight load at refusal time");
        assert_eq!(events[1].fields[0], refusal_category::EXTERNAL);
        assert_eq!(events[2].fields, [refusal_category::RATE, 4, 1]);
        assert_eq!(events[3].fields[0], refusal_category::DROPPED);
    }

    #[test]
    fn bindings_without_a_hub_record_nothing() {
        let reg = QueueRegistry::default();
        reg.create("q", mq(), QuotaSpec::unlimited()).unwrap();
        let b = reg.bind("q").unwrap();
        b.admit_insert(1).unwrap();
        assert!(reg.obs().is_none());
        // Attaching after a bind leaves that binding unobserved (cells are
        // resolved at bind time) but new bindings pick the hub up.
        let hub = ObsHub::new();
        reg.set_obs(Arc::clone(&hub));
        b.note_external_refusal();
        assert!(hub.metrics().snapshot().counters.is_empty());
        let b2 = reg.bind("q").unwrap();
        b2.note_external_refusal();
        assert_eq!(
            hub.metrics().snapshot().counter(
                "registry_refusals_total",
                &[("queue", "q"), ("category", "external")],
            ),
            Some(1)
        );
    }

    #[test]
    fn name_validation_accepts_the_documented_charset() {
        for good in [
            "a",
            "tenant/queue-1",
            "A_b.c/d-9",
            &"x".repeat(MAX_NAME_LEN),
        ] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", "é", "a b", "a\nb", &"x".repeat(MAX_NAME_LEN + 1)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
