//! The flight recorder: a fixed-size ring of structured events with a
//! deterministic-clock option; [`ObsHub::panic_scope`](crate::ObsHub::panic_scope)
//! dumps it when a thread panics.
//!
//! # Ring discipline
//!
//! Events live in the crate's one ring (`Ring`, shared with the
//! [`SpanRing`](crate::SpanRing)): a mutex around the last `capacity`
//! events, each stored as a `Copy` value with its label inline. A writer
//! holds the lock for one slot store and [`events`](FlightRecorder::events)
//! for one slot copy, so a dump holds only whole events (the most recent
//! `capacity` of them, in record order) and no event is ever dropped;
//! labels are decoded and dumps formatted after the lock is released.
//!
//! # Time
//!
//! The clock follows the explicit-time pattern of
//! `rank_stats::tokens::TokenBucket`: by default timestamps come from a
//! monotonic [`Instant`] epoch, but a [`ManualClock`] makes every
//! timestamp deterministic for tests and simulation, and
//! [`record_at`](FlightRecorder::record_at) accepts a caller-supplied
//! `now_ns` directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::ring::Ring;

/// Maximum label bytes stored inline per event; longer labels are truncated
/// at a UTF-8 boundary.
pub const MAX_LABEL_BYTES: usize = 24;

/// The structured event kinds the system records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An insert fell back to a blocking lane lock after exhausting its
    /// lock attempts, or lost at least the queue's contention threshold of
    /// them. Fields: `lane`, `retries`, unused; label: queue name.
    LaneContention,
    /// An admission gate refused an operation. Fields: `category` (see
    /// [`refusal_category_name`]), `key`, `inflight`; label: tenant/queue
    /// name.
    QuotaRefusal,
    /// A service session opened. Fields: `session_id`, unused, unused.
    SessionOpen,
    /// A service session closed. Fields: `session_id`, unused, unused.
    SessionClose,
    /// A scheduler worker observed quiescence and terminated. Fields:
    /// `worker`, `executed`, unused.
    Quiescence,
    /// A thread panicked inside a [`PanicScope`](crate::PanicScope); label:
    /// the panic message (truncated).
    Panic,
}

impl EventKind {
    /// A short lowercase name for dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::LaneContention => "lane-contention",
            EventKind::QuotaRefusal => "quota-refusal",
            EventKind::SessionOpen => "session-open",
            EventKind::SessionClose => "session-close",
            EventKind::Quiescence => "quiescence",
            EventKind::Panic => "panic",
        }
    }

    /// Names for the three numeric fields, used by the dumps.
    pub fn field_names(self) -> [&'static str; 3] {
        match self {
            EventKind::LaneContention => ["lane", "retries", "_"],
            EventKind::QuotaRefusal => ["category", "key", "inflight"],
            EventKind::SessionOpen | EventKind::SessionClose => ["session", "_", "_"],
            EventKind::Quiescence => ["worker", "executed", "_"],
            EventKind::Panic => ["_", "_", "_"],
        }
    }
}

/// Admission-refusal category codes carried in [`EventKind::QuotaRefusal`]
/// field 0.
pub mod refusal_category {
    /// Queue was dropped (tombstone).
    pub const DROPPED: u64 = 0;
    /// In-flight element quota exceeded.
    pub const INFLIGHT: u64 = 1;
    /// Rate quota (token bucket) exhausted.
    pub const RATE: u64 = 2;
    /// Refused by an outer layer (e.g. reserved key).
    pub const EXTERNAL: u64 = 3;
}

/// Human-readable name for a [`refusal_category`] code.
pub fn refusal_category_name(code: u64) -> &'static str {
    match code {
        refusal_category::DROPPED => "dropped",
        refusal_category::INFLIGHT => "inflight",
        refusal_category::RATE => "rate",
        refusal_category::EXTERNAL => "external",
        _ => "unknown",
    }
}

/// A decoded event, as returned by [`FlightRecorder::events`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Global record order (0-based ticket).
    pub seq: u64,
    /// Timestamp in nanoseconds on the recorder's clock.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Three kind-specific numeric fields (see [`EventKind::field_names`]).
    pub fields: [u64; 3],
    /// Inline label (queue/tenant name, decision, panic message — truncated
    /// to [`MAX_LABEL_BYTES`]).
    pub label: String,
}

/// A shareable, settable nanosecond clock for deterministic tests.
#[derive(Clone, Debug, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the absolute time.
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::SeqCst);
    }

    /// Advances the time by `delta` ns.
    pub fn advance_ns(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::SeqCst);
    }

    /// The current time.
    pub fn now_ns(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
enum ClockSource {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

/// One event as the ring stores it: `Copy`, with its label inline.
#[derive(Clone, Copy, Debug)]
struct Event {
    ts_ns: u64,
    kind: EventKind,
    fields: [u64; 3],
    label_len: u8,
    label: [u8; MAX_LABEL_BYTES],
}

/// The fixed-size event ring. See the module docs for its discipline.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Ring<Event>,
    clock: ClockSource,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8), timestamped from a monotonic epoch taken
    /// now.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, ClockSource::Monotonic(Instant::now()))
    }

    /// A recorder driven by `clock` — every event is timestamped with the
    /// clock's current value, so tests control time explicitly (the
    /// `TokenBucket` pattern).
    pub fn with_manual_clock(capacity: usize, clock: &ManualClock) -> Self {
        Self::build(capacity, ClockSource::Manual(Arc::clone(&clock.0)))
    }

    fn build(capacity: usize, clock: ClockSource) -> Self {
        Self {
            ring: Ring::new(capacity),
            clock,
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events recorded, retained or overwritten.
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// The current time on this recorder's clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match &self.clock {
            ClockSource::Monotonic(epoch) => epoch.elapsed().as_nanos() as u64,
            ClockSource::Manual(ns) => ns.load(Ordering::SeqCst),
        }
    }

    /// Records an event timestamped with the recorder's clock.
    pub fn record(&self, kind: EventKind, label: &str, fields: [u64; 3]) {
        self.record_at(self.now_ns(), kind, label, fields);
    }

    /// Records an event with an explicit timestamp (callers that already
    /// read a clock thread it through, like the token bucket).
    pub fn record_at(&self, now_ns: u64, kind: EventKind, label: &str, fields: [u64; 3]) {
        let mut len = label.len().min(MAX_LABEL_BYTES);
        while len > 0 && !label.is_char_boundary(len) {
            len -= 1;
        }
        let mut event = Event {
            ts_ns: now_ns,
            kind,
            fields,
            label_len: len as u8,
            label: [0; MAX_LABEL_BYTES],
        };
        event.label[..len].copy_from_slice(&label.as_bytes()[..len]);
        self.ring.write(event);
    }

    /// Every event currently in the ring, in record order (ascending
    /// `seq`).
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring
            .read()
            .into_iter()
            .map(|(seq, e)| EventRecord {
                seq,
                ts_ns: e.ts_ns,
                kind: e.kind,
                fields: e.fields,
                label: String::from_utf8_lossy(&e.label[..usize::from(e.label_len)]).into_owned(),
            })
            .collect()
    }

    /// A human-readable dump: one line per event after a count line.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} event(s) retained, {} recorded",
            events.len(),
            self.recorded()
        );
        for e in &events {
            let names = e.kind.field_names();
            let _ = write!(
                out,
                "  [{:>6}] {:>12}ns {:<15}",
                e.seq,
                e.ts_ns,
                e.kind.name()
            );
            if !e.label.is_empty() {
                let _ = write!(out, " {}", e.label);
            }
            for (name, value) in names.iter().zip(e.fields.iter()) {
                if *name != "_" {
                    let _ = write!(out, " {name}={value}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// A JSON dump (hand-rolled, matching the bench harness's row style).
    pub fn dump_json(&self) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let mut out = String::new();
        let _ = write!(out, "{{\"recorded\":{},\"events\":[", self.recorded());
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let label = e
                .label
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(
                out,
                "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"label\":\"{}\",\"fields\":[{},{},{}]}}",
                e.seq,
                e.ts_ns,
                e.kind.name(),
                label,
                e.fields[0],
                e.fields[1],
                e.fields[2]
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_decodes_in_order_with_manual_clock() {
        let clock = ManualClock::new();
        let rec = FlightRecorder::with_manual_clock(16, &clock);
        clock.set_ns(100);
        rec.record(EventKind::LaneContention, "default", [1, 4, 8]);
        clock.advance_ns(50);
        rec.record(
            EventKind::QuotaRefusal,
            "tenant/a",
            [refusal_category::INFLIGHT, 9, 2],
        );
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].ts_ns, 100);
        assert_eq!(events[0].kind, EventKind::LaneContention);
        assert_eq!(events[0].fields, [1, 4, 8]);
        assert_eq!(events[0].label, "default");
        assert_eq!(events[1].ts_ns, 150);
        assert_eq!(events[1].label, "tenant/a");
        assert_eq!(rec.recorded(), 2);
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_events() {
        let clock = ManualClock::new();
        let rec = FlightRecorder::with_manual_clock(8, &clock);
        for i in 0..20u64 {
            clock.set_ns(i);
            rec.record(EventKind::SessionOpen, "", [i, 0, 0]);
        }
        let events = rec.events();
        assert_eq!(events.len(), 8);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn labels_truncate_at_char_boundaries() {
        let rec = FlightRecorder::new(8);
        let long = "αβγδεζηθικλμνξοπρ"; // 2 bytes per char: 34 bytes
        rec.record(EventKind::Panic, long, [0, 0, 0]);
        let events = rec.events();
        assert_eq!(events[0].label, &long[..24]);
        assert!(long.is_char_boundary(events[0].label.len()));
    }

    #[test]
    fn concurrent_writers_never_tear_a_reader() {
        let rec = Arc::new(FlightRecorder::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        rec.record(EventKind::LaneContention, "q", [t, i, t * i]);
                    }
                });
            }
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for _ in 0..200 {
                    for e in rec.events() {
                        // Payload invariant: fields[2] == fields[0]*fields[1].
                        assert_eq!(e.fields[2], e.fields[0] * e.fields[1], "torn event");
                        assert_eq!(e.label, "q");
                    }
                }
            });
        });
        assert_eq!(rec.recorded(), 4 * 5_000);
        let events = rec.events();
        assert!(events.len() <= 64);
        // Record order is strictly increasing.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn dumps_render_text_and_json() {
        let clock = ManualClock::new();
        let rec = FlightRecorder::with_manual_clock(8, &clock);
        clock.set_ns(42);
        rec.record(EventKind::Quiescence, "default", [3, 4, 8]);
        let text = rec.dump_text();
        assert!(text.contains("quiescence"));
        assert!(text.contains("worker=3"));
        assert!(text.contains("executed=4"));
        assert!(text.contains("default"));
        let json = rec.dump_json();
        assert!(json.contains("\"kind\":\"quiescence\""));
        assert!(json.contains("\"ts_ns\":42"));
        assert!(json.contains("\"fields\":[3,4,8]"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
