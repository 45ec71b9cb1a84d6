//! The flight recorder: a fixed-size lock-free ring of structured events
//! with a deterministic-clock option and panic-hook dumps.
//!
//! # Ring discipline
//!
//! Events live in the crate's one seqlock ring (`SeqRing`, shared with the
//! [`SpanRing`](crate::SpanRing)); the recorder only encodes an event into
//! eight payload words and decodes it back. A writer claims a ticket with
//! one `fetch_add` and a slot with one CAS, so recording is lock-free and
//! never blocks the hot path. When writers wrap the ring faster than a
//! lagging writer finishes, the event is **dropped, counted** in
//! [`dropped`](FlightRecorder::dropped). Readers
//! ([`events`](FlightRecorder::events)) skip slots that change mid-read, so
//! a dump contains only complete, untorn events (the most recent
//! `capacity` of them, in record order).
//!
//! # Time
//!
//! The clock follows the explicit-time pattern of
//! `rank_stats::tokens::TokenBucket`: by default timestamps come from a
//! monotonic [`Instant`] epoch, but a [`ManualClock`] makes every
//! timestamp deterministic for tests and simulation, and
//! [`record_at`](FlightRecorder::record_at) accepts a caller-supplied
//! `now_ns` directly.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::ring::SeqRing;

/// Maximum label bytes stored inline per event; longer labels are truncated
/// at a UTF-8 boundary.
pub const MAX_LABEL_BYTES: usize = 24;

/// The structured event kinds the system records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An insert fell back to a blocking lane lock after exhausting its
    /// lock attempts, or lost at least the queue's contention threshold of
    /// them. Fields: `lane`, `retries`, unused; label: queue name.
    LaneContention = 3,
    /// An admission gate refused an operation. Fields: `category` (see
    /// [`refusal_category_name`]), `key`, `inflight`; label: tenant/queue
    /// name.
    QuotaRefusal = 4,
    /// A service session opened. Fields: `session_id`, unused, unused.
    SessionOpen = 5,
    /// A service session closed. Fields: `session_id`, unused, unused.
    SessionClose = 6,
    /// A scheduler worker observed quiescence and terminated. Fields:
    /// `worker`, `executed`, unused.
    Quiescence = 7,
    /// A thread panicked inside a [`PanicScope`]; label: the panic message
    /// (truncated).
    Panic = 8,
}

impl EventKind {
    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            3 => EventKind::LaneContention,
            4 => EventKind::QuotaRefusal,
            5 => EventKind::SessionOpen,
            6 => EventKind::SessionClose,
            7 => EventKind::Quiescence,
            8 => EventKind::Panic,
            _ => return None,
        })
    }

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
    /// Global record order (0-based ticket; gaps mean dropped events).
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

/// Payload words per slot: kind+label-length, timestamp, three fields,
/// three label words.
const SLOT_WORDS: usize = 8;

/// The fixed-size lock-free event ring. See the module docs for the slot
/// protocol and overwrite semantics.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: SeqRing<SLOT_WORDS>,
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
            ring: SeqRing::new(capacity),
            clock,
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Events dropped because a lapped slot was still being written.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total events recorded (dropped ones excluded; never negative under
    /// concurrent drops).
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
        let mut label_bytes = [0u8; MAX_LABEL_BYTES];
        let mut len = label.len().min(MAX_LABEL_BYTES);
        while len > 0 && !label.is_char_boundary(len) {
            len -= 1;
        }
        label_bytes[..len].copy_from_slice(&label.as_bytes()[..len]);
        let mut words = [0u64; SLOT_WORDS];
        words[0] = kind as u64 | ((len as u64) << 8);
        words[1] = now_ns;
        words[2..5].copy_from_slice(&fields);
        for (word, chunk) in words[5..].iter_mut().zip(label_bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunks"));
        }
        self.ring.write(words);
    }

    /// Decodes every complete, untorn event currently in the ring, in
    /// record order (ascending `seq`).
    pub fn events(&self) -> Vec<EventRecord> {
        self.ring
            .read()
            .into_iter()
            .filter_map(|(ticket, words)| {
                let kind = EventKind::from_code(words[0] & 0xFF)?;
                let len = ((words[0] >> 8) & 0xFF) as usize;
                let mut label_bytes = [0u8; MAX_LABEL_BYTES];
                for (chunk, word) in label_bytes.chunks_exact_mut(8).zip(&words[5..]) {
                    chunk.copy_from_slice(&word.to_le_bytes());
                }
                let label =
                    String::from_utf8_lossy(&label_bytes[..len.min(MAX_LABEL_BYTES)]).into_owned();
                Some(EventRecord {
                    seq: ticket,
                    ts_ns: words[1],
                    kind,
                    fields: [words[2], words[3], words[4]],
                    label,
                })
            })
            .collect()
    }

    /// A human-readable dump: one line per event plus a drop summary.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} event(s) retained, {} recorded, {} dropped",
            events.len(),
            self.recorded(),
            self.dropped()
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
        let _ = write!(
            out,
            "{{\"recorded\":{},\"dropped\":{},\"events\":[",
            self.recorded(),
            self.dropped()
        );
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

thread_local! {
    /// The recorders whose [`PanicScope`]s are active on this thread,
    /// innermost last.
    static PANIC_RECORDERS: RefCell<Vec<Weak<FlightRecorder>>> = const { RefCell::new(Vec::new()) };
}

static HOOK_ONCE: Once = Once::new();
static LAST_PANIC_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// Serializes tests that exercise the process-global panic-dump slot
/// (here and in `lib.rs`); without it parallel panic tests stomp each
/// other's dumps.
#[cfg(test)]
pub(crate) static PANIC_TEST_LOCK: Mutex<()> = Mutex::new(());

/// While alive, panics on this thread are recorded into the scoped
/// [`FlightRecorder`] and a text dump is captured (readable via
/// [`take_last_panic_dump`]) before the previous panic hook runs.
#[derive(Debug)]
pub struct PanicScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl FlightRecorder {
    /// Enters a panic scope on the current thread (installing the global
    /// panic hook on first use; the hook chains to the previously installed
    /// one, so default backtraces still print).
    pub fn panic_scope(self: &Arc<Self>) -> PanicScope {
        install_panic_hook();
        PANIC_RECORDERS.with(|r| r.borrow_mut().push(Arc::downgrade(self)));
        PanicScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for PanicScope {
    fn drop(&mut self) {
        let _ = PANIC_RECORDERS.try_with(|r| r.borrow_mut().pop());
    }
}

/// Installs (once, process-wide) a panic hook that dumps the panicking
/// thread's scoped flight recorder. Called automatically by
/// [`FlightRecorder::panic_scope`].
pub fn install_panic_hook() {
    HOOK_ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let recorder = PANIC_RECORDERS
                .try_with(|r| r.borrow().last().and_then(Weak::upgrade))
                .ok()
                .flatten();
            if let Some(recorder) = recorder {
                let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic".to_string()
                };
                recorder.record(EventKind::Panic, &message, [0, 0, 0]);
                let mut dump = recorder.dump_text();
                // A scoped span ring (see `trace::SpanRing::panic_scope`)
                // rides along in the same dump: the spans leading up to the
                // panic are exactly what a post-mortem wants next.
                if let Some(spans) = crate::trace::scoped_panic_span_dump() {
                    dump.push_str(&spans);
                }
                eprintln!("[choice-obs] flight-recorder dump after panic:\n{dump}");
                *LAST_PANIC_DUMP.lock() = Some(dump);
            }
            previous(info);
        }));
    });
}

/// Takes (and clears) the most recent panic-hook dump, if any panic happened
/// inside a [`PanicScope`] since the last take.
pub fn take_last_panic_dump() -> Option<String> {
    LAST_PANIC_DUMP.lock().take()
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
        assert_eq!(rec.dropped(), 0);
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
        assert_eq!(rec.dropped(), 0, "a single writer never drops");
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
        assert_eq!(rec.recorded() + rec.dropped(), 4 * 5_000);
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

    /// One test covers both panic-hook behaviours (in order, because the
    /// last-dump slot is process-global): a panic outside any scope leaves
    /// no dump, a panic inside a scope leaves one.
    #[test]
    fn panic_scope_captures_a_dump_and_unscoped_panics_do_not() {
        let _guard = PANIC_TEST_LOCK.lock();
        let _ = take_last_panic_dump();
        install_panic_hook();
        let result = std::thread::spawn(|| panic!("unscoped")).join();
        assert!(result.is_err());
        assert!(take_last_panic_dump().is_none(), "no scope, no dump");

        let rec = Arc::new(FlightRecorder::new(8));
        rec.record(EventKind::SessionOpen, "", [7, 0, 0]);
        let rec2 = Arc::clone(&rec);
        let result = std::thread::spawn(move || {
            let _scope = rec2.panic_scope();
            panic!("deliberate test panic");
        })
        .join();
        assert!(result.is_err());
        let dump = take_last_panic_dump().expect("panic inside a scope leaves a dump");
        assert!(dump.contains("panic"));
        assert!(dump.contains("deliberate test panic"));
        assert!(dump.contains("session-open"));
        assert!(take_last_panic_dump().is_none(), "take clears");
        // The recorder itself holds the panic event too.
        assert!(rec.events().iter().any(|e| e.kind == EventKind::Panic));
    }
}
