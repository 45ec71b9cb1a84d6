//! Request spans: a fixed-size lock-free ring of per-request stage timings.
//!
//! Wire frames may carry an 8-byte trace id; for each sampled (traced)
//! request the server measures how long the request spent in each pipeline
//! stage — socket recv, frame decode, admission, the queue operation
//! itself, and the response flush — and records one [`SpanRecord`] here.
//! The spans live in the crate's one seqlock ring (`SeqRing`, shared with
//! the [`FlightRecorder`](crate::FlightRecorder)): a `fetch_add` ticket per
//! writer, lossy-but-counted drops under overwrite pressure, and torn-read
//! detection on the reader side. This module only encodes a span into
//! eight payload words and decodes it back; `tests/check_recorder.rs`
//! model-checks the ring protocol (including broken variants) under the
//! `choice-check` explorer.
//!
//! Spans are exported two ways: aggregated into `svc_stage_ns{stage=...}`
//! histograms by the server (always on for traced requests), and dumped
//! verbatim — the most recent `capacity` spans — through `MetricsDump`
//! comment lines and the panic path.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use crate::ring::SeqRing;

/// Number of timed pipeline stages per request span.
pub const SPAN_STAGES: usize = 5;

/// The pipeline stages a traced request passes through, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanStage {
    /// Reading request bytes off the socket (attributed per read call; every
    /// frame completed by one read shares its duration).
    Recv = 0,
    /// Frame split + payload decode.
    Decode = 1,
    /// Registry admission (quota / rate / tombstone checks).
    Admit = 2,
    /// The queue operation itself (insert / delete-min / batch drain).
    QueueOp = 3,
    /// Response encode + socket write (and flush, when the credit window
    /// closes).
    Flush = 4,
}

impl SpanStage {
    /// All stages in pipeline order.
    pub const ALL: [SpanStage; SPAN_STAGES] = [
        SpanStage::Recv,
        SpanStage::Decode,
        SpanStage::Admit,
        SpanStage::QueueOp,
        SpanStage::Flush,
    ];

    /// A short lowercase name for metric labels and dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::Recv => "recv",
            SpanStage::Decode => "decode",
            SpanStage::Admit => "admit",
            SpanStage::QueueOp => "queue-op",
            SpanStage::Flush => "flush",
        }
    }
}

/// One decoded request span, as returned by [`SpanRing::spans`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global record order (0-based ticket; gaps mean dropped spans).
    pub seq: u64,
    /// The trace id the client stamped on the request frame.
    pub trace_id: u64,
    /// The request opcode (wire `OP_*` code).
    pub opcode: u8,
    /// Completion timestamp in nanoseconds on the owning hub's clock.
    pub ts_ns: u64,
    /// Nanoseconds spent in each stage, indexed by [`SpanStage`].
    pub stage_ns: [u64; SPAN_STAGES],
}

impl SpanRecord {
    /// Total server-side nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stage_ns.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }
}

/// Payload words per slot: opcode, timestamp, trace id, five stage timings.
const SLOT_WORDS: usize = 8;

/// The fixed-size lock-free span ring: the crate's seqlock ring with a
/// span payload layout.
#[derive(Debug)]
pub struct SpanRing {
    ring: SeqRing<SLOT_WORDS>,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: SeqRing::new(capacity),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Spans dropped because a lapped slot was still being written.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total spans recorded (dropped ones excluded; never negative under
    /// concurrent drops).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records one span. Lock-free and lossy: when the claimed slot is
    /// mid-write from a lagging lap (or a faster writer already lapped us)
    /// the span is dropped and counted, never blocking the hot path.
    pub fn record(&self, trace_id: u64, opcode: u8, ts_ns: u64, stage_ns: [u64; SPAN_STAGES]) {
        let mut words = [0u64; SLOT_WORDS];
        words[0] = opcode as u64;
        words[1] = ts_ns;
        words[2] = trace_id;
        words[3..].copy_from_slice(&stage_ns);
        self.ring.write(words);
    }

    /// Decodes every complete, untorn span currently in the ring, in record
    /// order (ascending `seq`).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring
            .read()
            .into_iter()
            .map(|(ticket, words)| SpanRecord {
                seq: ticket,
                trace_id: words[2],
                opcode: (words[0] & 0xFF) as u8,
                ts_ns: words[1],
                stage_ns: std::array::from_fn(|i| words[3 + i]),
            })
            .collect()
    }

    /// A human-readable dump: one line per span plus a drop summary.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.spans();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span ring: {} span(s) retained, {} recorded, {} dropped",
            spans.len(),
            self.recorded(),
            self.dropped()
        );
        for s in &spans {
            let _ = write!(
                out,
                "  [{:>6}] trace={:#018x} op={} {:>12}ns total={}",
                s.seq,
                s.trace_id,
                s.opcode,
                s.ts_ns,
                s.total_ns()
            );
            for (stage, ns) in SpanStage::ALL.iter().zip(s.stage_ns.iter()) {
                let _ = write!(out, " {}={}", stage.name(), ns);
            }
            out.push('\n');
        }
        out
    }
}

thread_local! {
    /// The span rings whose [`SpanPanicScope`]s are active on this thread,
    /// innermost last. The flight recorder's panic hook consults this so a
    /// connection panic dumps its spans alongside the event ring.
    static PANIC_SPAN_RINGS: RefCell<Vec<Weak<SpanRing>>> = const { RefCell::new(Vec::new()) };
}

/// While alive, the panic hook appends this thread's scoped span-ring dump
/// to the flight-recorder dump it captures.
#[derive(Debug)]
pub struct SpanPanicScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanRing {
    /// Enters a span panic scope on the current thread. Pair it with a
    /// [`FlightRecorder::panic_scope`](crate::FlightRecorder::panic_scope) —
    /// the recorder's hook is what captures the dump; this scope only adds
    /// the span section to it.
    pub fn panic_scope(self: &Arc<Self>) -> SpanPanicScope {
        PANIC_SPAN_RINGS.with(|r| r.borrow_mut().push(Arc::downgrade(self)));
        SpanPanicScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for SpanPanicScope {
    fn drop(&mut self) {
        let _ = PANIC_SPAN_RINGS.try_with(|r| r.borrow_mut().pop());
    }
}

/// The panicking thread's scoped span-ring dump, if any scope is active
/// (called by the flight recorder's panic hook).
pub(crate) fn scoped_panic_span_dump() -> Option<String> {
    PANIC_SPAN_RINGS
        .try_with(|r| r.borrow().last().and_then(Weak::upgrade))
        .ok()
        .flatten()
        .map(|ring| ring.dump_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_decodes_spans_in_order() {
        let ring = SpanRing::new(16);
        ring.record(0xAB, 3, 100, [1, 2, 3, 4, 5]);
        ring.record(0xCD, 4, 200, [10, 20, 30, 40, 50]);
        let spans = ring.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[0].trace_id, 0xAB);
        assert_eq!(spans[0].opcode, 3);
        assert_eq!(spans[0].ts_ns, 100);
        assert_eq!(spans[0].stage_ns, [1, 2, 3, 4, 5]);
        assert_eq!(spans[0].total_ns(), 15);
        assert_eq!(spans[1].trace_id, 0xCD);
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_spans() {
        let ring = SpanRing::new(8);
        for i in 0..20u64 {
            ring.record(i, 1, i, [i, 0, 0, 0, 0]);
        }
        let spans = ring.spans();
        assert_eq!(spans.len(), 8);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 0, "a single writer never drops");
    }

    #[test]
    fn concurrent_writers_never_tear_a_reader() {
        let ring = Arc::new(SpanRing::new(64));
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        // Payload invariant: queue-op stage = trace * ts.
                        ring.record(t, 2, i, [t, i, 0, t * i, 0]);
                    }
                });
            }
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for _ in 0..200 {
                    for sp in ring.spans() {
                        assert_eq!(sp.stage_ns[3], sp.stage_ns[0] * sp.stage_ns[1], "torn span");
                    }
                }
            });
        });
        assert_eq!(ring.recorded() + ring.dropped(), 4 * 5_000);
        let spans = ring.spans();
        assert!(spans.len() <= 64);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn dump_text_names_every_stage() {
        let ring = SpanRing::new(8);
        ring.record(7, 3, 42, [1, 2, 3, 4, 5]);
        let text = ring.dump_text();
        assert!(text.contains("span ring: 1 span(s)"));
        for stage in SpanStage::ALL {
            assert!(text.contains(stage.name()), "missing {}", stage.name());
        }
        assert!(text.contains("total=15"));
    }

    #[test]
    fn stage_names_and_order_are_stable() {
        let names: Vec<&str> = SpanStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["recv", "decode", "admit", "queue-op", "flush"]);
        assert_eq!(SpanStage::QueueOp as usize, 3);
    }
}
