//! Request spans: a fixed-size ring of per-request stage timings.
//!
//! Wire frames may carry an 8-byte trace id; for each sampled (traced)
//! request the server measures how long the request spent in each pipeline
//! stage — socket recv, frame decode, admission, the queue operation
//! itself, and the response flush — and records one [`SpanRecord`] here.
//! The spans live in the crate's one ring (`Ring`, shared with the
//! [`FlightRecorder`](crate::FlightRecorder)): the last `capacity` spans
//! behind one mutex, stored as they are, each with its ticket.
//!
//! Spans are exported two ways: aggregated into `svc_stage_ns{stage=...}`
//! histograms by the server (always on for traced requests), and dumped
//! verbatim — the most recent `capacity` spans — through `MetricsDump`
//! comment lines and the panic path.

use crate::ring::Ring;

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

/// One request span, as returned by [`SpanRing::spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global record order (0-based ticket).
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

/// The fixed-size span ring.
#[derive(Debug)]
pub struct SpanRing {
    ring: Ring<SpanRecord>,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total spans recorded, retained or overwritten.
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records one span.
    pub fn record(&self, trace_id: u64, opcode: u8, ts_ns: u64, stage_ns: [u64; SPAN_STAGES]) {
        self.ring.write(SpanRecord {
            seq: 0, // the ring's ticket, filled in by `spans`
            trace_id,
            opcode,
            ts_ns,
            stage_ns,
        });
    }

    /// Every span currently in the ring, in record order (ascending
    /// `seq`).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring
            .read()
            .into_iter()
            .map(|(seq, span)| SpanRecord { seq, ..span })
            .collect()
    }

    /// A human-readable dump: one line per span after a count line.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.spans();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span ring: {} span(s) retained, {} recorded",
            spans.len(),
            self.recorded()
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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
        assert_eq!(ring.recorded(), 4 * 5_000);
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
