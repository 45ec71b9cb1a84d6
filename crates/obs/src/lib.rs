//! `choice-obs` — unified telemetry for the (1 + β) MultiQueue stack.
//!
//! Five pieces, all built for a hot path that must stay within a ~3%
//! overhead budget (gated by the `t13_obs` benchmark):
//!
//! * [`metrics`] — a lock-free [`MetricsRegistry`] of counters, gauges, and
//!   log-bucketed histograms. Cells are sharded per thread so an increment
//!   is one uncontended `fetch_add`; [`MetricsRegistry::snapshot`] merges
//!   the shards consistently and renders Prometheus exposition text.
//! * [`recorder`] — a [`FlightRecorder`]: a fixed-size ring of structured
//!   events (lane contention, quota refusals, session lifecycle,
//!   quiescence, panics) with deterministic-clock support.
//! * [`trace`] — a [`SpanRing`]: the same ring carrying per-request stage
//!   timings (recv → decode → admit → queue-op → flush) for traced wire
//!   requests.
//! * [`window`] — a [`RateWindow`] of periodic [`MetricsSnapshot`] deltas,
//!   turning cumulative counters into ops/s and lifetime histograms into
//!   last-window p99s.
//! * [`sample`] — a deterministic [`LatencySampler`] for 1-in-N op timing.
//!
//! The [`ObsHub`] bundles one of each ring/registry; every layer (core
//! queue, scheduler, registry, service) accepts an `Arc<ObsHub>` and both
//! writes and dumps flow through it. [`ObsHub::panic_scope`] dumps both
//! rings of a hub when a thread inside the scope panics.
//!
//! # Example
//!
//! ```
//! use choice_obs::{EventKind, ObsHub};
//!
//! let hub = ObsHub::new();
//! let ops = hub.metrics().counter("ops_total", &[("queue", "default")]);
//! ops.inc();
//! hub.recorder().record(EventKind::LaneContention, "default", [1, 4, 0]);
//! let snapshot = hub.metrics().snapshot();
//! assert_eq!(snapshot.counter("ops_total", &[("queue", "default")]), Some(1));
//! assert!(hub.recorder().dump_text().contains("lane-contention"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
mod ring;
pub mod sample;
pub mod trace;
pub mod window;

pub use metrics::{
    Counter, Gauge, Histogram, LogHistogram, MetricRow, MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{
    refusal_category, refusal_category_name, EventKind, EventRecord, FlightRecorder, ManualClock,
};
pub use sample::LatencySampler;
pub use trace::{SpanRecord, SpanRing, SpanStage, SPAN_STAGES};
pub use window::{RateWindow, WindowRates, DEFAULT_WINDOW_SLOTS};

use std::cell::RefCell;
use std::sync::{Arc, Once, Weak};

use parking_lot::Mutex;

/// Default flight-recorder capacity (events retained) for hubs built with
/// [`ObsHub::new`].
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

/// Default span-ring capacity (traced-request spans retained).
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// One metrics registry, one flight recorder, one span ring, and one rate
/// window: the unit of telemetry every layer is wired to.
#[derive(Debug)]
pub struct ObsHub {
    metrics: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    spans: Arc<SpanRing>,
    window: Arc<RateWindow>,
}

impl ObsHub {
    /// A hub with the default recorder capacity and a monotonic clock.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<ObsHub> {
        Self::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A hub retaining up to `events` flight-recorder events.
    pub fn with_capacity(events: usize) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            metrics: Arc::new(MetricsRegistry::new()),
            recorder: Arc::new(FlightRecorder::new(events)),
            spans: Arc::new(SpanRing::new(DEFAULT_SPAN_CAPACITY)),
            window: Arc::new(RateWindow::new(DEFAULT_WINDOW_SLOTS)),
        })
    }

    /// A hub whose recorder is driven by `clock` (deterministic timestamps
    /// for tests and simulation). Span timestamps and window pushes use the
    /// same clock (see [`window_tick`](Self::window_tick)).
    pub fn with_manual_clock(events: usize, clock: &ManualClock) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            metrics: Arc::new(MetricsRegistry::new()),
            recorder: Arc::new(FlightRecorder::with_manual_clock(events, clock)),
            spans: Arc::new(SpanRing::new(DEFAULT_SPAN_CAPACITY)),
            window: Arc::new(RateWindow::new(DEFAULT_WINDOW_SLOTS)),
        })
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The traced-request span ring.
    pub fn spans(&self) -> &Arc<SpanRing> {
        &self.spans
    }

    /// The windowed-rates ring.
    pub fn window(&self) -> &Arc<RateWindow> {
        &self.window
    }

    /// Pushes one metrics snapshot into the rate window, timestamped on
    /// the recorder's clock (so manual-clock hubs stay deterministic).
    /// Callers with a natural cadence — a dump request, a completed
    /// scheduler run — tick the window; rates emerge from the deltas.
    pub fn window_tick(&self) {
        self.window
            .push(self.recorder.now_ns(), self.metrics.snapshot());
    }

    /// The full exposition dump: Prometheus metrics text, the windowed
    /// rates derived from previous dumps (each call pushes one snapshot
    /// into the window first), and optionally the flight-recorder events
    /// and request spans rendered as `# `-prefixed comment lines (so the
    /// result stays scrapeable).
    pub fn render_dump(&self, include_events: bool) -> String {
        self.window_tick();
        let mut out = self.metrics.snapshot().render_prometheus();
        out.push_str(&self.window.render());
        if include_events {
            out.push_str("# flight recorder\n");
            for line in self.recorder.dump_text().lines() {
                out.push_str("# ");
                out.push_str(line);
                out.push('\n');
            }
            out.push_str("# request spans\n");
            for line in self.spans.dump_text().lines() {
                out.push_str("# ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Enters a panic scope on the current thread (installing the global
    /// panic hook on first use; the hook chains to the previously installed
    /// one, so default backtraces still print).
    pub fn panic_scope(self: &Arc<Self>) -> PanicScope {
        install_panic_hook();
        PANIC_HUBS.with(|hubs| hubs.borrow_mut().push(Arc::downgrade(self)));
        PanicScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

thread_local! {
    /// The hubs whose [`PanicScope`]s are active on this thread, innermost
    /// last.
    static PANIC_HUBS: RefCell<Vec<Weak<ObsHub>>> = const { RefCell::new(Vec::new()) };
}

static HOOK_ONCE: Once = Once::new();
static LAST_PANIC_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// While alive, a panic on this thread records a
/// [`Panic`](EventKind::Panic) event into the scoped hub's flight recorder
/// and captures a text dump of its events, then its spans (readable via
/// [`take_last_panic_dump`]), before the previous panic hook runs.
#[derive(Debug)]
pub struct PanicScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for PanicScope {
    fn drop(&mut self) {
        let _ = PANIC_HUBS.try_with(|hubs| hubs.borrow_mut().pop());
    }
}

/// Installs (once, process-wide) a panic hook that dumps the panicking
/// thread's scoped hub. Called automatically by [`ObsHub::panic_scope`].
pub fn install_panic_hook() {
    HOOK_ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let hub = PANIC_HUBS
                .try_with(|hubs| hubs.borrow().last().and_then(Weak::upgrade))
                .ok()
                .flatten();
            if let Some(hub) = hub {
                let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic".to_string()
                };
                hub.recorder.record(EventKind::Panic, &message, [0, 0, 0]);
                // The spans leading up to the panic are what a post-mortem
                // wants next.
                let mut dump = hub.recorder.dump_text();
                dump.push_str(&hub.spans.dump_text());
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

    /// Serializes the tests that exercise the process-global panic-dump
    /// slot; without it parallel panic tests stomp each other's dumps.
    static PANIC_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn hub_bundles_metrics_and_recorder() {
        let hub = ObsHub::with_capacity(16);
        hub.metrics().counter("a_total", &[]).inc();
        hub.recorder().record(EventKind::SessionOpen, "", [1, 0, 0]);
        let dump = hub.render_dump(true);
        assert!(dump.contains("a_total 1"));
        assert!(dump.contains("# flight recorder"));
        assert!(dump.contains("session-open"));
        // Every flight-recorder line is a comment: still scrapeable.
        for line in dump.lines() {
            assert!(
                line.starts_with('#') || !line.contains("session-open"),
                "event lines must be comments: {line}"
            );
        }
        let without = hub.render_dump(false);
        assert!(!without.contains("flight recorder"));
    }

    #[test]
    fn manual_clock_hub_is_deterministic() {
        let clock = ManualClock::new();
        let hub = ObsHub::with_manual_clock(16, &clock);
        clock.set_ns(777);
        hub.recorder().record(EventKind::Quiescence, "", [0, 9, 0]);
        assert_eq!(hub.recorder().events()[0].ts_ns, 777);
    }

    #[test]
    fn consecutive_dumps_expose_windowed_rates() {
        let clock = ManualClock::new();
        let hub = ObsHub::with_manual_clock(16, &clock);
        let ops = hub.metrics().counter("ops_total", &[]);
        clock.set_ns(0);
        let first = hub.render_dump(false);
        assert!(
            !first.contains("window_rate_per_sec"),
            "one snapshot has no span to rate over"
        );
        ops.add(400);
        clock.set_ns(2_000_000_000);
        let second = hub.render_dump(false);
        assert!(second.contains("window_span_seconds 2"));
        assert!(
            second.contains("window_rate_per_sec{metric=\"ops_total\"} 200"),
            "dump:\n{second}"
        );
        for line in second.lines() {
            assert!(
                line.is_empty() || line.starts_with('#') || line.split_whitespace().count() == 2,
                "unscrapeable line: {line}"
            );
        }
    }

    #[test]
    fn dump_includes_request_spans_as_comments() {
        let hub = ObsHub::with_capacity(16);
        hub.spans().record(0xBEEF, 3, 10, [1, 2, 3, 4, 5]);
        let dump = hub.render_dump(true);
        assert!(dump.contains("# request spans"));
        assert!(dump.contains("queue-op=4"));
        let without = hub.render_dump(false);
        assert!(!without.contains("request spans"));
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

        let hub = ObsHub::with_capacity(8);
        hub.recorder().record(EventKind::SessionOpen, "", [7, 0, 0]);
        let hub2 = Arc::clone(&hub);
        let result = std::thread::spawn(move || {
            let _scope = hub2.panic_scope();
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
        assert!(hub
            .recorder()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::Panic));
    }

    #[test]
    fn panic_inside_a_span_scope_dumps_the_spans_too() {
        let _guard = PANIC_TEST_LOCK.lock();
        let _ = take_last_panic_dump();
        let hub = ObsHub::with_capacity(8);
        hub.recorder().record(EventKind::SessionOpen, "", [1, 0, 0]);
        hub.spans().record(0x51AB, 2, 5, [9, 9, 9, 9, 9]);
        let hub2 = Arc::clone(&hub);
        let result = std::thread::spawn(move || {
            let _scope = hub2.panic_scope();
            panic!("deliberate span panic");
        })
        .join();
        assert!(result.is_err());
        let dump = take_last_panic_dump().expect("scoped panic leaves a dump");
        assert!(dump.contains("deliberate span panic"));
        assert!(dump.contains("span ring: 1 span(s)"), "dump:\n{dump}");
    }
}
