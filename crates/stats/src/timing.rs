//! Throughput measurement.
//!
//! The paper's Figure 1 reports operations per second over a fixed wall-clock
//! window with alternating insert/deleteMin operations. [`OpsTimer`] measures
//! a counted batch of operations.

use std::time::{Duration, Instant};

/// Measures how long a counted batch of operations takes and converts it to
/// a throughput figure.
#[derive(Clone, Copy, Debug)]
pub struct OpsTimer {
    start: Instant,
}

impl Default for OpsTimer {
    fn default() -> Self {
        Self::start()
    }
}

impl OpsTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock time since the timer started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the timer (conceptually) and returns operations per second for
    /// `ops` operations completed since `start`.
    pub fn ops_per_second(&self, ops: u64) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            ops as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn ops_timer_measures_positive_throughput() {
        let timer = OpsTimer::start();
        sleep(Duration::from_millis(5));
        let tput = timer.ops_per_second(1_000);
        assert!(tput.is_finite());
        assert!(tput > 0.0);
        // 1000 ops over >= 5 ms is at most 200k ops/s.
        assert!(tput <= 300_000.0, "throughput {tput} is implausibly high");
    }
}
