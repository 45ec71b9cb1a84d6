//! A deterministic token bucket for rate-based admission control.
//!
//! The service layer meters each named queue's operation rate with one of
//! these: a bucket holds up to `burst` tokens, refills continuously at
//! `rate_per_sec`, and every admitted operation takes one (or more) tokens.
//! When the bucket cannot cover an operation's cost, the operation is
//! *refused* — shed, not queued — which is what keeps an over-budget tenant
//! from degrading its neighbours.
//!
//! Time is **explicit**: every call takes `now_ns`, a monotonic timestamp in
//! nanoseconds supplied by the caller. That keeps the bucket a pure state
//! machine — trivially unit-testable, reproducible in simulation, and free
//! of hidden clock reads on the admission hot path (the server reads its
//! monotonic clock once per request and threads the value through).

/// A continuously-refilling token bucket with explicit time.
///
/// Token amounts are `f64` so fractional refill (e.g. 1500 ops/sec observed
/// every few hundred microseconds) accumulates without rounding loss.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_ns: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate_per_sec` tokens per second with a
    /// ceiling of `burst` tokens. The bucket starts full (a fresh tenant can
    /// immediately use its whole burst).
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are finite and positive.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "refill rate must be finite and positive"
        );
        assert!(
            burst.is_finite() && burst > 0.0,
            "burst capacity must be finite and positive"
        );
        Self {
            capacity: burst,
            refill_per_ns: rate_per_sec / 1e9,
            tokens: burst,
            last_ns: 0,
        }
    }

    /// Advances the refill clock to `now_ns`, crediting elapsed time.
    /// Time moving backwards (or standing still) credits nothing — the
    /// bucket never debits for clock skew.
    pub fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_ns {
            let elapsed = (now_ns - self.last_ns) as f64;
            self.tokens = (self.tokens + elapsed * self.refill_per_ns).min(self.capacity);
            self.last_ns = now_ns;
        }
    }

    /// Attempts to take `cost` tokens at time `now_ns`. Returns whether the
    /// take was admitted; a refused take debits nothing.
    pub fn try_take(&mut self, now_ns: u64, cost: f64) -> bool {
        self.refill(now_ns);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// The tokens that would be available at `now_ns` (non-mutating).
    pub fn available(&self, now_ns: u64) -> f64 {
        let credit = if now_ns > self.last_ns {
            (now_ns - self.last_ns) as f64 * self.refill_per_ns
        } else {
            0.0
        };
        (self.tokens + credit).min(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn starts_full_and_spends_down_to_refusal() {
        let mut b = TokenBucket::new(10.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take(0, 1.0));
        }
        assert!(!b.try_take(0, 1.0), "burst exhausted at t=0");
        // A refused take debits nothing: the balance is still ~0, not < 0.
        assert!(b.available(0) < 1e-9);
    }

    #[test]
    fn refills_at_the_configured_rate_and_saturates_at_burst() {
        let mut b = TokenBucket::new(2.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take(0, 1.0));
        }
        // Half a second at 2 tokens/sec refills one token.
        assert!(!b.try_take(SEC / 4, 1.0));
        assert!(b.try_take(SEC / 2, 1.0));
        // A long idle period cannot overfill past the burst ceiling.
        assert!((b.available(100 * SEC) - 4.0).abs() < 1e-9);
        b.refill(100 * SEC);
        for _ in 0..4 {
            assert!(b.try_take(100 * SEC, 1.0));
        }
        assert!(!b.try_take(100 * SEC, 1.0));
    }

    #[test]
    fn exactly_exhausted_boundary() {
        let mut b = TokenBucket::new(1.0, 4.0);
        assert!(b.try_take(0, 1.0)); // 4 → 3
        assert!(!b.try_take(0, 3.5), "a take above the balance is refused");
        // A take of exactly the balance is admitted: 3 → 0.
        assert!(b.try_take(0, 3.0));
        // Exactly exhausted: a one-token take is refused, but a zero-cost
        // probe still "succeeds".
        assert!(!b.try_take(0, 1.0));
        assert!(b.try_take(0, 0.0), "zero cost against zero tokens");
        assert!(b.available(0) < 1e-9);
    }

    #[test]
    fn refill_across_a_zero_elapsed_tick_credits_nothing() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take(5 * SEC, 2.0), "drain at t");
        // Same-timestamp refills (now == last) are zero-elapsed ticks: no
        // credit, no matter how many times the tick repeats.
        for _ in 0..3 {
            b.refill(5 * SEC);
            assert!(b.available(5 * SEC) < 1e-9);
        }
        assert!(!b.try_take(5 * SEC, 1.0), "still empty at the same t");
        // The first *positive* elapsed tick credits exactly that sliver —
        // 1ms at 1000/s is one token, not one per zero-tick retried above.
        assert!(b.try_take(5 * SEC + 1_000_000, 1.0));
        assert!(!b.try_take(5 * SEC + 1_000_000, 1.0));
    }

    #[test]
    fn monotonic_time_regression_never_debits_or_credits() {
        let mut b = TokenBucket::new(1.0, 4.0);
        assert!(b.try_take(10 * SEC, 1.0)); // 4 → 3 at t=10s
        let balance = b.available(10 * SEC);
        // A sequence of strictly-regressing timestamps: every observation
        // at the original time must see the balance unchanged, and the
        // regressed clock must not move `last_ns` backwards (which would
        // double-credit the same elapsed span on recovery).
        for t in [9 * SEC, 5 * SEC, 0] {
            b.refill(t);
            assert_eq!(b.available(10 * SEC), balance);
        }
        // Recovery: advancing 0.5s past the *high-water* mark credits half
        // a token (rate 1/s) — a backdated `last_ns` would instead credit
        // the whole regressed span and slam into the burst ceiling.
        b.refill(10 * SEC + SEC / 2);
        assert!((b.available(10 * SEC + SEC / 2) - (balance + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn clock_going_backwards_is_benign() {
        let mut b = TokenBucket::new(1.0, 2.0);
        assert!(b.try_take(10 * SEC, 1.0));
        // An earlier timestamp neither credits nor debits.
        let before = b.available(10 * SEC);
        b.refill(5 * SEC);
        assert_eq!(b.available(10 * SEC), before);
        assert!(b.try_take(5 * SEC, 1.0), "remaining token still usable");
    }

    #[test]
    fn fractional_costs_accumulate_exactly() {
        let mut b = TokenBucket::new(1000.0, 1.0);
        // 1 token burst, 0.25 cost: four takes drain it.
        for _ in 0..4 {
            assert!(b.try_take(0, 0.25));
        }
        assert!(!b.try_take(0, 0.25));
        // 1 ms at 1000/sec refills one full token.
        assert!(b.try_take(1_000_000, 1.0));
    }

    #[test]
    #[should_panic(expected = "refill rate must be finite and positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "burst capacity must be finite and positive")]
    fn nan_burst_panics() {
        let _ = TokenBucket::new(1.0, f64::NAN);
    }
}
