//! Model-checks the registry's admission pair (DESIGN.md §8, `choice_registry`'s
//! `admit`): a bounded in-flight window claimed by CAS, then a per-tenant
//! [`rank_stats::TokenBucket`] take.
//!
//! The window half is mirrored (the counter discipline is the protocol); the
//! rate half runs the **real** `TokenBucket` behind an explorer mutex with
//! frozen explicit time, so the checked take arithmetic is the shipped
//! arithmetic. The property, under every explored interleaving: **the window
//! never goes negative and never exceeds its bound** — claims are CAS-guarded
//! (`v < max → v + 1`) and a refusal only returns a unit that was actually
//! claimed.
//!
//! Broken variants seeded deliberately, each failing with a replayable
//! schedule: claiming by blind `fetch_add` with a check-after (the window
//! overshoots between the add and the give-back), and releasing on refusal
//! even when nothing was claimed (the window underflows).

use std::sync::Arc;

use check::sync::{AtomicU64, Mutex, Ordering};
use choice_check as check;
use rank_stats::TokenBucket;

/// Frozen explicit time: every take happens "now", so the bucket never
/// refills and the model stays finite and deterministic.
const NOW: u64 = 0;

/// Which protocol steps the model performs faithfully.
#[derive(Clone, Copy)]
struct Variant {
    /// Claim the in-flight unit with a `v < max → v + 1` CAS loop (the real
    /// registry). `false` is the blind add-then-check bug.
    cas_claim: bool,
    /// On a rate refusal, give back the in-flight unit only if this call
    /// claimed one (the real registry). `false` releases unconditionally.
    release_only_claimed: bool,
}

const FAITHFUL: Variant = Variant {
    cas_claim: true,
    release_only_claimed: true,
};

/// The admission seam: in-flight window + one tenant's token bucket.
struct Gate {
    inflight: AtomicU64,
    max_inflight: u64,
    bucket: Mutex<TokenBucket>,
}

impl Gate {
    fn new(max_inflight: u64, burst: f64) -> Self {
        Self {
            inflight: AtomicU64::new(0),
            max_inflight,
            // Rate is irrelevant at frozen time; any positive value works.
            bucket: Mutex::new(TokenBucket::new(1.0, burst)),
        }
    }

    /// Returns one in-flight unit, asserting it matches a prior claim.
    fn release(&self) {
        let prev = self.inflight.fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "admission window went negative");
    }
}

/// One admission decision, mirroring `choice_registry`'s `admit`:
/// claim the window (inserts only), then charge the bucket; a rate refusal
/// rolls the claim back.
fn admit(gate: &Gate, takes_slot: bool, variant: Variant) -> bool {
    let mut claimed = false;
    if takes_slot {
        if variant.cas_claim {
            loop {
                let v = gate.inflight.load(Ordering::SeqCst);
                if v >= gate.max_inflight {
                    return false;
                }
                if gate
                    .inflight
                    .compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    break;
                }
            }
        } else {
            // Broken: the window transiently exceeds its bound between the
            // add and the give-back.
            let prev = gate.inflight.fetch_add(1, Ordering::SeqCst);
            if prev >= gate.max_inflight {
                gate.inflight.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
        }
        claimed = true;
    }
    let admitted = gate.bucket.lock().try_take(NOW, 1.0);
    if !admitted && (claimed || !variant.release_only_claimed) {
        gate.release();
    }
    admitted
}

// ---------------------------------------------------------------------------
// Property 1: the in-flight window stays within [0, max].
// ---------------------------------------------------------------------------

/// Two inserters race for a window of one while a monitor observes the
/// counter; the bucket is ample so only the window decides.
fn window_bound_model(variant: Variant) {
    let g = Arc::new(Gate::new(1, 16.0));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let g = Arc::clone(&g);
            check::spawn(move || admit(&g, true, variant))
        })
        .collect();
    let gm = Arc::clone(&g);
    let monitor = check::spawn(move || {
        for _ in 0..2 {
            let v = gm.inflight.load(Ordering::SeqCst);
            assert!(
                v <= gm.max_inflight,
                "admission window exceeded its bound: {v} in flight, max {}",
                gm.max_inflight
            );
            check::spin();
        }
    });
    let admitted = threads
        .into_iter()
        .map(|t| t.join())
        .filter(|ok| *ok)
        .count();
    monitor.join();
    assert_eq!(admitted, 1, "exactly one claim fits a window of one");
    assert_eq!(g.inflight.load(Ordering::SeqCst), 1);
}

#[test]
fn cas_claimed_window_never_exceeds_its_bound() {
    // Too many schedule points (CAS retries × bucket lock × monitor) to
    // exhaust; an overshoot needs at most two preemptions, so a
    // preemption-bounded DFS covers the interesting schedules.
    let report = check::explore(
        check::Config {
            preemption_bound: Some(2),
            ..check::Config::dfs(check::schedule_budget(20_000))
        },
        || window_bound_model(FAITHFUL),
    )
    .expect("a guarded CAS claim cannot overshoot the window");
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn blind_add_then_check_overshoots_the_window() {
    let variant = Variant {
        cas_claim: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        window_bound_model(variant)
    })
    .expect_err("fetch_add exposes a transient over-bound window to the monitor");
    assert!(
        failure.message.contains("exceeded its bound"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || window_bound_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}

// ---------------------------------------------------------------------------
// Property 2: a refusal only returns a unit that was claimed.
// ---------------------------------------------------------------------------

/// An insert (claims a unit) and a removal (claims nothing) both hit an
/// empty bucket and are refused; only the insert may roll back.
fn refusal_rollback_model(variant: Variant) {
    let g = Arc::new(Gate::new(2, 2.0));
    // Drain the burst up front so every take below is refused.
    {
        let mut b = g.bucket.lock();
        assert!(b.try_take(NOW, 2.0));
    }
    let gi = Arc::clone(&g);
    let inserter = check::spawn(move || {
        assert!(!admit(&gi, true, variant), "bucket is empty");
    });
    let gr = Arc::clone(&g);
    let remover = check::spawn(move || {
        assert!(!admit(&gr, false, variant), "bucket is empty");
    });
    inserter.join();
    remover.join();
    assert_eq!(
        g.inflight.load(Ordering::SeqCst),
        0,
        "every claim was rolled back, nothing else"
    );
}

#[test]
fn refusal_rolls_back_only_claimed_units() {
    let report = check::explore(check::Config::dfs(100_000), || {
        refusal_rollback_model(FAITHFUL)
    })
    .expect("claim-guarded rollback cannot underflow");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn releasing_an_unclaimed_unit_underflows_the_window() {
    let variant = Variant {
        release_only_claimed: false,
        ..FAITHFUL
    };
    let failure = check::explore(check::Config::dfs(100_000), move || {
        refusal_rollback_model(variant)
    })
    .expect_err("an unconditional rollback returns a unit nobody claimed");
    assert!(
        failure.message.contains("went negative"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || refusal_rollback_model(variant))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(replayed.message, failure.message);
}
