//! Model-checks an SC hand copy of the seqlock slot protocol of
//! `choice_obs`'s `SeqRing` (`crates/obs/src/ring.rs`, DESIGN.md §11.3),
//! the one ring both the `FlightRecorder` and the `SpanRing` write through.
//! Every access in the copy is `SeqCst` and the explorer runs only
//! sequentially consistent interleavings, so the copy checks the protocol's
//! order of steps, not the release and acquire fences `SeqRing` issues for
//! weakly ordered hardware.
//!
//! The model mirrors `SeqRing::write` and `SeqRing::read`: writers take a
//! ticket from a monotone head counter, claim the slot by CAS-ing any
//! *completed* (even) sequence to the odd in-progress value `2·ticket+1`,
//! write the payload words, then publish `2·ticket+2`; readers accept a
//! snapshot only when the sequence was even before the payload reads
//! **and unchanged after them**. The
//! payload carries a checkable invariant (`word2 = word0 + word1`), so a
//! torn snapshot — half old record, half new — is detectable in one
//! assert. Three variants run under every interleaving:
//!
//! * **faithful** — no reader ever accepts a torn snapshot (exhaustively
//!   checked);
//! * **publish-before-payload** — the writer publishes the even sequence
//!   before writing the words: some interleaving hands the reader a torn
//!   snapshot even though it revalidates;
//! * **skip-revalidation** — the writer is correct but the reader omits
//!   the second sequence read: a lapping writer tears the snapshot
//!   mid-read.
//!
//! Each broken variant's failing schedule replays deterministically, and
//! one is pinned as a schedule string so a regression in the explorer or
//! the protocol reproduces from this file alone. Every exploration runs
//! under `check::schedule_budget(200_000)`, so `CHECK_SCHEDULES` deepens
//! it.

use std::sync::Arc;

use check::sync::{AtomicU64, Ordering};
use choice_check as check;

/// Which protocol steps the model performs faithfully.
#[derive(Clone, Copy)]
struct Variant {
    /// Write the payload words *before* publishing the even sequence (the
    /// real protocol); `false` is the publish-first bug.
    payload_before_publish: bool,
    /// Re-read the sequence after the payload loads and discard the
    /// snapshot on a mismatch (the real protocol); `false` is the
    /// torn-read bug.
    revalidate: bool,
}

const FAITHFUL: Variant = Variant {
    payload_before_publish: true,
    revalidate: true,
};

/// One seqlock slot plus the ring's head ticket counter, reduced to a
/// single slot (capacity 1) so every second record *laps* it — the case
/// all the ordering rules exist for.
struct Slot {
    head: AtomicU64,
    seq: AtomicU64,
    words: [AtomicU64; 3],
}

impl Slot {
    fn new() -> Self {
        Self {
            head: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The writer protocol: ticket, claim, payload, publish. The payload
    /// keeps the invariant `words[2] = a + b`.
    fn record(&self, a: u64, b: u64, variant: Variant) {
        let ticket = self.head.fetch_add(1, Ordering::SeqCst);
        let claimed = loop {
            let seq = self.seq.load(Ordering::SeqCst);
            if seq % 2 == 1 || seq > 2 * ticket + 1 {
                break false; // mid-write elsewhere, or a faster lap won
            }
            if self
                .seq
                .compare_exchange(seq, 2 * ticket + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break true;
            }
        };
        if !claimed {
            return; // lossy by design: drop, never block
        }
        let payload = |slot: &Self| {
            slot.words[0].store(a, Ordering::SeqCst);
            slot.words[1].store(b, Ordering::SeqCst);
            slot.words[2].store(a + b, Ordering::SeqCst);
        };
        if variant.payload_before_publish {
            payload(self);
            self.seq.store(2 * ticket + 2, Ordering::SeqCst);
        } else {
            // The bug: the slot reads as complete while the words are
            // still (partly) the previous record's.
            self.seq.store(2 * ticket + 2, Ordering::SeqCst);
            payload(self);
        }
    }

    /// The reader protocol: `None` is always safe (slot empty, mid-write,
    /// or overwritten during the read); `Some` must be an untorn record.
    fn read(&self, variant: Variant) -> Option<[u64; 3]> {
        let seq1 = self.seq.load(Ordering::SeqCst);
        if seq1 < 2 || seq1 % 2 == 1 {
            return None; // never written, or write in progress
        }
        let snapshot = [
            self.words[0].load(Ordering::SeqCst),
            self.words[1].load(Ordering::SeqCst),
            self.words[2].load(Ordering::SeqCst),
        ];
        if variant.revalidate && self.seq.load(Ordering::SeqCst) != seq1 {
            return None; // overwritten while we read: torn, discard
        }
        Some(snapshot)
    }
}

/// One completed record in the slot, a writer lapping it, and a reader
/// racing both: any accepted snapshot must satisfy the payload invariant.
fn lapped_reader_model(variant: Variant) {
    let slot = Arc::new(Slot::new());
    // Ticket 0 completes before the race: the slot holds (1, 2, 3).
    slot.record(1, 2, FAITHFUL);
    let sw = Arc::clone(&slot);
    let writer = check::spawn(move || sw.record(5, 6, variant));
    let sr = Arc::clone(&slot);
    let reader = check::spawn(move || {
        if let Some([a, b, c]) = sr.read(variant) {
            assert!(
                a + b == c,
                "torn slot snapshot: [{a}, {b}, {c}] was never recorded"
            );
        }
    });
    writer.join();
    reader.join();
    // Quiescent state: the lap always completes and must itself be untorn.
    assert_eq!(
        slot.read(FAITHFUL),
        Some([5, 6, 11]),
        "the lapping record must be fully visible after both threads join"
    );
}

#[test]
fn faithful_seqlock_never_surfaces_a_torn_snapshot() {
    let report = check::explore(check::Config::dfs(check::schedule_budget(200_000)), || {
        lapped_reader_model(FAITHFUL)
    })
    .expect("claim/payload/publish with a revalidating reader cannot tear");
    assert!(report.exhausted, "model small enough to exhaust");
}

#[test]
fn publishing_before_the_payload_tears_even_a_revalidating_reader() {
    let variant = Variant {
        payload_before_publish: false,
        ..FAITHFUL
    };
    let failure = check::explore(
        check::Config::dfs(check::schedule_budget(200_000)),
        move || lapped_reader_model(variant),
    )
    .expect_err("an even sequence over half-written words must be observable");
    assert!(
        failure.message.contains("torn slot snapshot"),
        "unexpected failure: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    // The printed schedule reproduces the identical failure, twice.
    for _ in 0..2 {
        let replayed = check::replay(&failure.schedule, move || lapped_reader_model(variant))
            .expect_err("failing schedule must replay deterministically");
        assert_eq!(replayed.message, failure.message);
    }
}

#[test]
fn skipping_the_reread_accepts_a_lapped_torn_snapshot() {
    let variant = Variant {
        revalidate: false,
        ..FAITHFUL
    };
    let failure = check::explore(
        check::Config::dfs(check::schedule_budget(200_000)),
        move || lapped_reader_model(variant),
    )
    .expect_err("without the second sequence read a lapping writer tears the snapshot");
    assert!(
        failure.message.contains("torn slot snapshot"),
        "unexpected failure: {failure}"
    );
    let replayed = check::replay(&failure.schedule, move || lapped_reader_model(variant))
        .expect_err("failing schedule must replay");
    assert_eq!(replayed.message, failure.message);
}

// ---------------------------------------------------------------------------
// Pinned replay regression (schedule string captured from the DFS run
// above; regenerate by printing `failure.schedule` if the model changes).
// ---------------------------------------------------------------------------

/// Replays the recorded torn-snapshot schedule for the publish-first bug.
#[test]
fn pinned_schedule_replays_the_publish_first_bug() {
    let variant = Variant {
        payload_before_publish: false,
        ..FAITHFUL
    };
    let failure = check::explore(
        check::Config::dfs(check::schedule_budget(200_000)),
        move || lapped_reader_model(variant),
    )
    .expect_err("exploration finds the bug");
    assert_eq!(
        failure.schedule, PINNED_PUBLISH_FIRST,
        "DFS is deterministic: first failing schedule is stable; \
         update the pinned constant if the model legitimately changed"
    );
    let replayed = check::replay(PINNED_PUBLISH_FIRST, move || lapped_reader_model(variant))
        .expect_err("pinned schedule still fails");
    assert!(replayed.message.contains("torn slot snapshot"));
}

/// First failing DFS schedule for
/// `publishing_before_the_payload_tears_even_a_revalidating_reader`.
const PINNED_PUBLISH_FIRST: &str = "0,0,0,0,0,0,0,0,0,0,1,1,1,1,1,1,1,2,2,2,2,2,1,0,2";
