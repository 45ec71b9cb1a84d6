//! The seqlock ring behind the flight recorder and the span ring: one slot
//! protocol, held once.
//!
//! A [`SeqRing`] holds `capacity` (a power of two) slots of `W` payload
//! words. Writers claim a *ticket* with one `fetch_add` on the head
//! counter; the ticket selects a slot (`ticket % capacity`) and a per-slot
//! sequence makes the write observable without locks (all plain atomics —
//! the crate forbids `unsafe`):
//!
//! * a slot storing ticket `t`'s payload holds sequence `2t + 2` when
//!   complete and `2t + 1` while being written (`0`: never written);
//! * a writer claims the slot by CAS-ing whatever completed (even)
//!   sequence it currently holds — any *older* lap's, so a dropped ticket
//!   never wedges its slot — to its own in-progress value, issues a
//!   release fence, then stores the payload words, then releases the
//!   completed sequence.
//!
//! When writers wrap the ring faster than a lagging writer finishes, the
//! claim fails and the payload is **dropped, counted** in
//! [`dropped`](SeqRing::dropped): the ring is lock-free and lossy under
//! overwrite pressure, never blocking the hot path. Readers re-check the
//! sequence after reading the payload and skip slots that changed
//! mid-read, so [`read`](SeqRing::read) returns only complete, untorn
//! payloads (the most recent `capacity` of them, in ticket order).
//! `tests/check_recorder.rs` model-checks a hand copy of this protocol
//! under sequentially consistent interleavings only.

use std::sync::atomic::{fence, AtomicU64, Ordering};

#[derive(Debug)]
struct Slot<const W: usize> {
    /// `0` = never written; `2t + 1` = ticket `t` in progress; `2t + 2` =
    /// ticket `t` complete.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-size lock-free ring of `W`-word payloads. See the module docs
/// for the slot protocol and overwrite semantics.
#[derive(Debug)]
pub(crate) struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring holding the most recent `capacity` payloads (rounded up to a
    /// power of two, minimum 8).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring's slot count.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Payloads dropped because a lapped slot was still being written.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total payloads recorded (dropped ones excluded). Loads `dropped`
    /// before `head` (and saturates) so concurrent drops between the two
    /// loads can never make the difference go negative.
    pub(crate) fn recorded(&self) -> u64 {
        let dropped = self.dropped();
        self.head.load(Ordering::Relaxed).saturating_sub(dropped)
    }

    /// Records one payload: ticket, claim, payload, publish.
    pub(crate) fn write(&self, words: [u64; W]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Claim the slot by CAS-ing whatever *completed* sequence it holds —
        // 0 (never written) or `2u + 2` for any older ticket `u < ticket`,
        // not just the immediately previous lap: if an earlier ticket mapped
        // here was dropped, the slot still holds an older lap's sequence and
        // must be skipped over, not wedged forever. Drop only when the slot
        // is mid-write (odd) or a newer ticket already owns it.
        let claimed = loop {
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq % 2 == 1 || seq > 2 * ticket + 1 {
                break false;
            }
            if slot
                .seq
                .compare_exchange_weak(seq, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break true;
            }
        };
        if !claimed {
            // A lagging writer from a previous lap is still writing the slot
            // (or a faster one already lapped us): drop, count, stay
            // lock-free.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Seqlock writer recipe: the claim is only an acquire, so without
        // this fence the relaxed payload stores below may become visible
        // before the odd sequence, and a reader could load new words yet see
        // the old even sequence on both of its loads. The fence pairs with
        // the reader's `fence(Acquire)`: a reader that loads any new word
        // then re-loads the odd sequence and skips the slot. crossbeam's
        // `SeqLock::write` uses the same recipe, as does Boehm, "Can Seqlocks
        // Get Along with Programming Language Memory Models?" (MSPC 2012).
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Every complete, untorn payload currently in the ring with its ticket,
    /// in ticket order.
    pub(crate) fn read(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 || seq1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let words: [u64; W] = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Seqlock reader recipe: the fence orders the relaxed payload
            // loads above before the validating seq re-load, so a torn read
            // cannot pass the check on weakly-ordered hardware.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue; // overwritten while we read: skip the torn slot
            }
            out.push((seq1 / 2 - 1, words));
        }
        out.sort_unstable_by_key(|&(ticket, _)| ticket);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a dropped (or otherwise never-completed) ticket must not
    /// wedge its slot. Skipping a ticket leaves the slot holding an old
    /// lap's sequence; every later writer mapped there must skip over the
    /// stale lap and claim the slot, not drop forever. The flight recorder
    /// and the span ring both write through this ring.
    #[test]
    fn a_skipped_ticket_does_not_wedge_its_slot() {
        let ring = SeqRing::<1>::new(8);
        for i in 0..8u64 {
            ring.write([i]);
        }
        // Simulate a writer that took ticket 8 but never wrote (the shape a
        // CAS-failure drop leaves behind): slot 0 keeps lap 0's sequence.
        ring.head.fetch_add(1, Ordering::Relaxed);
        for i in 9..33u64 {
            ring.write([i]);
        }
        assert_eq!(ring.dropped(), 0, "stale laps are skipped, not dropped");
        let tickets: Vec<u64> = ring.read().iter().map(|&(ticket, _)| ticket).collect();
        assert_eq!(
            tickets,
            (25..33).collect::<Vec<_>>(),
            "slot 0 kept recording"
        );
        assert!(ring.read().iter().all(|&(ticket, [word])| ticket == word));
    }
}
