//! The ring behind the flight recorder and the span ring: the last
//! `capacity` records of one type, behind one mutex.
//!
//! A [`Ring`] hands each record a *ticket* (its 0-based record number) and
//! stores it in slot `ticket % capacity`, so it keeps the most recent
//! `capacity` records and overwrites the oldest. A writer holds the lock
//! for one slot store and a reader for one slot copy, so no record is ever
//! torn or dropped. Nothing else runs under the lock: the panic hook
//! records into the ring on the panicking thread, and a panic while that
//! thread held the lock would deadlock it. Callers decode and format the
//! copied records after the lock is released.

use parking_lot::Mutex;

#[derive(Debug)]
struct Slots<T> {
    /// Grows to `capacity` records, then is overwritten in place: the
    /// record with ticket `t` lives at index `t % capacity`.
    records: Vec<T>,
    /// The next ticket: every record ever written.
    head: u64,
}

/// The last `capacity` records of type `T`, each with its ticket.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    slots: Mutex<Slots<T>>,
    capacity: usize,
}

impl<T: Copy> Ring<T> {
    /// A ring holding the most recent `capacity` records (rounded up to a
    /// power of two, minimum 8).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        Self {
            slots: Mutex::new(Slots {
                records: Vec::with_capacity(capacity),
                head: 0,
            }),
            capacity,
        }
    }

    /// The ring's slot count.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records written, retained or overwritten.
    pub(crate) fn recorded(&self) -> u64 {
        self.slots.lock().head
    }

    /// Stores one record in the next ticket's slot.
    pub(crate) fn write(&self, record: T) {
        let mut slots = self.slots.lock();
        let index = slots.head as usize & (self.capacity - 1);
        if index == slots.records.len() {
            slots.records.push(record);
        } else {
            slots.records[index] = record;
        }
        slots.head += 1;
    }

    /// Every retained record with its ticket, oldest first.
    pub(crate) fn read(&self) -> Vec<(u64, T)> {
        let mut copy = Vec::with_capacity(self.capacity);
        let head = {
            let slots = self.slots.lock();
            copy.extend_from_slice(&slots.records);
            slots.head
        };
        let first = head - copy.len() as u64;
        (first..head)
            .map(|ticket| (ticket, copy[ticket as usize & (self.capacity - 1)]))
            .collect()
    }
}
