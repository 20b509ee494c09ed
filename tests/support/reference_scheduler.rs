//! The scheduler `simcore` shipped before its liveness moved into a slab:
//! a `BinaryHeap` on `(time, seq)` plus a `live` and a `cancelled`
//! `HashSet<u64>`, copied verbatim (only the `use` lines differ). Every
//! digest and golden file in the repo was produced on top of this pop
//! order, so it is the oracle `tests/kernel_oracle.rs` holds the product
//! scheduler to. Test-only: nothing outside `tests/` includes this file.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use simcore::{SimDuration, SimTime};

/// Handle to a scheduled event, used to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// The scheduler tracks `now`: popping an event advances the clock to that
/// event's timestamp. Scheduling into the past is a logic error and panics.
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Tombstones for cancelled entries still sitting in the heap; drained
    /// lazily by `skip_cancelled`, so never larger than the heap.
    cancelled: HashSet<u64>,
    /// Sequence numbers currently pending (in the heap, not cancelled).
    /// An id is live iff it is here, which makes `cancel` exact without
    /// remembering every event ever delivered.
    live: HashSet<u64>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Clone for Scheduler<E> {
    fn clone(&self) -> Self {
        Scheduler {
            heap: self.heap.clone(),
            cancelled: self.cancelled.clone(),
            live: self.live.clone(),
            now: self.now,
            next_seq: self.next_seq,
            popped: self.popped,
        }
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            live: HashSet::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Size of the internal bookkeeping sets (live ids + tombstones).
    ///
    /// Exposed for memory-regression tests: this stays O(pending) no
    /// matter how many events have ever been scheduled or delivered.
    pub fn bookkeeping_len(&self) -> usize {
        self.live.len() + self.cancelled.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total number of events ever delivered by [`pop`](Self::pop).
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.live.insert(seq);
        EventId(seq)
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // An id is pending iff it is in the live set; delivered, cancelled,
        // and never-issued ids all fail the removal below. The entry itself
        // stays in the heap as a tombstone and is skipped lazily at pop.
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Timestamp of the next live event, if any, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        self.live.remove(&entry.seq);
        Some((entry.at, entry.event))
    }

    /// Pop the next live event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Advance the clock to `at` without delivering anything.
    ///
    /// # Panics
    /// If a live event is pending before `at` (that would silently reorder
    /// time), or if `at` is in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "advance_to into the past");
        if let Some(t) = self.peek_time() {
            assert!(
                t >= at,
                "advance_to({at}) would skip a pending event at {t}"
            );
        }
        self.now = at;
    }

    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Snapshot of the live (non-cancelled) pending entries in
    /// deterministic `(time, seq)` delivery order.
    ///
    /// Used by state digests: two schedulers that would deliver the same
    /// events in the same order at the same times — regardless of heap
    /// internals or tombstone residue — produce identical listings.
    pub fn pending_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .filter(|e| self.live.contains(&e.seq))
            .map(|e| (e.at, e.seq, &e.event))
            .collect();
        out.sort_by_key(|(at, seq, _)| (*at, *seq));
        out
    }

    /// Release excess capacity held by the internal collections.
    ///
    /// Bookkeeping is already bounded by the number of pending events, so
    /// this only returns allocator space after a burst; behaviour is
    /// completely unaffected. Kept for API compatibility.
    pub fn compact(&mut self) {
        self.heap.shrink_to_fit();
        self.live.shrink_to_fit();
        self.cancelled.shrink_to_fit();
    }
}
