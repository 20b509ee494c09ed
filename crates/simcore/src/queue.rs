//! The event scheduler: a binary-heap future-event list with
//! deterministic ordering and cancellable entries.
//!
//! [`Scheduler`] is deliberately *not* a framework — it is a data structure.
//! The owning simulation pops `(time, event)` pairs and dispatches them
//! itself, which keeps domain state machines in plain Rust with no
//! callbacks, trait objects, or interior mutability (the smoltcp idiom).
//!
//! Two properties matter for reproducibility:
//!
//! 1. Events pop in `(time, seq)` order, where `seq` is a monotonic
//!    sequence number handed out one per [`Scheduler::schedule_at`]
//!    starting at 0 — so equal timestamps pop in the order they were
//!    scheduled. `seq` is also listed by
//!    [`Scheduler::pending_entries`] and so is part of every controller
//!    state digest.
//! 2. Cancellation is lazy: [`Scheduler::cancel`] is O(1), the cancelled
//!    entry stays in the heap as a tombstone and is skipped at pop time,
//!    so pop stays O(log n) amortised.
//!
//! Liveness is a generation-stamped slab, not a set. Each pending event
//! owns one slot of `slots` holding its `seq` as the stamp; the heap
//! entry and the [`EventId`] both carry `(seq, slot)`. An entry or id is
//! live iff `slots[slot] == seq`. Delivery and cancellation vacate the
//! slot and thread it onto the free list (kept inside the vacant slots
//! themselves) for the next `schedule_at`; a `seq` is never issued
//! twice, so a tombstone or a stale id can never match whatever event
//! reuses its slot. No hashing on any path, and the slab is as long as
//! the most events ever pending at once — memory is O(peak pending)
//! however long the simulation runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};
use crate::units::{DataRate, DataSize};

/// Set in the stamp of a slab slot that holds no pending event; the low
/// 32 bits then index the next vacant slot ([`NO_SLOT`] ends the list).
/// No `seq` has this bit: that would take 2^63 `schedule_at` calls.
const VACANT: u64 = 1 << 63;

/// End of the free list.
const NO_SLOT: u32 = u32::MAX;

/// Handle to a scheduled event, used to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
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
#[derive(Clone)]
pub struct Scheduler<E> {
    /// Live entries and the tombstones of cancelled ones, on `(at, seq)`.
    heap: BinaryHeap<Entry<E>>,
    /// `slots[i]` is the `seq` of the pending event that owns slot `i`; a
    /// vacant slot holds [`VACANT`] plus the index of the next vacant one.
    /// A heap entry or an [`EventId`] is live iff its `seq` equals the
    /// stamp of its slot.
    slots: Vec<u64>,
    /// Head of the free list threaded through the vacant slots.
    free_head: u32,
    /// Pending (scheduled, not delivered, not cancelled) events, i.e. the
    /// number of occupied slots.
    live: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
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
        self.live
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
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            // The low half of a vacant stamp is the rest of the free list.
            self.free_head = self.slots[slot as usize] as u32;
            self.slots[slot as usize] = seq;
            slot
        } else {
            assert!(
                self.slots.len() < NO_SLOT as usize,
                "more than u32::MAX events pending at once"
            );
            self.slots.push(seq);
            (self.slots.len() - 1) as u32
        };
        self.live += 1;
        self.heap.push(Entry {
            at,
            seq,
            slot,
            event,
        });
        EventId { seq, slot }
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // An id is pending iff its slot still carries its stamp; delivered
        // and cancelled ids find the slot vacant or restamped, never-issued
        // ones find no such slot or stamp. The entry itself stays in the
        // heap as a tombstone and is skipped lazily at pop.
        match self.slots.get(id.slot as usize) {
            Some(&stamp) if stamp == id.seq => {
                self.vacate(id.slot);
                true
            }
            _ => false,
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
        self.vacate(entry.slot);
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

    fn is_live(&self, entry: &Entry<E>) -> bool {
        self.slots[entry.slot as usize] == entry.seq
    }

    /// Release the slot of an event that was just delivered or cancelled.
    fn vacate(&mut self, slot: u32) {
        self.slots[slot as usize] = VACANT | u64::from(self.free_head);
        self.free_head = slot;
        self.live -= 1;
    }

    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.is_live(top) {
                break;
            }
            self.heap.pop();
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
            .filter(|e| self.is_live(e))
            .map(|e| (e.at, e.seq, &e.event))
            .collect();
        out.sort_by_key(|(at, seq, _)| (*at, *seq));
        out
    }
}

/// A fluid single-server bottleneck queue with exact integer arithmetic.
///
/// The measurement plane (`griphon::measure`) models a shared path as one
/// FIFO bottleneck of fixed `capacity` fed by piecewise-constant cross
/// traffic. Between rate breakpoints the fluid evolution is linear, so
/// the queue can be advanced one constant-rate segment at a time with a
/// single integer update — no per-packet events, and bit-identical
/// results regardless of how a segment is subdivided at the same
/// breakpoints.
///
/// All arithmetic goes through [`DataRate::over`] (truncating bits per
/// segment), which *defines* the model: two simulations advancing through
/// the same segment boundaries compute the same backlog, which is what
/// the determinism gates assert.
#[derive(Clone, Debug)]
pub struct FluidQueue {
    capacity: DataRate,
    backlog: DataSize,
}

impl FluidQueue {
    /// An empty queue served at `capacity`.
    ///
    /// # Panics
    /// If `capacity` is zero (the queue would never drain).
    pub fn new(capacity: DataRate) -> FluidQueue {
        assert!(capacity > DataRate::ZERO, "FluidQueue with zero capacity");
        FluidQueue {
            capacity,
            backlog: DataSize::ZERO,
        }
    }

    /// Advance the queue `dt` under constant fluid `inflow`.
    ///
    /// The fluid backlog obeys `W' = inflow − capacity` clamped at zero:
    /// over a constant-rate segment the closed form is
    /// `max(W + (inflow − capacity)·dt, 0)`, computed here in integer
    /// bits. Callers must split at every cross-traffic breakpoint so each
    /// call really is constant-rate.
    pub fn advance(&mut self, dt: SimDuration, inflow: DataRate) {
        self.backlog = (self.backlog + inflow.over(dt)).saturating_sub(self.capacity.over(dt));
    }

    /// Enqueue a discrete burst (e.g. one probe packet) instantaneously.
    pub fn push(&mut self, size: DataSize) {
        self.backlog += size;
    }

    /// Time until the current backlog drains at `capacity` — the queueing
    /// delay a bit arriving now would see.
    pub fn delay(&self) -> SimDuration {
        self.backlog.time_at(self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), "c");
        s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_secs(3));
        assert_eq!(s.events_delivered(), 3);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), "first");
        s.pop().unwrap();
        s.schedule_after(SimDuration::from_secs(2), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        s.pop();
        s.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(2), "b");
        assert!(s.cancel(a));
        assert_eq!(s.pending(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), "a");
        s.pop().unwrap();
        assert!(!s.cancel(a));
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), "a");
        assert!(s.cancel(a));
        assert!(!s.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(!s.cancel(EventId {
            seq: 999,
            slot: 999
        }));
        // An existing slot, but a stamp it never carried.
        s.schedule_at(SimTime::from_secs(1), ());
        assert!(!s.cancel(EventId { seq: 999, slot: 0 }));
        assert_eq!(s.pending(), 1);
    }

    /// A freed slot is handed to the next event under a new stamp: neither
    /// the old id nor the old heap entry may reach the new occupant.
    #[test]
    fn reused_slot_ignores_stale_id_and_tombstone() {
        let mut s = Scheduler::new();
        let old = s.schedule_at(SimTime::from_secs(5), "old");
        assert!(s.cancel(old));
        let new = s.schedule_at(SimTime::from_secs(9), "new");
        assert_eq!(new.slot, old.slot, "the vacated slot is reused");
        assert_ne!(new.seq, old.seq);
        assert!(!s.cancel(old), "a stale id must not cancel the new event");
        // The tombstone at t=5 sorts first and must be skipped, not
        // delivered as the slot's new occupant.
        assert_eq!(s.pop(), Some((SimTime::from_secs(9), "new")));
        assert!(s.pop().is_none());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(5), "b");
        assert_eq!(s.pop_until(SimTime::from_secs(3)).unwrap().1, "a");
        assert!(s.pop_until(SimTime::from_secs(3)).is_none());
        assert_eq!(s.pop_until(SimTime::from_secs(5)).unwrap().1, "b");
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_secs(10));
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), ());
        s.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(2), "b");
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn pending_entries_sorted_and_skips_cancelled() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), "c");
        let b = s.schedule_at(SimTime::from_secs(2), "b");
        s.schedule_at(SimTime::from_secs(1), "a");
        s.cancel(b);
        let listed: Vec<(SimTime, &str)> = s
            .pending_entries()
            .into_iter()
            .map(|(at, _, e)| (at, *e))
            .collect();
        assert_eq!(
            listed,
            vec![(SimTime::from_secs(1), "a"), (SimTime::from_secs(3), "c")]
        );
    }

    #[test]
    fn clone_preserves_delivery_order_and_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), "a");
        let b = s.schedule_at(SimTime::from_secs(2), "b");
        s.schedule_at(SimTime::from_secs(2), "c");
        s.cancel(b);
        let mut t = s.clone();
        let from_s: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        let from_t: Vec<&str> = std::iter::from_fn(|| t.pop().map(|(_, e)| e)).collect();
        assert_eq!(from_s, from_t);
        assert_eq!(s.now(), t.now());
    }

    /// Bookkeeping must stay O(peak pending) over an arbitrarily long run:
    /// a million schedule/pop/cancel cycles with at most one event pending
    /// may leave neither heap entries nor more than one slab slot behind.
    #[test]
    fn bookkeeping_bounded_after_long_churn() {
        let mut s = Scheduler::new();
        let mut cancelled_ok = 0u64;
        for i in 0..1_000_000u64 {
            let id = s.schedule_at(SimTime::from_secs(i + 1), i);
            if i % 3 == 0 {
                // Cancel before delivery: tombstone drains at the next pop.
                assert!(s.cancel(id));
                cancelled_ok += 1;
            } else {
                let (_, ev) = s.pop().expect("live event pending");
                assert_eq!(ev, i);
                // Cancelling after the fact must fail and leave no residue.
                assert!(!s.cancel(id));
            }
        }
        while s.pop().is_some() {}
        assert_eq!(cancelled_ok, 333_334);
        assert_eq!(s.pending(), 0);
        assert!(s.heap.is_empty(), "{} tombstones left", s.heap.len());
        assert_eq!(s.slots.len(), 1, "one event pending at a time is one slot");
    }

    #[test]
    fn fluid_queue_underload_stays_empty() {
        let mut q = FluidQueue::new(DataRate::from_gbps(10));
        q.advance(SimDuration::from_secs(5), DataRate::from_gbps(4));
        assert!(q.backlog.is_zero());
        assert_eq!(q.delay(), SimDuration::ZERO);
    }

    #[test]
    fn fluid_queue_overload_accumulates_exactly() {
        let mut q = FluidQueue::new(DataRate::from_gbps(10));
        // 12G into a 10G server for 3 s: 6 Gbit of backlog.
        q.advance(SimDuration::from_secs(3), DataRate::from_gbps(12));
        assert_eq!(q.backlog, DataSize::from_bits(6_000_000_000));
        // Drains at 10G: 600 ms of delay.
        assert_eq!(q.delay(), SimDuration::from_millis(600));
        // 2 s of silence drains 20 Gbit worth — clamps at zero.
        q.advance(SimDuration::from_secs(2), DataRate::ZERO);
        assert!(q.backlog.is_zero());
    }

    #[test]
    fn fluid_queue_split_segments_match_whole() {
        // Subdividing a constant-rate segment must not change the result.
        let mut whole = FluidQueue::new(DataRate::from_gbps(10));
        whole.push(DataSize::from_bytes(9000));
        whole.advance(
            SimDuration::from_nanos(123_456_789),
            DataRate::from_mbps(12_300),
        );

        let mut split = FluidQueue::new(DataRate::from_gbps(10));
        split.push(DataSize::from_bytes(9000));
        split.advance(
            SimDuration::from_nanos(100_000_000),
            DataRate::from_mbps(12_300),
        );
        split.advance(
            SimDuration::from_nanos(23_456_789),
            DataRate::from_mbps(12_300),
        );
        assert_eq!(whole.backlog, split.backlog);
        assert!(!whole.backlog.is_zero());
    }

    #[test]
    fn fluid_queue_push_adds_delay() {
        let mut q = FluidQueue::new(DataRate::from_gbps(1));
        q.push(DataSize::from_bits(1_000_000));
        assert_eq!(q.delay(), SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn fluid_queue_zero_capacity_panics() {
        let _ = FluidQueue::new(DataRate::ZERO);
    }
}
