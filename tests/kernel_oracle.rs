//! `simcore::Scheduler` against the scheduler it replaced.
//!
//! Every controller digest, golden file and benchmark digest in this repo
//! is downstream of the kernel's `(time, seq)` pop order and of the `seq`
//! numbers `pending_entries` lists. The slab-backed scheduler must
//! therefore be indistinguishable from the hash-set one through the whole
//! public API, on any interleaving of calls — which is what this file
//! drives, with the old implementation kept verbatim under
//! `tests/support/` as the oracle.
//!
//! Tier-1 runs 64 random cases of up to 400 operations and checks every
//! observable after every operation; CI additionally runs the `#[ignore]`d
//! million-operation soak in release
//! (`cargo test --release --test kernel_oracle -- --ignored`).

// Verbatim copy of the old API: not every method of it is driven here.
#[allow(dead_code)]
#[path = "support/reference_scheduler.rs"]
mod reference;

use proptest::prelude::*;
use simcore::{EventId, Scheduler, SimDuration, SimTime};

/// Operation kinds `step` understands; a random `u8` is reduced modulo this.
const KINDS: u8 = 14;

/// Donor events kept pending, so that its ids point both inside and
/// beyond the subject's slab.
const DONOR_DEPTH: usize = 64;

/// The two schedulers driven in lock step.
struct Lockstep {
    new: Scheduler<u32>,
    old: reference::Scheduler<u32>,
    /// Every id issued so far, by both, in issue order: live, fired and
    /// cancelled ones alike.
    ids: Vec<(EventId, reference::EventId)>,
    /// A second pair that has always issued more events than the pair under
    /// test, so its newest ids carry a `seq` the subject never handed out.
    donor_new: Scheduler<u32>,
    donor_old: reference::Scheduler<u32>,
}

impl Lockstep {
    fn new() -> Lockstep {
        Lockstep {
            new: Scheduler::new(),
            old: reference::Scheduler::new(),
            ids: Vec::new(),
            donor_new: Scheduler::new(),
            donor_old: reference::Scheduler::new(),
        }
    }

    /// A payload no earlier event carries: the count of events issued.
    fn payload(&self) -> u32 {
        self.ids.len() as u32
    }

    fn schedule_at(&mut self, at: SimTime, ev: u32) -> (EventId, reference::EventId) {
        let id = (self.new.schedule_at(at, ev), self.old.schedule_at(at, ev));
        self.ids.push(id);
        id
    }

    /// An id neither scheduler under test has issued (yet).
    fn never_issued(&mut self) -> (EventId, reference::EventId) {
        loop {
            let at = self.donor_new.now();
            let id = (
                self.donor_new.schedule_at(at, 0),
                self.donor_old.schedule_at(at, 0),
            );
            if self.donor_new.pending() > DONOR_DEPTH {
                self.donor_new.pop();
                self.donor_old.pop();
            }
            // `seq` numbering starts at 0 on both sides, so the donor's
            // issue count minus one is the `seq` of `id`.
            let donor_issued = self.donor_new.events_delivered() + self.donor_new.pending() as u64;
            if donor_issued > self.ids.len() as u64 {
                return id;
            }
        }
    }

    /// Apply one operation to both schedulers and compare what it returned.
    /// Offsets are a few nanoseconds, so equal timestamps are common.
    fn step(&mut self, kind: u8, arg: u64) {
        let offset = SimDuration::from_nanos(arg % 8);
        match kind % KINDS {
            0..=2 => {
                let (at, ev) = (self.new.now() + offset, self.payload());
                self.schedule_at(at, ev);
            }
            3 => {
                let ev = self.payload();
                self.ids.push((
                    self.new.schedule_after(offset, ev),
                    self.old.schedule_after(offset, ev),
                ));
            }
            // Cancel any id ever issued: mostly fired ones late in a run.
            4 if !self.ids.is_empty() => {
                let (a, b) = self.ids[arg as usize % self.ids.len()];
                assert_eq!(self.new.cancel(a), self.old.cancel(b));
            }
            // Cancel a recent id: mostly live ones, and, by repetition,
            // already-cancelled ones.
            5 | 6 if !self.ids.is_empty() => {
                let back = arg as usize % self.ids.len().min(16);
                let (a, b) = self.ids[self.ids.len() - 1 - back];
                assert_eq!(self.new.cancel(a), self.old.cancel(b));
            }
            7 => {
                let (a, b) = self.never_issued();
                assert!(!self.old.cancel(b));
                assert!(!self.new.cancel(a));
            }
            8 | 9 => assert_eq!(self.new.pop(), self.old.pop()),
            10 => {
                let deadline = self.new.now() + offset;
                assert_eq!(self.new.pop_until(deadline), self.old.pop_until(deadline));
            }
            11 => assert_eq!(self.new.peek_time(), self.old.peek_time()),
            12 => {
                // As far as the next pending event allows.
                let mut to = self.old.now() + offset;
                if let Some(next) = self.old.peek_time() {
                    to = to.min(next);
                }
                self.new.advance_to(to);
                self.old.advance_to(to);
            }
            13 => {
                // Carry on with clones; the originals' next pops must agree
                // too (a clone shares nothing with its source).
                let (mut new, mut old) = (self.new.clone(), self.old.clone());
                std::mem::swap(&mut new, &mut self.new);
                std::mem::swap(&mut old, &mut self.old);
                for _ in 0..64 {
                    assert_eq!(new.pop(), old.pop());
                }
            }
            // A cancel with nothing issued yet.
            _ => {}
        }
    }

    /// The observables every operation must leave equal.
    fn check_counters(&self) {
        assert_eq!(self.new.now(), self.old.now());
        assert_eq!(self.new.pending(), self.old.pending());
        assert_eq!(self.new.is_empty(), self.old.is_empty());
        assert_eq!(self.new.events_delivered(), self.old.events_delivered());
    }

    /// The digest's view: `(time, seq, payload)` of every pending event.
    fn check_listing(&self) {
        assert_eq!(self.new.pending_entries(), self.old.pending_entries());
    }
}

proptest! {
    /// Any interleaving of the public API, compared after every call.
    #[test]
    fn slab_scheduler_matches_hash_set_scheduler(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        let mut pair = Lockstep::new();
        for (kind, arg) in ops {
            pair.step(kind, arg);
            pair.check_counters();
            pair.check_listing();
        }
        // What is left pops identically to the end.
        while let Some(ev) = pair.old.pop() {
            prop_assert_eq!(pair.new.pop(), Some(ev));
        }
        prop_assert_eq!(pair.new.pop(), None);
    }
}

/// The case the slab adds: a cancelled event's slot goes to the next event
/// scheduled, while the cancelled entry is still in the heap. The stale id
/// must not cancel the new occupant, and the stale heap entry (which sorts
/// first) must not deliver it.
#[test]
fn freed_slot_is_reused_without_aliasing() {
    let mut pair = Lockstep::new();
    let t = SimTime::from_secs;
    let keep = pair.schedule_at(t(9), 1);
    let stale = pair.schedule_at(t(5), 2);
    assert!(pair.new.cancel(stale.0) && pair.old.cancel(stale.1));
    // Takes the slot `stale` just vacated; its tombstone at t=5 is still
    // the heap's head.
    let reuser = pair.schedule_at(t(7), 3);
    assert!(!pair.new.cancel(stale.0) && !pair.old.cancel(stale.1));
    pair.check_counters();
    pair.check_listing();
    assert_eq!(pair.new.pending(), 2);
    assert_eq!(pair.new.peek_time(), Some(t(7)));
    assert_eq!(pair.new.pop(), Some((t(7), 3)));
    assert_eq!(pair.old.pop(), Some((t(7), 3)));
    // Fired: its id is dead, and so is the older one that shared the slot.
    assert!(!pair.new.cancel(reuser.0) && !pair.old.cancel(reuser.1));
    assert!(!pair.new.cancel(stale.0));
    assert!(pair.new.cancel(keep.0) && pair.old.cancel(keep.1));
    pair.check_counters();
    pair.check_listing();
    assert_eq!(pair.new.pop(), None);
    assert_eq!(pair.new.events_delivered(), 1);
}

/// A million random operations in one run: slot reuse, tombstone build-up
/// and heaps two orders of magnitude deeper than 400-operation cases reach.
/// Left alone the mix removes events slightly faster than it adds them, so
/// a nearly empty heap is first filled past 4096 pending events (three
/// operations in four forced to `schedule_at`) and then left to the random
/// mix until it is nearly empty again — the slab fills and drains over and
/// over. Run by CI in release; counters are compared after every
/// operation, the pending listing (O(n log n)) every 1024.
#[test]
#[ignore = "1 M-operation soak; CI runs it in release"]
fn soak_one_million_operations() {
    const SCHEDULE_AT: u8 = 0;
    let mut rng = TestRng::deterministic("kernel_oracle::soak");
    let mut pair = Lockstep::new();
    let mut filling = true;
    for i in 0..1_000_000u32 {
        filling = match pair.new.pending() {
            0..=63 => true,
            64..=4096 => filling,
            _ => false,
        };
        let kind = rng.next_u64() as u8;
        let kind = if filling && kind < 192 {
            SCHEDULE_AT
        } else {
            kind
        };
        pair.step(kind, rng.next_u64());
        pair.check_counters();
        if i.is_multiple_of(1024) {
            pair.check_listing();
        }
    }
    pair.check_listing();
    while let Some(ev) = pair.old.pop() {
        assert_eq!(pair.new.pop(), Some(ev));
    }
    assert_eq!(pair.new.pop(), None);
    pair.check_counters();
}
