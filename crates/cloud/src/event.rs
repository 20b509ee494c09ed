//! Exact bulk advancement for FIFO transfer queues.
//!
//! The event-driven engine in [`crate::scheduler`] never simulates a tick
//! it can predict: between two decision points it knows the service rate
//! is constant, so the whole stretch can be replayed analytically. The
//! subtlety is that "analytically" must mean *bit-identically* to the
//! tick engine, whose arithmetic quantizes per tick:
//!
//! - each full tick moves exactly `rate.over(tick)` bits (integer
//!   truncation in [`DataRate::over`]), and
//! - a transfer finishing mid-tick hands the remainder of that tick to
//!   its FIFO successor, with the completion instant computed by
//!   [`simcore::DataSize::time_at`].
//!
//! [`FifoQueue::advance_ticks`] therefore skips the ticks in which the
//! head job cannot finish with one integer division (they all move the
//! same `rate.over(tick)` bits) and replays the tick containing each
//! completion through the exact per-tick code path. Cost is
//! O(completions + 1) per constant-rate segment instead of O(ticks).

use simcore::{DataRate, DataSize, SimDuration, SimTime};

use crate::transfer::Transfer;
use crate::workload::BulkJob;

/// Snap `at` (an absolute instant) up to the tick grid anchored at
/// `start`: the first grid point at or after `at`.
pub(crate) fn grid_ceil(start: SimTime, at: SimTime, tick: SimDuration) -> SimTime {
    start + tick * at.since(start).div_ceil(tick)
}

/// A pair's FIFO transfer queue as one decision tick drives it: the
/// event engines' [`FifoQueue`] and the tick oracles' `PairRun` in
/// [`crate::scheduler`].
pub(crate) trait Queue {
    /// Admit jobs created at or before `now` (relative time).
    fn admit(&mut self, now: SimTime);
    /// Give the full `rate` to the FIFO head for `dt`, handing the rest
    /// of the window to its successor when the head finishes inside it.
    fn advance_window(&mut self, now: SimTime, dt: SimDuration, rate: DataRate);
    /// Bits queued but unfinished.
    fn backlog(&self) -> DataSize;
    /// The unfinished transfers, oldest first.
    fn unfinished(&self) -> impl Iterator<Item = &Transfer>;
    /// Every job admitted and finished.
    fn all_done(&self) -> bool;
    /// Every admitted transfer, in admission order.
    fn transfers(&self) -> &[Transfer];
}

/// FIFO transfer queue with an exact fast-forward operation.
///
/// Mirrors the tick engine's `PairRun` (sorted arrivals, head-of-line
/// service) but keeps an O(1) head cursor and an incrementally-maintained
/// integer backlog instead of rescanning the transfer list every tick.
/// Completed transfers form a contiguous prefix because only the head
/// ever receives bandwidth.
pub(crate) struct FifoQueue {
    pending: Vec<BulkJob>,
    transfers: Vec<Transfer>,
    next_arrival: usize,
    head: usize,
    backlog: DataSize,
}

impl FifoQueue {
    pub(crate) fn new(mut jobs: Vec<BulkJob>) -> FifoQueue {
        jobs.sort_by_key(|j| (j.created, j.id));
        FifoQueue {
            pending: jobs,
            transfers: Vec::new(),
            next_arrival: 0,
            head: 0,
            backlog: DataSize::ZERO,
        }
    }

    /// Creation time of the next not-yet-admitted job.
    pub(crate) fn next_arrival_time(&self) -> Option<SimTime> {
        self.pending.get(self.next_arrival).map(|j| j.created)
    }

    /// True when at least one admitted transfer is unfinished.
    pub(crate) fn has_work(&self) -> bool {
        self.head < self.transfers.len()
    }

    /// Fast-forward `n` ticks of constant `rate` starting at `seg_start`
    /// (the time of the first tick), replaying completions exactly.
    ///
    /// Returns the 0-based index of the tick during which the queue
    /// drained (head caught up with the admitted transfers), or `None`
    /// if work remains (or none was pending) after all `n` ticks.
    pub(crate) fn advance_ticks(
        &mut self,
        seg_start: SimTime,
        n: u64,
        tick: SimDuration,
        rate: DataRate,
    ) -> Option<u64> {
        if rate == DataRate::ZERO {
            return None;
        }
        let per_tick = rate.over(tick);
        if per_tick.is_zero() {
            // Degenerate: the quantized tick moves nothing, ever.
            return None;
        }
        let mut i = 0u64;
        while i < n {
            let head = self.transfers.get(self.head)?;
            let remaining = head.remaining;
            if per_tick < remaining {
                // The head survives s more whole ticks: every one of them
                // subtracts exactly `per_tick` bits, so do it in one step.
                let s = (remaining.bits() - 1) / per_tick.bits();
                let skip = s.min(n - i);
                if skip > 0 {
                    // skip ≤ s ⇒ skip·per_tick < remaining: no overflow,
                    // no completion.
                    let moved = DataSize::from_bits(per_tick.bits() * skip);
                    self.transfers[self.head].remaining = remaining - moved;
                    self.backlog -= moved;
                    i += skip;
                }
                if i == n {
                    return None;
                }
            }
            // The head finishes during tick `i`: replay it through the
            // exact per-tick path (mid-tick hand-off included).
            self.advance_window(seg_start + tick * i, tick, rate);
            if !self.has_work() {
                return Some(i);
            }
            i += 1;
        }
        None
    }
}

impl Queue for FifoQueue {
    fn admit(&mut self, now: SimTime) {
        while self.next_arrival < self.pending.len()
            && self.pending[self.next_arrival].created <= now
        {
            let job = self.pending[self.next_arrival].clone();
            self.backlog += job.size;
            self.transfers.push(Transfer::new(job));
            self.next_arrival += 1;
        }
    }

    /// Splits across completions exactly like the tick engine does
    /// within one tick.
    fn advance_window(&mut self, now: SimTime, dt: SimDuration, rate: DataRate) {
        let mut t = now;
        let end = now + dt;
        while t < end {
            let Some(head) = self.transfers.get_mut(self.head) else {
                return;
            };
            let window = end.since(t);
            let before = head.remaining;
            head.advance(t, window, rate);
            self.backlog -= before - head.remaining;
            match head.completed {
                Some(done_at) if done_at < end => {
                    self.head += 1;
                    t = done_at; // remainder of the tick goes to the next job
                }
                _ => {
                    if head.is_done() {
                        self.head += 1;
                    }
                    return;
                }
            }
        }
    }

    /// Maintained incrementally; integer arithmetic, so identical to the
    /// tick engine's per-tick rescan.
    fn backlog(&self) -> DataSize {
        self.backlog
    }

    fn unfinished(&self) -> impl Iterator<Item = &Transfer> {
        self.transfers[self.head..].iter()
    }

    fn all_done(&self) -> bool {
        self.next_arrival == self.pending.len() && !self.has_work()
    }

    fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DataCenterId;
    use crate::workload::JobId;

    fn job(id: u32, gb: u64, created_s: u64) -> BulkJob {
        BulkJob {
            id: JobId::new(id),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_gigabytes(gb),
            created: SimTime::from_secs(created_s),
            deadline: None,
        }
    }

    /// Reference: the tick engine's inner loop, verbatim.
    fn tick_reference(
        jobs: Vec<BulkJob>,
        ticks: u64,
        tick: SimDuration,
        rate: DataRate,
    ) -> Vec<Transfer> {
        let mut q = FifoQueue::new(jobs);
        let mut t = SimTime::ZERO;
        q.admit(t);
        for _ in 0..ticks {
            q.advance_window(t, tick, rate);
            t += tick;
        }
        q.transfers
    }

    #[test]
    fn bulk_advance_matches_per_tick_advance() {
        let tick = SimDuration::from_secs(7);
        let rate = DataRate::from_mbps(933);
        let jobs = vec![job(0, 10, 0), job(1, 3, 0), job(2, 17, 0), job(3, 1, 0)];
        let reference = tick_reference(jobs.clone(), 500, tick, rate);

        let mut q = FifoQueue::new(jobs);
        q.admit(SimTime::ZERO);
        q.advance_ticks(SimTime::ZERO, 500, tick, rate);
        assert_eq!(q.transfers.len(), reference.len());
        for (a, b) in q.transfers.iter().zip(reference.iter()) {
            assert_eq!(a.remaining, b.remaining);
            assert_eq!(a.completed, b.completed);
        }
    }

    #[test]
    fn drain_tick_index_is_exact() {
        let tick = SimDuration::from_secs(10);
        let rate = DataRate::from_gbps(1);
        // 3 GB = 24 Gbit at 10 Gbit per tick → completes during tick 2
        // (0-based).
        let mut q = FifoQueue::new(vec![job(0, 3, 0)]);
        q.admit(SimTime::ZERO);
        assert_eq!(q.advance_ticks(SimTime::ZERO, 100, tick, rate), Some(2));
        assert!(q.all_done());
        assert!(q.backlog().is_zero());
    }

    #[test]
    fn zero_rate_moves_nothing() {
        let mut q = FifoQueue::new(vec![job(0, 5, 0)]);
        q.admit(SimTime::ZERO);
        let before = q.backlog();
        assert_eq!(
            q.advance_ticks(
                SimTime::ZERO,
                1000,
                SimDuration::from_secs(60),
                DataRate::ZERO
            ),
            None
        );
        assert_eq!(q.backlog(), before);
    }
}
