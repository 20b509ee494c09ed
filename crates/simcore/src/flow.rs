//! Rate-limiting and admission-queue primitives for request planes.
//!
//! Exact-integer building blocks for the northbound service plane:
//!
//! - [`TokenBucket`] — a classic token bucket in integer pico-token
//!   arithmetic. Rates are specified in *millitokens per second* so
//!   sub-1/s tiers (a free tenant allowed one request every ten
//!   seconds) are representable without floats; refill is computed as
//!   `rate_mt_per_s × elapsed_ns` pico-tokens, which is exact — no
//!   rounding residue accumulates, so refill-at-the-exact-boundary
//!   admits precisely when the arithmetic says it should.
//! - [`BoundedQueue`] — a FIFO with a hard capacity that reports
//!   overflow to the caller (returning the rejected item) instead of
//!   growing, plus depth book-keeping for queue-depth time series.
//!
//! Both are plain state machines: time is passed in, nothing is global,
//! and identical call sequences produce identical states on every run.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Pico-tokens per token: the internal fixed-point scale.
const PT_PER_TOKEN: u128 = 1_000_000_000_000;

/// Why a [`TokenBucket::try_take`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimited {
    /// Earliest wait after which the same request can succeed, or
    /// `None` when it never can (zero refill rate or a request larger
    /// than the bucket's capacity).
    pub retry_after: Option<SimDuration>,
}

/// Exact-integer token bucket.
///
/// A bucket holds up to `burst` whole tokens and refills continuously
/// at `rate` millitokens per second. Requests withdraw whole tokens.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_mt_per_s: u64,
    capacity_pt: u128,
    level_pt: u128,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate_millitokens_per_sec` with capacity
    /// `burst_tokens`, starting full at time zero.
    pub fn new(rate_millitokens_per_sec: u64, burst_tokens: u64) -> TokenBucket {
        let capacity_pt = burst_tokens as u128 * PT_PER_TOKEN;
        TokenBucket {
            rate_mt_per_s: rate_millitokens_per_sec,
            capacity_pt,
            level_pt: capacity_pt,
            last: SimTime::ZERO,
        }
    }

    /// Advance the refill clock to `now`. Time never runs backwards in
    /// the simulation; stale calls (same timestamp) are no-ops.
    fn refill(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        let elapsed_ns = (now - self.last).as_nanos() as u128;
        // 1 mt/s = 10⁻³ token / 10⁹ ns = 1 pico-token per nanosecond:
        // the refill product is exact in pico-tokens.
        let add_pt = self.rate_mt_per_s as u128 * elapsed_ns;
        self.level_pt = (self.level_pt + add_pt).min(self.capacity_pt);
        self.last = now;
    }

    /// Withdraw `tokens` whole tokens at `now`. On refusal, reports the
    /// exact earliest retry time that will succeed (given no competing
    /// withdrawals in between).
    pub fn try_take(&mut self, now: SimTime, tokens: u64) -> Result<(), RateLimited> {
        self.refill(now);
        let cost_pt = tokens as u128 * PT_PER_TOKEN;
        if cost_pt <= self.level_pt {
            self.level_pt -= cost_pt;
            return Ok(());
        }
        if cost_pt > self.capacity_pt || self.rate_mt_per_s == 0 {
            return Err(RateLimited { retry_after: None });
        }
        let deficit_pt = cost_pt - self.level_pt;
        // ceil(deficit / rate) nanoseconds until the deficit refills.
        let wait_ns = deficit_pt.div_ceil(self.rate_mt_per_s as u128);
        Err(RateLimited {
            retry_after: Some(SimDuration::from_nanos(wait_ns as u64)),
        })
    }
}

/// Outcome of a [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued; the payload is the resulting depth.
    Enqueued(usize),
    /// The queue was full; the item was not enqueued.
    Full,
}

/// FIFO queue with a hard capacity and depth book-keeping.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    high_water: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            items: VecDeque::new(),
            capacity,
            high_water: 0,
        }
    }

    /// Enqueue `item`, or return it to the caller when full.
    pub fn push(&mut self, item: T) -> Result<PushOutcome, T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        Ok(PushOutcome::Enqueued(self.items.len()))
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn burst_then_refill() {
        // 2 tokens/s, burst 4.
        let mut b = TokenBucket::new(2_000, 4);
        for _ in 0..4 {
            assert!(b.try_take(at(0), 1).is_ok());
        }
        let err = b.try_take(at(0), 1).unwrap_err();
        assert_eq!(err.retry_after, Some(SimDuration::from_millis(500)));
        // Exactly at the boundary the take must succeed.
        assert!(b.try_take(at(0) + SimDuration::from_millis(500), 1).is_ok());
        // And one nanosecond earlier it must not.
        let mut c = TokenBucket::new(2_000, 1);
        assert!(c.try_take(at(0), 1).is_ok());
        let early = SimTime::from_nanos(500_000_000 - 1);
        assert!(c.try_take(early, 1).is_err());
        assert!(c.try_take(at(0) + SimDuration::from_millis(500), 1).is_ok());
    }

    #[test]
    fn zero_capacity_and_zero_rate_never_admit() {
        let mut z = TokenBucket::new(1_000, 0);
        assert_eq!(
            z.try_take(at(100), 1),
            Err(RateLimited { retry_after: None })
        );
        let mut r = TokenBucket::new(0, 3);
        assert!(r.try_take(at(0), 3).is_ok());
        assert_eq!(
            r.try_take(at(1_000), 1),
            Err(RateLimited { retry_after: None })
        );
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(10_000, 5);
        for _ in 0..5 {
            assert!(b.try_take(at(0), 1).is_ok());
        }
        // A week later the bucket holds exactly `burst`, not more.
        b.refill(at(7 * 86_400));
        assert_eq!(b.level_pt, 5 * PT_PER_TOKEN);
    }

    #[test]
    fn sub_unit_rates_are_exact() {
        // 0.1 token/s = 100 mt/s: one request every 10 s exactly.
        let mut b = TokenBucket::new(100, 1);
        assert!(b.try_take(at(0), 1).is_ok());
        let err = b.try_take(at(0), 1).unwrap_err();
        assert_eq!(err.retry_after, Some(SimDuration::from_secs(10)));
        assert!(b.try_take(at(10), 1).is_ok());
        assert!(b.try_take(at(19), 1).is_err());
    }

    #[test]
    fn bounded_queue_sheds_at_capacity() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.push(1), Ok(PushOutcome::Enqueued(1)));
        assert_eq!(q.push(2), Ok(PushOutcome::Enqueued(2)));
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(PushOutcome::Enqueued(2)));
    }
}

#[cfg(test)]
mod flow_props {
    use super::*;
    use proptest::prelude::*;

    /// Shadow model: an independently-written bucket that tracks the
    /// *cumulative* refill budget instead of a decaying level. Admitted
    /// work can never exceed `burst + rate × elapsed`, so the shadow
    /// admits iff `spent + cost ≤ burst + refill(t)` — no level decay,
    /// no capacity clamp, a different formulation of the same policy.
    struct ShadowBucket {
        rate_mt: u128,
        burst_pt: u128,
        spent_pt: u128,
        /// Refill credit forfeited to the capacity clamp while full.
        forfeited_pt: u128,
    }

    impl ShadowBucket {
        fn new(rate_mt: u64, burst: u64) -> ShadowBucket {
            ShadowBucket {
                rate_mt: rate_mt as u128,
                burst_pt: burst as u128 * 1_000_000_000_000,
                spent_pt: 0,
                forfeited_pt: 0,
            }
        }

        /// Unclamped available credit: `burst + rate·t − forfeited − spent`.
        fn avail_pt(&self, now: SimTime) -> u128 {
            let refill = self.rate_mt * (now - SimTime::ZERO).as_nanos() as u128;
            self.burst_pt + refill - self.forfeited_pt - self.spent_pt
        }

        fn try_take(&mut self, now: SimTime, tokens: u64) -> bool {
            // The level only rises between calls, so forfeiting overflow
            // at call boundaries is exactly the continuous clamp.
            let avail = self.avail_pt(now);
            if avail > self.burst_pt {
                self.forfeited_pt += avail - self.burst_pt;
            }
            let cost = tokens as u128 * 1_000_000_000_000;
            if self.avail_pt(now) >= cost {
                self.spent_pt += cost;
                true
            } else {
                false
            }
        }
    }

    proptest! {
        /// The bucket and the cumulative-budget shadow model agree on
        /// every admit/refuse decision over arbitrary op sequences.
        #[test]
        fn bucket_matches_shadow_model(
            rate_mt in 1u64..50_000,
            burst in 0u64..64,
            ops in prop::collection::vec((0u64..30_000_000_000, 1u64..8), 1..128),
        ) {
            let mut bucket = TokenBucket::new(rate_mt, burst);
            let mut shadow = ShadowBucket::new(rate_mt, burst);
            let mut now = SimTime::ZERO;
            for (dt_ns, tokens) in ops {
                now += SimDuration::from_nanos(dt_ns);
                let got = bucket.try_take(now, tokens).is_ok();
                let want = shadow.try_take(now, tokens);
                prop_assert_eq!(got, want, "divergence at t={:?} take {}", now, tokens);
            }
        }

        /// Cumulative admissions never exceed `burst + rate × elapsed`
        /// (the hard budget), for any op sequence.
        #[test]
        fn never_admits_beyond_budget(
            rate_mt in 0u64..50_000,
            burst in 0u64..64,
            ops in prop::collection::vec((0u64..10_000_000_000, 1u64..8), 1..256),
        ) {
            let mut bucket = TokenBucket::new(rate_mt, burst);
            let mut now = SimTime::ZERO;
            let mut admitted_pt: u128 = 0;
            for (dt_ns, tokens) in ops {
                now += SimDuration::from_nanos(dt_ns);
                if bucket.try_take(now, tokens).is_ok() {
                    admitted_pt += tokens as u128 * 1_000_000_000_000;
                }
                let budget_pt = burst as u128 * 1_000_000_000_000
                    + rate_mt as u128 * (now - SimTime::ZERO).as_nanos() as u128;
                prop_assert!(admitted_pt <= budget_pt, "admitted beyond budget at {:?}", now);
            }
        }

        /// A compliant tenant is never deadlocked: any refusal of a
        /// request within capacity carries a finite retry hint, retrying
        /// exactly then succeeds, and one nanosecond earlier still fails.
        #[test]
        fn retry_hint_is_exact_boundary(
            rate_mt in 1u64..50_000,
            burst in 1u64..64,
            ops in prop::collection::vec((0u64..5_000_000_000, 1u64..8), 0..64),
            req in 1u64..8,
        ) {
            let mut bucket = TokenBucket::new(rate_mt, burst);
            let mut now = SimTime::ZERO;
            for (dt_ns, tokens) in ops {
                now += SimDuration::from_nanos(dt_ns);
                let _ = bucket.try_take(now, tokens);
            }
            let req = req.min(burst);
            if let Err(limited) = bucket.try_take(now, req) {
                let wait = limited.retry_after.expect("within-capacity refusal has a hint");
                prop_assert!(wait > SimDuration::ZERO);
                if wait.as_nanos() > 1 {
                    let mut early = bucket.clone();
                    let just_before = now + (wait - SimDuration::from_nanos(1));
                    prop_assert!(early.try_take(just_before, req).is_err(),
                        "admitted before the hinted boundary");
                }
                prop_assert!(bucket.try_take(now + wait, req).is_ok(),
                    "hinted retry time did not admit");
            }
        }
    }
}
