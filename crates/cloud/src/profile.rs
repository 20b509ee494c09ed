//! Piecewise-constant interactive-traffic profiles.
//!
//! The tick engine samples interactive load through a closure at every
//! tick; the event engine instead needs to *enumerate* the instants at
//! which the load changes, so it can fast-forward through the constant
//! stretches in between. [`RateProfile`] is that representation: a step
//! function over simulated time, queryable at a point and iterable by
//! breakpoint.

use simcore::{DataRate, SimDuration, SimTime};

/// A piecewise-constant bandwidth profile: the rate at `t` is the value
/// of the last step at or before `t`, and the last step extends to
/// infinity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateProfile {
    /// `(start, rate)` steps, strictly increasing in time, first at
    /// [`SimTime::ZERO`].
    steps: Vec<(SimTime, DataRate)>,
}

impl RateProfile {
    /// A constant rate for all time.
    #[cfg(test)]
    pub(crate) fn flat(rate: DataRate) -> RateProfile {
        RateProfile {
            steps: vec![(SimTime::ZERO, rate)],
        }
    }

    /// Build from explicit steps. Steps are sorted by time; for duplicate
    /// times the last value wins; a step at time zero is added (rate zero)
    /// if none is given; consecutive equal rates are merged.
    pub fn from_steps(steps: Vec<(SimTime, DataRate)>) -> RateProfile {
        let mut steps = steps;
        steps.sort_by_key(|(t, _)| *t);
        let mut out: Vec<(SimTime, DataRate)> = Vec::with_capacity(steps.len() + 1);
        out.push((SimTime::ZERO, DataRate::ZERO));
        for (t, r) in steps {
            if out.last().map(|(lt, _)| *lt) == Some(t) {
                out.last_mut().unwrap().1 = r;
                // The overwrite may have made the last two steps equal.
                if out.len() > 1 && out[out.len() - 2].1 == r {
                    out.pop();
                }
            } else if out.last().map(|(_, lr)| *lr) != Some(r) {
                out.push((t, r));
            }
        }
        RateProfile { steps: out }
    }

    /// Sample a closure on a regular grid and collapse equal neighbours.
    ///
    /// Used to convert the tick engine's closure-based interactive load
    /// into breakpoint form: sampling with `step` equal to the simulation
    /// tick reproduces exactly what the tick engine would have seen.
    pub fn sampled(
        f: impl Fn(SimTime) -> DataRate,
        until: SimTime,
        step: SimDuration,
    ) -> RateProfile {
        assert!(!step.is_zero(), "sampling step must be positive");
        let mut steps = Vec::new();
        let mut t = SimTime::ZERO;
        let mut last: Option<DataRate> = None;
        while t <= until {
            let r = f(t);
            if last != Some(r) {
                steps.push((t, r));
                last = Some(r);
            }
            t += step;
        }
        RateProfile { steps }
    }

    /// The rate in force at `t`.
    pub fn rate_at(&self, t: SimTime) -> DataRate {
        let idx = self.steps.partition_point(|(s, _)| *s <= t);
        // idx ≥ 1 because the first step is at time zero.
        self.steps[idx - 1].1
    }

    /// The first breakpoint strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.steps.partition_point(|(s, _)| *s <= t);
        self.steps.get(idx).map(|(s, _)| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_constant_everywhere() {
        let p = RateProfile::flat(DataRate::from_gbps(3));
        assert_eq!(p.rate_at(SimTime::ZERO), DataRate::from_gbps(3));
        assert_eq!(
            p.rate_at(SimTime::from_secs(1 << 30)),
            DataRate::from_gbps(3)
        );
        assert_eq!(p.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn steps_take_effect_at_their_start() {
        let p = RateProfile::from_steps(vec![
            (SimTime::from_secs(10), DataRate::from_gbps(5)),
            (SimTime::from_secs(20), DataRate::from_gbps(1)),
        ]);
        assert_eq!(p.rate_at(SimTime::ZERO), DataRate::ZERO);
        assert_eq!(p.rate_at(SimTime::from_secs(9)), DataRate::ZERO);
        assert_eq!(p.rate_at(SimTime::from_secs(10)), DataRate::from_gbps(5));
        assert_eq!(p.rate_at(SimTime::from_secs(19)), DataRate::from_gbps(5));
        assert_eq!(p.rate_at(SimTime::from_secs(25)), DataRate::from_gbps(1));
        assert_eq!(
            p.next_change_after(SimTime::from_secs(10)),
            Some(SimTime::from_secs(20))
        );
        assert_eq!(p.next_change_after(SimTime::from_secs(20)), None);
    }

    #[test]
    fn sampled_matches_closure_on_grid() {
        let f = |t: SimTime| DataRate::from_mbps(100 + (t.as_nanos() / 1_000_000_000) % 7);
        let step = SimDuration::from_secs(1);
        let until = SimTime::from_secs(100);
        let p = RateProfile::sampled(f, until, step);
        let mut t = SimTime::ZERO;
        while t <= until {
            assert_eq!(p.rate_at(t), f(t), "at {t}");
            t += step;
        }
    }

    #[test]
    fn equal_neighbours_collapse() {
        let p = RateProfile::sampled(
            |_| DataRate::from_gbps(2),
            SimTime::from_secs(1000),
            SimDuration::from_secs(1),
        );
        assert_eq!(p, RateProfile::flat(DataRate::from_gbps(2)));
    }

    #[test]
    fn duplicate_time_overwrite_merges_with_its_neighbour() {
        // The later 0 at 10 s replaces the 5 G step and equals the zero
        // start, so no breakpoint may remain at 10 s.
        let p = RateProfile::from_steps(vec![
            (SimTime::from_secs(10), DataRate::from_gbps(5)),
            (SimTime::from_secs(10), DataRate::ZERO),
        ]);
        assert_eq!(p.next_change_after(SimTime::ZERO), None);
        assert_eq!(p, RateProfile::flat(DataRate::ZERO));
        // A step after the merged one still starts where it should.
        let p = RateProfile::from_steps(vec![
            (SimTime::from_secs(10), DataRate::from_gbps(5)),
            (SimTime::from_secs(10), DataRate::ZERO),
            (SimTime::from_secs(20), DataRate::from_gbps(3)),
        ]);
        assert_eq!(
            p.next_change_after(SimTime::ZERO),
            Some(SimTime::from_secs(20))
        );
        assert_eq!(p.rate_at(SimTime::from_secs(15)), DataRate::ZERO);
    }
}
