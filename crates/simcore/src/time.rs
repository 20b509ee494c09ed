//! Simulated time.
//!
//! [`SimTime`] is an absolute instant measured in nanoseconds since the
//! start of the simulation; [`SimDuration`] is a span between instants.
//! Both are plain `u64` newtypes: a `u64` of nanoseconds covers ~584 years
//! of simulated time, comfortably more than the 4–12 *hour* manual
//! restoration windows this workspace simulates.
//!
//! All arithmetic that could overflow is either checked or saturating and
//! spelled out in the method name; the `Add`/`Sub` operator impls panic on
//! overflow (a simulation bug, not a recoverable condition).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time (nanoseconds since simulation start).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is after `self`"),
        )
    }

    /// Duration since an earlier instant, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }
    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000_000)
    }
    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a float scale factor (clamped at zero).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// How many whole `unit`s are needed to cover this duration
    /// (ceiling division). Used for snapping event times onto a tick grid.
    ///
    /// # Panics
    /// If `unit` is zero.
    pub const fn div_ceil(self, unit: SimDuration) -> u64 {
        assert!(unit.0 > 0, "div_ceil by zero duration");
        self.0.div_ceil(unit.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

/// Format a nanosecond count as the most natural human unit
/// (`1h02m03s`, `4.25s`, `310ms`, `42µs`, `7ns`).
fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 3_600_000_000_000 {
        let s = ns / 1_000_000_000;
        write!(f, "{}h{:02}m{:02}s", s / 3600, (s % 3600) / 60, s % 60)
    } else if ns >= 60_000_000_000 {
        let s = ns / 1_000_000_000;
        write!(f, "{}m{:02}s", s / 60, s % 60)
    } else if ns >= 1_000_000_000 {
        write!(f, "{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.1}µs", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_nanos(1_000_000));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_secs_f64(0.0503);
        assert!((d.as_secs_f64() - 0.0503).abs() < 1e-9);
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn since_and_operators() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(4);
        assert_eq!(a.since(b), SimDuration::from_secs(6));
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(b + SimDuration::from_secs(6), a);
        assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2500));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42.0µs");
        assert_eq!(SimDuration::from_millis(310).to_string(), "310.0ms");
        assert_eq!(SimDuration::from_secs_f64(4.25).to_string(), "4.25s");
        assert_eq!(SimDuration::from_secs(62).to_string(), "1m02s");
        assert_eq!(SimDuration::from_secs(3723).to_string(), "1h02m03s");
        assert_eq!(SimTime::from_secs(5).to_string(), "t+5.00s");
    }
}
