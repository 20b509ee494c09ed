//! Data-rate and data-size units shared by every layer of the stack.
//!
//! Rates appear all over GRIPhoN at very different magnitudes — DS1
//! (1.5 Mbps) private lines, GbE clients, ODU0 (1.244 Gbps) tributaries,
//! 10/40/100 G wavelengths — so both types store plain bits (per second)
//! in `u64` and never floats. `u64` bits holds up to ~2.3 exabytes, far
//! beyond the petabyte-scale transfers the paper motivates.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::time::SimDuration;

/// A data rate in bits per second.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct DataRate(u64);

/// An amount of data in bits.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct DataSize(u64);

impl DataRate {
    /// Zero bits per second.
    pub const ZERO: DataRate = DataRate(0);

    /// From bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        DataRate(bps)
    }
    /// From kilobits per second (decimal, as in telecom).
    pub const fn from_kbps(k: u64) -> Self {
        DataRate(k * 1_000)
    }
    /// From megabits per second.
    pub const fn from_mbps(m: u64) -> Self {
        DataRate(m * 1_000_000)
    }
    /// From gigabits per second.
    pub const fn from_gbps(g: u64) -> Self {
        DataRate(g * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }
    /// Gigabits per second as a float.
    pub fn gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// How much data flows at this rate over `d`.
    pub fn over(self, d: SimDuration) -> DataSize {
        let bits = (self.0 as u128 * d.as_nanos() as u128) / 1_000_000_000u128;
        DataSize(u64::try_from(bits).expect("DataSize overflow"))
    }

    /// Saturating subtraction (rate headroom computations).
    pub fn saturating_sub(self, other: DataRate) -> DataRate {
        DataRate(self.0.saturating_sub(other.0))
    }
}

impl DataSize {
    /// Zero bits.
    pub const ZERO: DataSize = DataSize(0);

    /// From bits.
    pub const fn from_bits(b: u64) -> Self {
        DataSize(b)
    }
    /// From bytes.
    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b * 8)
    }
    /// From decimal gigabytes.
    pub const fn from_gigabytes(gb: u64) -> Self {
        DataSize(gb * 8_000_000_000)
    }
    /// From decimal terabytes.
    pub const fn from_terabytes(tb: u64) -> Self {
        DataSize(tb * 8_000_000_000_000)
    }

    /// Bits.
    pub const fn bits(self) -> u64 {
        self.0
    }
    /// Decimal terabytes as a float.
    pub fn terabytes_f64(self) -> f64 {
        self.0 as f64 / 8e12
    }

    /// Time to move this much data at `rate`. Returns [`SimDuration::MAX`]
    /// for a zero rate (it never completes).
    pub fn time_at(self, rate: DataRate) -> SimDuration {
        if rate.0 == 0 {
            return SimDuration::MAX;
        }
        let ns = (self.0 as u128 * 1_000_000_000u128) / rate.0 as u128;
        SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(other.0))
    }

    /// True if zero bits.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

macro_rules! impl_linear_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, o: $t) -> $t {
                $t(self
                    .0
                    .checked_add(o.0)
                    .expect(concat!(stringify!($t), " overflow")))
            }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, o: $t) {
                *self = *self + o;
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, o: $t) -> $t {
                $t(self
                    .0
                    .checked_sub(o.0)
                    .expect(concat!(stringify!($t), " underflow")))
            }
        }
        impl SubAssign for $t {
            fn sub_assign(&mut self, o: $t) {
                *self = *self - o;
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                iter.fold($t(0), |a, b| a + b)
            }
        }
    };
}

impl_linear_ops!(DataRate);
impl_linear_ops!(DataSize);

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1_000_000_000 && b.is_multiple_of(100_000_000) {
            write!(f, "{}G", b as f64 / 1e9)
        } else if b >= 1_000_000_000 {
            write!(f, "{:.2}G", b as f64 / 1e9)
        } else if b >= 1_000_000 {
            write!(f, "{:.1}M", b as f64 / 1e6)
        } else if b >= 1_000 {
            write!(f, "{:.1}k", b as f64 / 1e3)
        } else {
            write!(f, "{}bps", b)
        }
    }
}

impl fmt::Debug for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.0 as f64 / 8.0;
        if bytes >= 1e12 {
            write!(f, "{:.2}TB", bytes / 1e12)
        } else if bytes >= 1e9 {
            write!(f, "{:.2}GB", bytes / 1e9)
        } else if bytes >= 1e6 {
            write!(f, "{:.1}MB", bytes / 1e6)
        } else if bytes >= 1e3 {
            write!(f, "{:.1}kB", bytes / 1e3)
        } else {
            write!(f, "{}B", bytes as u64)
        }
    }
}

impl fmt::Debug for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_constructors() {
        assert_eq!(DataRate::from_gbps(1), DataRate::from_mbps(1000));
        assert_eq!(DataRate::from_mbps(1), DataRate::from_kbps(1000));
        assert_eq!(DataRate::from_kbps(1), DataRate::from_bps(1000));
    }

    #[test]
    fn size_constructors() {
        assert_eq!(DataSize::from_bytes(1), DataSize::from_bits(8));
        assert_eq!(DataSize::from_terabytes(1), DataSize::from_gigabytes(1000));
    }

    #[test]
    fn rate_times_duration() {
        let moved = DataRate::from_gbps(10).over(SimDuration::from_secs(8));
        assert_eq!(moved, DataSize::from_gigabytes(10));
    }

    #[test]
    fn transfer_time_roundtrip() {
        let size = DataSize::from_terabytes(1);
        let t = size.time_at(DataRate::from_gbps(40));
        assert_eq!(t, SimDuration::from_secs(200));
        assert_eq!(size.time_at(DataRate::ZERO), SimDuration::MAX);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: DataRate = [DataRate::from_gbps(1), DataRate::from_gbps(2)]
            .into_iter()
            .sum();
        assert_eq!(total, DataRate::from_gbps(3));
        let mut s = DataSize::from_bytes(100);
        s += DataSize::from_bytes(50);
        s -= DataSize::from_bytes(25);
        assert_eq!(s, DataSize::from_bytes(125));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn rate_underflow_panics() {
        let _ = DataRate::from_gbps(1) - DataRate::from_gbps(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            DataRate::from_gbps(1).saturating_sub(DataRate::from_gbps(2)),
            DataRate::ZERO
        );
        assert_eq!(
            DataSize::from_bytes(1).saturating_sub(DataSize::from_bytes(2)),
            DataSize::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(DataRate::from_gbps(40).to_string(), "40G");
        assert_eq!(DataRate::from_mbps(2500).to_string(), "2.5G");
        assert_eq!(DataRate::from_mbps(622).to_string(), "622.0M");
        assert_eq!(DataRate::from_kbps(64).to_string(), "64.0k");
        assert_eq!(DataSize::from_terabytes(2).to_string(), "2.00TB");
        assert_eq!(DataSize::from_bytes(512).to_string(), "512B");
    }
}
