//! The DWDM channel grid and line rates.
//!
//! Modern systems (per the paper, §2.1) carry 40–100 wavelengths per fiber
//! pair on the ITU-T G.694.1 50 GHz C-band grid, each at 10–100 Gbps.
//! [`Wavelength`] is a channel index into a [`ChannelGrid`]; the grid
//! bounds the indices a line system may light.

use serde::{Deserialize, Serialize};
use simcore::DataRate;
use std::fmt;

/// A wavelength channel — an index into the system's [`ChannelGrid`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Wavelength(pub u16);

impl Wavelength {
    /// Raw channel index (0-based).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

impl fmt::Debug for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The fixed channel plan of a line system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelGrid {
    /// Number of usable channels (40–100 in deployed systems).
    pub channels: u16,
    /// Channel spacing in GHz (50 for the systems the paper describes).
    pub spacing_ghz: u16,
    /// Frequency of channel 0 in GHz (ITU C-band anchor 191,700 GHz).
    pub first_freq_ghz: u32,
}

impl ChannelGrid {
    /// The 80-channel 50 GHz grid used by the backbone scenarios.
    pub const C_BAND_80: ChannelGrid = ChannelGrid {
        channels: 80,
        spacing_ghz: 50,
        first_freq_ghz: 191_700,
    };

    /// The 40-channel grid (the low end the paper quotes).
    pub const C_BAND_40: ChannelGrid = ChannelGrid {
        channels: 40,
        spacing_ghz: 100,
        first_freq_ghz: 191_700,
    };

    /// The 96-channel extended C-band grid used by the continental-scale
    /// generated plants (the high end of deployed 50 GHz systems; still
    /// comfortably inside the u128 occupancy-mask width).
    pub(crate) const C_BAND_96: ChannelGrid = ChannelGrid {
        channels: 96,
        spacing_ghz: 50,
        first_freq_ghz: 191_700,
    };

    /// All wavelengths on this grid, in index order.
    pub fn wavelengths(&self) -> impl Iterator<Item = Wavelength> {
        (0..self.channels).map(Wavelength)
    }

    /// Does this grid contain the channel?
    pub fn contains(&self, w: Wavelength) -> bool {
        w.0 < self.channels
    }

    /// Bitmask with one set bit per on-grid channel (bit *i* ↔ channel
    /// *i*). The occupancy-mask fast paths require the whole grid to fit
    /// in a `u128`; deployed systems top out around 100 channels.
    ///
    /// # Panics
    /// If the grid has more than 128 channels.
    pub(crate) fn channel_mask(&self) -> u128 {
        assert!(
            self.channels <= 128,
            "{} channels exceed the u128 occupancy-mask width",
            self.channels
        );
        if self.channels == 128 {
            u128::MAX
        } else {
            (1u128 << self.channels) - 1
        }
    }
}

/// Line rate of a wavelength (what one lit channel carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LineRate {
    /// 10 Gbps — the testbed's current rate.
    Gbps10,
    /// 40 Gbps — the testbed's planned rate, and the muxponder line side.
    Gbps40,
    /// 100 Gbps — the high end the paper quotes for modern systems.
    Gbps100,
}

impl LineRate {
    /// The payload rate.
    pub fn rate(self) -> DataRate {
        match self {
            LineRate::Gbps10 => DataRate::from_gbps(10),
            LineRate::Gbps40 => DataRate::from_gbps(40),
            LineRate::Gbps100 => DataRate::from_gbps(100),
        }
    }
}

impl fmt::Display for LineRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_bounds() {
        let g = ChannelGrid::C_BAND_80;
        assert!(g.contains(Wavelength(0)));
        assert!(g.contains(Wavelength(79)));
        assert!(!g.contains(Wavelength(80)));
        assert_eq!(g.wavelengths().count(), 80);
    }

    #[test]
    fn line_rates() {
        assert_eq!(LineRate::Gbps10.rate(), DataRate::from_gbps(10));
        assert_eq!(LineRate::Gbps40.rate(), DataRate::from_gbps(40));
    }

    #[test]
    fn display() {
        assert_eq!(Wavelength(7).to_string(), "λ7");
        assert_eq!(LineRate::Gbps40.to_string(), "40G");
    }
}
