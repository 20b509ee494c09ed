//! The Wideband Digital Cross-connect System (W-DCS) layer.
//!
//! Fig. 1's top TDM layer: *"The Wide-band Digital Cross-connect System
//! (W-DCS) is above the SONET layer and consists of DCS-3/1s and other
//! DCS that cross-connect at greater than DS0 but below DS3 rates. It
//! provides n×DS1 (1.5 Mbps) TDM connections."*
//!
//! Included for completeness of the "today's reality" stack: the lowest
//! rung of guaranteed-bandwidth service, three orders of magnitude below
//! the wavelengths GRIPhoN makes dynamic. A DS3 carries 28 DS1s; the
//! W-DCS grooms n×DS1 circuits into DS3s that ride SONET STS-1s.

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate};
use std::fmt;

define_id!(
    /// Identifier of an n×DS1 circuit.
    Ds1CircuitId,
    "ds1c"
);

/// A count of DS1 channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ds1(pub u32);

impl Ds1 {
    /// The DS1 line rate (1.544 Mbps).
    pub(crate) const RATE: DataRate = DataRate::from_bps(1_544_000);
    /// DS1s per DS3 (the M13 multiplex: 28).
    pub(crate) const PER_DS3: u32 = 28;

    /// The DS3 line rate (44.736 Mbps) — the W-DCS service ceiling.
    pub(crate) const DS3_RATE: DataRate = DataRate::from_bps(44_736_000);

    /// Smallest n×DS1 group carrying `demand`, if the demand stays below
    /// the DS3 *rate* (the W-DCS ceiling — faster demands move up a
    /// layer). The group may span DS3 uplinks: a 44 Mbps demand needs 29
    /// DS1s, one more than a single DS3 carries, and is still a W-DCS
    /// service; whether the node has uplink capacity for it is the
    /// provisioning check, not the categorization.
    pub(crate) fn group_for(demand: DataRate) -> Option<Ds1> {
        if demand.bps() >= Self::DS3_RATE.bps() {
            return None;
        }
        let n = demand.bps().div_ceil(Self::RATE.bps()) as u32;
        Some(Ds1(n.max(1)))
    }
}

impl fmt::Display for Ds1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×DS1", self.0)
    }
}

/// One provisioned n×DS1 circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ds1Circuit {
    /// This circuit's id.
    pub id: Ds1CircuitId,
    /// Group size.
    pub group: Ds1,
}

/// A W-DCS grooming DS1 circuits into DS3 uplinks toward SONET.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WdcsNode {
    /// DS3 uplinks available toward the SONET layer.
    pub ds3_uplinks: u32,
    circuits: Vec<Ds1Circuit>,
    next: u32,
}

/// Why a W-DCS order failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WdcsError {
    /// The demand exceeds what n×DS1 service carries (≥ DS3) — buy a
    /// SONET private line instead.
    AboveDs3,
    /// No DS1 capacity left on the uplinks.
    Exhausted,
}

impl fmt::Display for WdcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WdcsError::AboveDs3 => write!(f, "demand at/above DS3 — wrong layer"),
            WdcsError::Exhausted => write!(f, "DS1 capacity exhausted"),
        }
    }
}

impl std::error::Error for WdcsError {}

impl WdcsNode {
    /// A node with `ds3_uplinks` DS3s of capacity.
    pub fn new(ds3_uplinks: u32) -> WdcsNode {
        WdcsNode {
            ds3_uplinks,
            circuits: Vec::new(),
            next: 0,
        }
    }

    /// Total DS1 capacity.
    pub fn capacity(&self) -> u32 {
        self.ds3_uplinks * Ds1::PER_DS3
    }

    /// DS1s currently committed.
    pub fn in_use(&self) -> u32 {
        self.circuits.iter().map(|c| c.group.0).sum()
    }

    /// Provision an n×DS1 circuit carrying at least `demand`.
    pub fn provision(&mut self, demand: DataRate) -> Result<Ds1Circuit, WdcsError> {
        let group = Ds1::group_for(demand).ok_or(WdcsError::AboveDs3)?;
        if self.in_use() + group.0 > self.capacity() {
            return Err(WdcsError::Exhausted);
        }
        let c = Ds1Circuit {
            id: Ds1CircuitId::new(self.next),
            group,
        };
        self.next += 1;
        self.circuits.push(c.clone());
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_grouping() {
        // 10 Mbps needs 7 DS1s.
        assert_eq!(Ds1::group_for(DataRate::from_mbps(10)), Some(Ds1(7)));
        // Zero demand still takes one channel.
        assert_eq!(Ds1::group_for(DataRate::ZERO), Some(Ds1(1)));
        // 45 Mbps ≈ DS3 — above the W-DCS ceiling.
        assert_eq!(Ds1::group_for(DataRate::from_mbps(45)), None);
        assert_eq!(Ds1(3).to_string(), "3×DS1");
    }

    #[test]
    fn provisioning_against_uplinks() {
        let mut n = WdcsNode::new(1); // 28 DS1s
        assert_eq!(n.capacity(), 28);
        n.provision(DataRate::from_mbps(10)).unwrap(); // 7
        n.provision(DataRate::from_mbps(30)).unwrap(); // 20
        assert_eq!(n.in_use(), 27);
        // 2 more DS1s won't fit.
        assert_eq!(
            n.provision(DataRate::from_mbps(3)),
            Err(WdcsError::Exhausted)
        );
        // But 1 will.
        n.provision(DataRate::from_mbps(1)).unwrap();
        assert_eq!(n.in_use(), 28);
    }

    #[test]
    fn above_ds3_redirected_up_the_stack() {
        let mut n = WdcsNode::new(4);
        assert_eq!(
            n.provision(DataRate::from_mbps(100)),
            Err(WdcsError::AboveDs3)
        );
    }
}
