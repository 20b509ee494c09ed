//! The G.709 ODU multiplexing hierarchy.
//!
//! An ODUk ("Optical Data Unit") is the digitally framed container OTN
//! switches operate on. Low-order ODUs are multiplexed into a high-order
//! ODU via 1.25 Gbps *tributary slots* (TS): an ODU2 offers 8 TS, an
//! ODU3 32, an ODU4 80. The paper's OTN switches "cross-connect at an
//! ODU0 rate (1.25 Gbps) and can support both TDM and Ethernet
//! packet-based client signals" (§2.1).
//!
//! The numbers below follow ITU-T G.709: the ODU payload rates are not
//! round decimal gigabits (ODU0 is 1.244 Gbps on the wire), but the slot
//! *counts* are exact, and slot counts are what grooming and switching
//! arithmetic use. We expose both: [`OduRate::payload`] for bandwidth
//! accounting against client demand, [`OduRate::ts_needed`] for slot
//! arithmetic.

use serde::{Deserialize, Serialize};
use simcore::DataRate;
use std::fmt;

/// The ODUk rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OduRate {
    /// 1.244 Gbps — carries one GbE. 1 tributary slot.
    Odu0,
    /// 2.498 Gbps — carries OC-48/STM-16. 2 tributary slots.
    Odu1,
    /// 10.037 Gbps — carries 10GbE WAN / OC-192. 8 tributary slots.
    Odu2,
    /// 40.319 Gbps — carries OC-768 / 40GbE. 32 tributary slots.
    Odu3,
    /// 104.794 Gbps — carries 100GbE. 80 tributary slots.
    Odu4,
    /// ODUflex (G.709 §12.2.5): a right-sized container of `n` 1.25 G
    /// tributary slots, for packet clients that fit none of the fixed
    /// rates — the finishing touch on "rate configurable over wide
    /// range" (1–80 slots).
    Flex {
        /// Tributary slots (1..=80).
        ts: u8,
    },
}

impl OduRate {
    /// Approximate payload bandwidth of this container.
    pub fn payload(self) -> DataRate {
        match self {
            OduRate::Odu0 => DataRate::from_mbps(1_244),
            OduRate::Odu1 => DataRate::from_mbps(2_498),
            OduRate::Odu2 => DataRate::from_mbps(10_037),
            OduRate::Odu3 => DataRate::from_mbps(40_319),
            OduRate::Odu4 => DataRate::from_mbps(104_794),
            // ODUflex payload is n × 1.24917 Gbps (ODTU slot rate).
            OduRate::Flex { ts } => DataRate::from_kbps(1_249_177 * ts as u64),
        }
    }

    /// The smallest ODUflex carrying `demand`, if it fits 80 slots.
    pub fn flex_for(demand: DataRate) -> Option<OduRate> {
        let slot = DataRate::from_kbps(1_249_177);
        let ts = demand.bps().div_ceil(slot.bps());
        if ts == 0 {
            Some(OduRate::Flex { ts: 1 })
        } else if ts <= 80 {
            Some(OduRate::Flex { ts: ts as u8 })
        } else {
            None
        }
    }

    /// 1.25 G tributary slots this container *occupies* when multiplexed
    /// as a low-order ODU into a high-order one.
    pub fn ts_needed(self) -> usize {
        match self {
            OduRate::Odu0 => 1,
            OduRate::Odu1 => 2,
            OduRate::Odu2 => 8,
            OduRate::Odu3 => 32,
            OduRate::Odu4 => 80,
            OduRate::Flex { ts } => ts as usize,
        }
    }

    /// 1.25 G tributary slots this container *offers* when used as the
    /// high-order server layer of a wavelength.
    pub(crate) fn ts_capacity(self) -> usize {
        self.ts_needed()
    }

    /// The high-order ODU corresponding to a wavelength line rate.
    pub(crate) fn for_line_rate(rate: crate::switch::WavelengthLineRate) -> OduRate {
        use photonic::LineRate::*;
        match rate.0 {
            Gbps10 => OduRate::Odu2,
            Gbps40 => OduRate::Odu3,
            Gbps100 => OduRate::Odu4,
        }
    }
}

impl fmt::Display for OduRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self {
            OduRate::Odu0 => 0,
            OduRate::Odu1 => 1,
            OduRate::Odu2 => 2,
            OduRate::Odu3 => 3,
            OduRate::Odu4 => 4,
            OduRate::Flex { ts } => return write!(f, "ODUflex({ts}TS)"),
        };
        write!(f, "ODU{k}")
    }
}

/// Client signals the OTN layer accepts (TDM and packet, per §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClientSignal {
    /// Gigabit Ethernet.
    GbE,
    /// 10 Gigabit Ethernet.
    TenGbE,
    /// 40 Gigabit Ethernet.
    FortyGbE,
    /// SONET OC-48 (2.5 G TDM).
    Oc48,
    /// SONET OC-192 (10 G TDM).
    Oc192,
}

impl ClientSignal {
    /// The client's native rate.
    pub fn rate(self) -> DataRate {
        match self {
            ClientSignal::GbE => DataRate::from_gbps(1),
            ClientSignal::TenGbE => DataRate::from_gbps(10),
            ClientSignal::FortyGbE => DataRate::from_gbps(40),
            ClientSignal::Oc48 => DataRate::from_mbps(2_488),
            ClientSignal::Oc192 => DataRate::from_mbps(9_953),
        }
    }

    /// The standard G.709 mapping of this client into an ODU.
    pub fn odu_mapping(self) -> OduRate {
        match self {
            ClientSignal::GbE => OduRate::Odu0,
            ClientSignal::TenGbE => OduRate::Odu2,
            ClientSignal::FortyGbE => OduRate::Odu3,
            ClientSignal::Oc48 => OduRate::Odu1,
            ClientSignal::Oc192 => OduRate::Odu2,
        }
    }
}

impl fmt::Display for ClientSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClientSignal::GbE => "GbE",
            ClientSignal::TenGbE => "10GbE",
            ClientSignal::FortyGbE => "40GbE",
            ClientSignal::Oc48 => "OC-48",
            ClientSignal::Oc192 => "OC-192",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_match_g709() {
        assert_eq!(OduRate::Odu0.ts_needed(), 1);
        assert_eq!(OduRate::Odu1.ts_needed(), 2);
        assert_eq!(OduRate::Odu2.ts_capacity(), 8);
        assert_eq!(OduRate::Odu3.ts_capacity(), 32);
        assert_eq!(OduRate::Odu4.ts_capacity(), 80);
    }

    #[test]
    fn payloads_ascend() {
        use OduRate::*;
        for pair in [Odu0, Odu1, Odu2, Odu3, Odu4].windows(2) {
            assert!(pair[0].payload() < pair[1].payload());
        }
    }

    #[test]
    fn client_mappings() {
        assert_eq!(ClientSignal::GbE.odu_mapping(), OduRate::Odu0);
        assert_eq!(ClientSignal::TenGbE.odu_mapping(), OduRate::Odu2);
        assert_eq!(ClientSignal::Oc48.odu_mapping(), OduRate::Odu1);
        assert_eq!(ClientSignal::Oc192.odu_mapping(), OduRate::Odu2);
        assert_eq!(ClientSignal::FortyGbE.odu_mapping(), OduRate::Odu3);
        // Every client fits in its mapped container.
        for c in [
            ClientSignal::GbE,
            ClientSignal::TenGbE,
            ClientSignal::FortyGbE,
            ClientSignal::Oc48,
            ClientSignal::Oc192,
        ] {
            assert!(c.odu_mapping().payload() >= c.rate(), "{c}");
        }
    }

    #[test]
    fn flex_sizing() {
        // 3 Gbps needs 3 slots (2 × 1.249 G < 3 G).
        let flex = OduRate::flex_for(DataRate::from_gbps(3)).unwrap();
        assert_eq!(flex, OduRate::Flex { ts: 3 });
        assert!(flex.payload() >= DataRate::from_gbps(3));
        assert_eq!(flex.ts_needed(), 3);
        // Exactly one slot rate fits one slot.
        assert_eq!(
            OduRate::flex_for(DataRate::from_kbps(1_249_177)),
            Some(OduRate::Flex { ts: 1 })
        );
        // Beyond 80 slots there is no ODUflex.
        assert_eq!(OduRate::flex_for(DataRate::from_gbps(101)), None);
        // Degenerate zero demand still gets a slot.
        assert_eq!(
            OduRate::flex_for(DataRate::ZERO),
            Some(OduRate::Flex { ts: 1 })
        );
    }

    #[test]
    fn flex_never_wastes_more_than_one_slot() {
        for gbps in 1..=99u64 {
            let d = DataRate::from_gbps(gbps);
            if let Some(OduRate::Flex { ts }) = OduRate::flex_for(d) {
                let fitted = OduRate::Flex { ts };
                assert!(fitted.payload() >= d);
                if ts > 1 {
                    let smaller = OduRate::Flex { ts: ts - 1 };
                    assert!(smaller.payload() < d, "{gbps}G should need {ts} slots");
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(OduRate::Odu0.to_string(), "ODU0");
        assert_eq!(OduRate::Odu4.to_string(), "ODU4");
        assert_eq!(OduRate::Flex { ts: 7 }.to_string(), "ODUflex(7TS)");
        assert_eq!(ClientSignal::TenGbE.to_string(), "10GbE");
    }
}
