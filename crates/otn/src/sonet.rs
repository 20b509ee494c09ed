//! The legacy SONET layer — "today's reality" for sub-wavelength service.
//!
//! §2.1 describes the incumbent stack: Broadband DCSs cross-connecting at
//! STS-1 (51.84 Mbps), ADM rings with sub-second automatic protection,
//! Ethernet private lines carried as virtually concatenated STS-1 pipes,
//! and circuit-based BoD fed from a dedicated access pipe. §1 notes
//! today's BoD tops out "usually at rates ≤ 622 Mbps" (OC-12).
//!
//! This module implements that baseline's admission: [`SonetNetwork`]
//! provisions [`SonetService`]s (VCAT groups of STS-1s) against the
//! access pipe but refuses anything above the OC-12 BoD ceiling, which is
//! exactly the gap Table 1's first row records and GRIPhoN closes. A
//! service records whether it is ring-protected; neither provisioning
//! time nor the 50 ms UPSR switch is modelled here (the controller's 1+1
//! switchover is `griphon::protection`).

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate};
use std::fmt;

define_id!(
    /// Identifier of a SONET service (a VCAT group).
    SonetServiceId,
    "sts-svc"
);

/// A count of concatenated STS-1 channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sts(pub u32);

impl Sts {
    /// Payload rate of one STS-1 (SPE ≈ 49.5 Mbps usable; we use the
    /// 51.84 Mbps line figure consistently with carrier rate sheets).
    pub(crate) const STS1_RATE: DataRate = DataRate::from_bps(51_840_000);

    /// Smallest group carrying `demand`, if it fits under `max` STS-1s.
    pub(crate) fn group_for(demand: DataRate, max: Sts) -> Option<Sts> {
        let n = demand.bps().div_ceil(Self::STS1_RATE.bps()) as u32;
        if n == 0 {
            Some(Sts(1)).filter(|s| s.0 <= max.0)
        } else if n <= max.0 {
            Some(Sts(n))
        } else {
            None
        }
    }
}

impl fmt::Display for Sts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×STS-1", self.0)
    }
}

/// Why the SONET layer refused a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SonetError {
    /// The requested rate exceeds the BoD ceiling (OC-12 / 622 Mbps).
    AboveBodCeiling {
        /// What was asked for.
        requested: DataRate,
        /// The ceiling.
        ceiling: DataRate,
    },
    /// The access pipe has no spare STS-1 capacity left.
    AccessPipeFull,
}

impl fmt::Display for SonetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SonetError::AboveBodCeiling { requested, ceiling } => {
                write!(f, "{requested} above SONET BoD ceiling {ceiling}")
            }
            SonetError::AccessPipeFull => write!(f, "access pipe exhausted"),
        }
    }
}

impl std::error::Error for SonetError {}

/// An active SONET private-line / EVC service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SonetService {
    /// This service's id.
    pub id: SonetServiceId,
    /// The VCAT group size.
    pub group: Sts,
    /// Ring-protected (UPSR) or unprotected.
    pub protected: bool,
}

/// The legacy SONET BoD machinery between one pair of sites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SonetNetwork {
    /// BoD rate ceiling (OC-12 per the paper).
    pub bod_ceiling: DataRate,
    /// STS-1 capacity of the customer's dedicated access/metro pipe.
    pub access_sts: Sts,
    services: Vec<SonetService>,
    next_id: u32,
}

impl SonetNetwork {
    /// The paper-era defaults: 622 Mbps ceiling, an OC-48 access pipe
    /// (48 STS-1s).
    pub fn today() -> SonetNetwork {
        SonetNetwork {
            bod_ceiling: DataRate::from_mbps(622),
            access_sts: Sts(48),
            services: Vec::new(),
            next_id: 0,
        }
    }

    /// STS-1s currently committed.
    pub(crate) fn sts_in_use(&self) -> Sts {
        Sts(self.services.iter().map(|s| s.group.0).sum())
    }

    /// Provision a BoD service of at least `demand`.
    pub fn provision(
        &mut self,
        demand: DataRate,
        protected: bool,
    ) -> Result<SonetService, SonetError> {
        if demand > self.bod_ceiling {
            return Err(SonetError::AboveBodCeiling {
                requested: demand,
                ceiling: self.bod_ceiling,
            });
        }
        let max_free = Sts(self.access_sts.0 - self.sts_in_use().0);
        let group = Sts::group_for(demand, max_free).ok_or(SonetError::AccessPipeFull)?;
        let svc = SonetService {
            id: SonetServiceId::new(self.next_id),
            group,
            protected,
        };
        self.next_id += 1;
        self.services.push(svc.clone());
        Ok(svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sizing_rounds_up() {
        assert_eq!(
            Sts::group_for(DataRate::from_mbps(100), Sts(48)),
            Some(Sts(2))
        );
        assert_eq!(
            Sts::group_for(DataRate::from_mbps(52), Sts(48)),
            Some(Sts(2)), // 52 M > 51.84 M → 2 channels
        );
        assert_eq!(
            Sts::group_for(DataRate::from_mbps(51), Sts(48)),
            Some(Sts(1))
        );
        assert_eq!(Sts::group_for(DataRate::from_gbps(10), Sts(48)), None);
        assert_eq!(Sts::group_for(DataRate::ZERO, Sts(48)), Some(Sts(1)));
    }

    #[test]
    fn ceiling_enforced() {
        let mut net = SonetNetwork::today();
        let err = net.provision(DataRate::from_gbps(1), false).unwrap_err();
        assert!(matches!(err, SonetError::AboveBodCeiling { .. }));
        // 622 M exactly is allowed.
        let svc = net.provision(DataRate::from_mbps(622), false).unwrap();
        assert_eq!(svc.group, Sts(12));
    }

    #[test]
    fn access_pipe_exhausts() {
        let mut net = SonetNetwork::today();
        // 4 × 12 STS-1 = 48 fills the OC-48 pipe.
        for _ in 0..4 {
            net.provision(DataRate::from_mbps(622), false).unwrap();
        }
        assert_eq!(net.sts_in_use(), Sts(48));
        assert_eq!(
            net.provision(DataRate::from_mbps(52), false),
            Err(SonetError::AccessPipeFull)
        );
    }
}
