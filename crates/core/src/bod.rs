//! The Bandwidth-on-Demand front door.
//!
//! §2.2: a CSP can "adjust the bandwidth according to their exact needs.
//! For example, they can use lower-speed circuits to augment a high-speed
//! circuit by using a combination of 2 × 1G OTN circuits and one 10G DWDM
//! to achieve a total bandwidth of 12G instead of consuming a second 10G
//! DWDM."
//!
//! [`Controller::request_bandwidth`] decomposes a target rate into a
//! bundle of member circuits:
//!
//! 1. as many full 10 G wavelengths as fit entirely;
//! 2. the remainder as 1 G OTN circuits if it is at most
//!    `OTN_REMAINDER_MAX_GBPS` (and OTN reaches both endpoints),
//!    otherwise one more wavelength.
//!
//! The bundle is the customer-visible object; members are ordinary
//! connections and restore/tear down independently.

use simcore::{define_id, DataRate};

use otn::ClientSignal;
use photonic::{LineRate, RoadmId};

use crate::connection::{ConnState, ConnectionId};
use crate::controller::{Controller, RequestError};
use crate::tenant::CustomerId;

define_id!(
    /// Identifier of a BoD bundle.
    BundleId,
    "bundle"
);

/// A customer's composite bandwidth order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// This bundle's id.
    pub id: BundleId,
    /// The owner.
    pub customer: CustomerId,
    /// A-end.
    pub from: RoadmId,
    /// Z-end.
    pub to: RoadmId,
    /// What was asked for.
    pub target: DataRate,
    /// Member circuits.
    pub members: Vec<ConnectionId>,
}

/// Rate remainder (in 1 G units) at or below which a bundle takes OTN
/// circuits instead of another wavelength: §2.2's 12 G = 10 G λ + 2 × 1 G
/// example sits well inside it.
const OTN_REMAINDER_MAX_GBPS: u64 = 4;

/// How a target rate will be decomposed (pure function — unit-testable
/// without a network).
///
/// ```
/// use griphon::Decomposition;
/// use simcore::DataRate;
///
/// // The paper's example: 12 G = one 10 G wavelength + 2×1G OTN.
/// let d = Decomposition::plan(DataRate::from_gbps(12));
/// assert_eq!((d.wavelengths_10g, d.otn_1g), (1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Full 10 G wavelengths.
    pub wavelengths_10g: u64,
    /// 1 G OTN circuits.
    pub otn_1g: u64,
}

impl Decomposition {
    /// Decompose `target`: whole wavelengths, then the remainder as OTN
    /// circuits up to `OTN_REMAINDER_MAX_GBPS`.
    pub fn plan(target: DataRate) -> Decomposition {
        let ten = DataRate::from_gbps(10);
        let full = target.bps() / ten.bps();
        let rem_bps = target.bps() - full * ten.bps();
        let rem_gbps = rem_bps.div_ceil(DataRate::from_gbps(1).bps());
        if rem_gbps == 0 {
            Decomposition {
                wavelengths_10g: full,
                otn_1g: 0,
            }
        } else if rem_gbps <= OTN_REMAINDER_MAX_GBPS {
            Decomposition {
                wavelengths_10g: full,
                otn_1g: rem_gbps,
            }
        } else {
            Decomposition {
                wavelengths_10g: full + 1,
                otn_1g: 0,
            }
        }
    }
}

impl Controller {
    /// Order `target` aggregate bandwidth between two data-center nodes.
    /// Members are provisioned immediately; the bundle is usable as each
    /// member activates (OTN members in seconds, wavelengths in ~a
    /// minute).
    ///
    /// On any member failure the already-ordered members are torn down
    /// and the error returned (all-or-nothing admission).
    pub fn request_bandwidth(
        &mut self,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        target: DataRate,
    ) -> Result<Bundle, RequestError> {
        // One journal record covers the whole composite order: the member
        // wavelength/OTN intents (and any rollback teardowns) below are
        // re-derived deterministically on replay.
        self.journal_record(|| crate::durability::Intent::Bandwidth {
            customer: customer.raw(),
            from: from.raw(),
            to: to.raw(),
            target_bps: target.bps(),
        });
        let d = Decomposition::plan(target);
        let mut members: Vec<ConnectionId> = Vec::new();
        let mut failed: Option<RequestError> = None;
        self.journal_depth += 1;
        for _ in 0..d.wavelengths_10g {
            match self.request_wavelength(customer, from, to, LineRate::Gbps10) {
                Ok(id) => members.push(id),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if failed.is_none() {
            for _ in 0..d.otn_1g {
                match self.request_subwavelength(customer, from, to, ClientSignal::GbE) {
                    Ok(id) => members.push(id),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = failed {
            // All-or-nothing: roll back whatever was already ordered.
            for id in &members {
                let _ = self.request_teardown(*id);
            }
            self.journal_depth -= 1;
            return Err(e);
        }
        self.journal_depth -= 1;
        let id = BundleId::new(self.metrics.counter("bod.bundles").get() as u32);
        self.metrics.counter("bod.bundles").incr();
        if self.spans.is_enabled() {
            let now = self.now();
            let sp = self.spans.record(now, now, "policy", "bod.bundle", None);
            self.spans.attr_u64(sp, "bundle", u64::from(id.raw()));
            self.spans
                .attr_u64(sp, "wavelengths_10g", d.wavelengths_10g);
            self.spans.attr_u64(sp, "otn_1g", d.otn_1g);
            self.spans
                .attr_u64(sp, "target_gbps", target.gbps_f64() as u64);
        }
        self.trace.emit(
            self.now(),
            "bod",
            format!(
                "{id} target {target}: {}×10G λ + {}×1G OTN",
                d.wavelengths_10g, d.otn_1g
            ),
        );
        Ok(Bundle {
            id,
            customer,
            from,
            to,
            target,
            members,
        })
    }

    /// Tear down every member of a bundle.
    pub fn release_bundle(&mut self, bundle: &Bundle) {
        self.release_members(&bundle.members);
    }

    /// Tear down a list of member connections under one `ReleaseBundle`
    /// journal record (shared by [`Self::release_bundle`] and
    /// [`crate::durability::recovery::apply`], which has only the raw
    /// member list).
    pub(crate) fn release_members(&mut self, members: &[ConnectionId]) {
        self.journal_record(|| crate::durability::Intent::ReleaseBundle {
            members: members.iter().map(|m| m.raw()).collect(),
        });
        self.journaled(|c| {
            for id in members {
                let _ = c.request_teardown(*id);
            }
        });
    }

    /// Aggregate bandwidth of a bundle's currently Active members.
    pub fn bundle_active_rate(&self, bundle: &Bundle) -> DataRate {
        bundle
            .members
            .iter()
            .filter_map(|id| self.connection(*id))
            .filter(|c| c.state == ConnState::Active)
            .map(|c| c.kind.rate())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::PhotonicNetwork;

    #[test]
    fn paper_example_12g() {
        let d = Decomposition::plan(DataRate::from_gbps(12));
        assert_eq!(
            d,
            Decomposition {
                wavelengths_10g: 1,
                otn_1g: 2
            }
        );
    }

    #[test]
    fn large_remainder_takes_another_wavelength() {
        let d = Decomposition::plan(DataRate::from_gbps(18));
        assert_eq!(
            d,
            Decomposition {
                wavelengths_10g: 2,
                otn_1g: 0
            }
        );
    }

    #[test]
    fn exact_multiples_use_only_wavelengths() {
        let d = Decomposition::plan(DataRate::from_gbps(30));
        assert_eq!(d.wavelengths_10g, 3);
        assert_eq!(d.otn_1g, 0);
    }

    #[test]
    fn small_rates_use_only_otn() {
        let d = Decomposition::plan(DataRate::from_gbps(2));
        assert_eq!(
            d,
            Decomposition {
                wavelengths_10g: 0,
                otn_1g: 2
            }
        );
        // Fractional gigabits round up to whole OTN circuits.
        let d = Decomposition::plan(DataRate::from_mbps(1500));
        assert_eq!(d.otn_1g, 2);
    }

    #[test]
    fn threshold_is_respected() {
        // A 4 G remainder is the most OTN carries; 5 G takes a wavelength.
        let d = Decomposition::plan(DataRate::from_gbps(14));
        assert_eq!((d.wavelengths_10g, d.otn_1g), (1, 4));
        let d = Decomposition::plan(DataRate::from_gbps(15));
        assert_eq!((d.wavelengths_10g, d.otn_1g), (2, 0));
    }

    fn bod_testbed() -> (Controller, photonic::TestbedIds, CustomerId) {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
        ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
        ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        (ctl, ids, csp)
    }

    #[test]
    fn twelve_gig_bundle_end_to_end() {
        let (mut ctl, ids, csp) = bod_testbed();
        let bundle = ctl
            .request_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(12))
            .unwrap();
        assert_eq!(bundle.members.len(), 3); // 1 λ + 2 OTN
        ctl.run_until_idle();
        assert_eq!(ctl.bundle_active_rate(&bundle), DataRate::from_gbps(12));
        // The OTN members came up long before the wavelength: quota shows
        // the full 12 G committed.
        assert_eq!(
            ctl.tenants.get(csp).unwrap().in_use,
            DataRate::from_gbps(12)
        );
        ctl.release_bundle(&bundle);
        ctl.run_until_idle();
        assert_eq!(ctl.bundle_active_rate(&bundle), DataRate::ZERO);
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
    }

    #[test]
    fn bundle_rolls_back_on_failure() {
        let (mut ctl, ids, csp) = bod_testbed();
        // 22 G = 2×10G λ + 2×1G OTN; testbed has one 8-TS trunk so OTN is
        // fine, but block wavelengths by draining the OT pool at IV.
        let ots = ctl.net.idle_ots_at(ids.iv, LineRate::Gbps10);
        for ot in &ots {
            ctl.net.transponder_mut(*ot).fail();
        }
        let err = ctl
            .request_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(22))
            .unwrap_err();
        assert!(matches!(err, RequestError::Rwa(_)));
        ctl.run_until_idle();
        // Nothing left provisioned or charged.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
    }
}
