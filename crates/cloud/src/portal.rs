//! The CSP's portal: the customer-premises side of every order.
//!
//! Fig. 3: a data center reaches GRIPhoN through a *fixed, dedicated
//! access pipe* terminated on NTE (the 10/40 G muxponder of the
//! testbed). However elastic the core is, a site can never terminate
//! more bandwidth than its pipe — so the portal enforces per-site
//! admission *before* the carrier sees the order, and keeps the books a
//! CSP's operations team would keep (which bundles exist, to where, how
//! much headroom each site has left).

use std::collections::BTreeMap;

use simcore::DataRate;

use griphon::controller::{Controller, RequestError};
use griphon::{Bundle, CustomerId};

use crate::datacenter::{DataCenterId, DataCenterSet};

/// Why the portal refused an order before the carrier saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortalError {
    /// A site's access pipe cannot terminate the additional rate.
    AccessPipeFull {
        /// The constraining site.
        site: DataCenterId,
        /// Headroom remaining there.
        headroom: DataRate,
    },
    /// The carrier refused the order.
    Carrier(RequestError),
}

impl std::fmt::Display for PortalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortalError::AccessPipeFull { site, headroom } => {
                write!(f, "{site} access pipe full ({headroom} left)")
            }
            PortalError::Carrier(e) => write!(f, "carrier: {e}"),
        }
    }
}

impl std::error::Error for PortalError {}

impl From<RequestError> for PortalError {
    fn from(e: RequestError) -> Self {
        PortalError::Carrier(e)
    }
}

/// One CSP's view of its connectivity estate.
#[derive(Debug)]
pub struct CspPortal {
    /// The carrier account this portal orders under.
    pub customer: CustomerId,
    /// The CSP's sites.
    pub dcs: DataCenterSet,
    committed: BTreeMap<DataCenterId, DataRate>,
    bundles: Vec<(DataCenterId, DataCenterId, Bundle)>,
}

impl CspPortal {
    /// A portal for `customer` over its sites.
    pub fn new(customer: CustomerId, dcs: DataCenterSet) -> CspPortal {
        CspPortal {
            customer,
            dcs,
            committed: BTreeMap::new(),
            bundles: Vec::new(),
        }
    }

    /// Access-pipe headroom at a site.
    pub fn headroom(&self, site: DataCenterId) -> DataRate {
        self.dcs
            .get(site)
            .access
            .saturating_sub(self.committed.get(&site).copied().unwrap_or(DataRate::ZERO))
    }

    /// Order `rate` between two of this CSP's sites; checks both access
    /// pipes, then places the composite order with the carrier.
    pub fn order(
        &mut self,
        ctl: &mut Controller,
        from: DataCenterId,
        to: DataCenterId,
        rate: DataRate,
    ) -> Result<usize, PortalError> {
        for site in [from, to] {
            let headroom = self.headroom(site);
            if rate > headroom {
                return Err(PortalError::AccessPipeFull { site, headroom });
            }
        }
        let bundle = ctl.request_bandwidth(
            self.customer,
            self.dcs.get(from).site,
            self.dcs.get(to).site,
            rate,
        )?;
        // Commit the *delivered* rate (composite bundles can over-deliver
        // when a remainder forced a full wavelength).
        let delivered: DataRate = bundle
            .members
            .iter()
            .filter_map(|m| ctl.connection(*m))
            .map(|c| c.kind.rate())
            .sum();
        for site in [from, to] {
            *self.committed.entry(site).or_insert(DataRate::ZERO) += delivered;
        }
        self.bundles.push((from, to, bundle));
        Ok(self.bundles.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griphon::controller::ControllerConfig;
    use photonic::{LineRate, PhotonicNetwork};

    fn setup() -> (Controller, CspPortal, DataCenterId, DataCenterId) {
        let (net, ids) = PhotonicNetwork::testbed(10);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
        ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
        ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        let mut dcs = DataCenterSet::new();
        let a = dcs.add("ashburn", ids.i, DataRate::from_gbps(40));
        let b = dcs.add("portland", ids.iv, DataRate::from_gbps(25));
        (ctl, CspPortal::new(csp, dcs), a, b)
    }

    #[test]
    fn order_commits_both_pipes() {
        let (mut ctl, mut portal, a, b) = setup();
        portal
            .order(&mut ctl, a, b, DataRate::from_gbps(12))
            .unwrap();
        assert_eq!(portal.headroom(a), DataRate::from_gbps(28));
        assert_eq!(portal.headroom(b), DataRate::from_gbps(13));
        assert_eq!(portal.bundles.len(), 1);
    }

    #[test]
    fn smaller_pipe_constrains() {
        let (mut ctl, mut portal, a, b) = setup();
        // Portland's 25 G pipe blocks a 30 G order even though Ashburn
        // could take it.
        let err = portal
            .order(&mut ctl, a, b, DataRate::from_gbps(30))
            .unwrap_err();
        assert_eq!(
            err,
            PortalError::AccessPipeFull {
                site: b,
                headroom: DataRate::from_gbps(25)
            }
        );
        // Nothing leaked at the carrier.
        assert_eq!(
            ctl.tenants.get(portal.customer).unwrap().in_use,
            DataRate::ZERO
        );
    }

    #[test]
    fn over_delivery_is_what_gets_committed() {
        let (mut ctl, mut portal, a, b) = setup();
        // 18 G decomposes to 2×10G λ (over-delivers 20 G); the pipes must
        // account for 20 G, not 18 G.
        portal
            .order(&mut ctl, a, b, DataRate::from_gbps(18))
            .unwrap();
        assert_eq!(portal.headroom(b), DataRate::from_gbps(5));
    }

    #[test]
    fn carrier_refusal_propagates_and_commits_nothing() {
        let (mut ctl, mut portal, a, b) = setup();
        // Drain the carrier's OT pool at IV so the order fails there.
        for ot in ctl
            .net
            .idle_ots_at(portal.dcs.get(b).site, LineRate::Gbps10)
        {
            ctl.net.transponder_mut(ot).fail();
        }
        let err = portal
            .order(&mut ctl, a, b, DataRate::from_gbps(20))
            .unwrap_err();
        assert!(matches!(err, PortalError::Carrier(_)));
        assert_eq!(portal.headroom(a), DataRate::from_gbps(40));
        assert!(portal.bundles.is_empty());
    }
}
