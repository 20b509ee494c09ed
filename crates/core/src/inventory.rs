//! Inventory database snapshots.
//!
//! §2.2 lists "inventory database management" among the controller's
//! responsibilities. The live inventory *is* the controller's state; this
//! module produces the durable, serializable view of it — per-node
//! transponder pools, per-fiber wavelength occupancy, regen usage, OTN
//! trunk fill — which the carrier's OSS would persist and the planning
//! tools consume.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use photonic::TransponderState;

use crate::connection::ConnState;
use crate::controller::Controller;

/// Transponder pool state at one node.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtPool {
    /// Installed transponders.
    pub total: usize,
    /// Idle and available.
    pub idle: usize,
    /// Tuning or carrying traffic.
    pub in_use: usize,
    /// Failed, awaiting replacement.
    pub failed: usize,
}

/// One fiber's occupancy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiberUsage {
    /// Endpoint names.
    pub between: (String, String),
    /// Total length.
    pub km: f64,
    /// Lit wavelengths.
    pub lit: usize,
    /// Grid capacity.
    pub capacity: usize,
    /// Is it in service?
    pub up: bool,
}

/// A point-in-time snapshot of the controller's inventory database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InventorySnapshot {
    /// Per-node (by name) transponder pools.
    pub ot_pools: BTreeMap<String, OtPool>,
    /// Per-fiber occupancy, keyed by fiber id string.
    pub fibers: BTreeMap<String, FiberUsage>,
    /// Regens: (total, in use).
    pub regens: (usize, usize),
    /// Connections by state name.
    pub connections: BTreeMap<String, usize>,
    /// Trunks: (total, ready).
    pub trunks: (usize, usize),
}

impl InventorySnapshot {
    /// Capture the current inventory.
    pub fn capture(ctl: &Controller) -> InventorySnapshot {
        let mut ot_pools: BTreeMap<String, OtPool> = BTreeMap::new();
        for id in ctl.net.transponder_ids() {
            let t = ctl.net.transponder(id);
            let pool = ot_pools
                .entry(ctl.net.name(t.location).to_string())
                .or_default();
            pool.total += 1;
            match t.state {
                TransponderState::Idle => pool.idle += 1,
                TransponderState::Tuning { .. } | TransponderState::Active { .. } => {
                    pool.in_use += 1
                }
                TransponderState::Failed => pool.failed += 1,
            }
        }
        let mut fibers = BTreeMap::new();
        for f in ctl.net.fiber_ids() {
            let link = ctl.net.fiber(f);
            fibers.insert(
                f.to_string(),
                FiberUsage {
                    between: (
                        ctl.net.name(link.a).to_string(),
                        ctl.net.name(link.b).to_string(),
                    ),
                    km: link.length_km(),
                    lit: ctl.net.lit_lambdas_on_fiber(f),
                    capacity: ctl.net.grid.channels as usize,
                    up: link.is_up(),
                },
            );
        }
        let (rt, ru) = ctl.regen_stats();
        let mut connections: BTreeMap<String, usize> = BTreeMap::new();
        for c in ctl.connections() {
            *connections.entry(format!("{:?}", c.state)).or_insert(0) += 1;
        }
        let trunks_ready = ctl.trunks().iter().filter(|t| t.ready).count();
        InventorySnapshot {
            ot_pools,
            fibers,
            regens: (rt, ru),
            connections,
            trunks: (ctl.trunks().len(), trunks_ready),
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<InventorySnapshot, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Total idle OTs across the network (planning input).
    pub fn idle_ots(&self) -> usize {
        self.ot_pools.values().map(|p| p.idle).sum()
    }

    /// Count of connections in a given state (by `Debug` name).
    pub fn connections_in(&self, state: ConnState) -> usize {
        self.connections
            .get(&format!("{state:?}"))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use photonic::{LineRate, PhotonicNetwork};
    use simcore::DataRate;

    fn ctl_with_conn() -> Controller {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl
    }

    #[test]
    fn snapshot_counts_pools_and_occupancy() {
        let ctl = ctl_with_conn();
        let snap = InventorySnapshot::capture(&ctl);
        assert_eq!(snap.ot_pools.len(), 4);
        let pool_i = &snap.ot_pools["I"];
        assert_eq!(pool_i.total, 4);
        assert_eq!(pool_i.in_use, 1);
        assert_eq!(pool_i.idle, 3);
        assert_eq!(snap.idle_ots(), 14);
        assert_eq!(snap.connections_in(ConnState::Active), 1);
        // The direct fiber has one lit wavelength.
        let lit: usize = snap.fibers.values().map(|f| f.lit).sum();
        assert_eq!(lit, 1);
        assert!(snap.fibers.values().all(|f| f.up));
        assert_eq!(snap.fibers.values().next().unwrap().capacity, 80);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let ctl = ctl_with_conn();
        let snap = InventorySnapshot::capture(&ctl);
        let json = snap.to_json();
        let back = InventorySnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert!(json.contains("\"I\""));
    }

    #[test]
    fn snapshot_reflects_failures() {
        let mut ctl = ctl_with_conn();
        let ids: Vec<_> = ctl.net.transponder_ids().collect();
        ctl.net.transponder_mut(ids[1]).fail();
        let snap = InventorySnapshot::capture(&ctl);
        let failed: usize = snap.ot_pools.values().map(|p| p.failed).sum();
        assert_eq!(failed, 1);
    }
}
