//! Optical reach: how far a signal travels before needing regeneration.
//!
//! §2.1: *"Optical-to-Electrical-to-Optical (OEO) regeneration is needed
//! when the distance between terminating nodes exceeds a limit for
//! adequate signal quality, known as the optical reach."*
//!
//! As in the paper (and in production RWA tools of that era), all analogue
//! impairments are folded into a single distance budget per line rate.
//! Higher rates have shorter reach — 40 G needs regens where 10 G sails
//! through, which is why the RWA layer treats regens as a scarce, pooled
//! resource and why the resource-planning module cares where they are
//! deployed.

use serde::{Deserialize, Serialize};

use crate::grid::LineRate;

/// Distance budgets per line rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReachModel {
    /// Reach of a 10 G signal in km.
    pub km_10g: f64,
    /// Reach of a 40 G signal in km.
    pub km_40g: f64,
    /// Reach of a 100 G (coherent) signal in km.
    pub km_100g: f64,
}

impl Default for ReachModel {
    /// Figures typical of deployed circa-2011 systems: 10 G NRZ ~2,500 km
    /// over modern fiber, 40 G DPSK ~1,500 km, 100 G coherent ~2,000 km.
    fn default() -> Self {
        ReachModel {
            km_10g: 2_500.0,
            km_40g: 1_500.0,
            km_100g: 2_000.0,
        }
    }
}

impl ReachModel {
    /// The reach budget for a rate.
    pub(crate) fn reach_km(&self, rate: LineRate) -> f64 {
        match rate {
            LineRate::Gbps10 => self.km_10g,
            LineRate::Gbps40 => self.km_40g,
            LineRate::Gbps100 => self.km_100g,
        }
    }

    /// Split a path (given per-hop lengths in km) into the fewest
    /// transparent segments each within reach; returns the hop indices
    /// *after* which a regen must be placed (i.e. at the node between hop
    /// `i` and hop `i+1`).
    ///
    /// Greedy earliest-violation splitting is optimal for this
    /// one-dimensional problem: extend each segment as far as reach
    /// allows, regenerate, continue.
    ///
    /// Returns `None` if some single hop alone exceeds reach (no regen
    /// placement can fix a too-long hop — the link itself is unusable at
    /// this rate).
    pub fn regen_points(&self, rate: LineRate, hop_km: &[f64]) -> Option<Vec<usize>> {
        let mut points = Vec::new();
        let feasible = self.place_regens(rate, hop_km.iter().copied(), |i| {
            points.push(i);
            true
        });
        feasible.then_some(points)
    }

    /// [`ReachModel::regen_points`] without the vector: `place(i)` is
    /// called for each regen point `i` in path order, and a `false` from
    /// it stops the walk. Returns whether every hop is within reach and
    /// every placement succeeded.
    pub fn place_regens(
        &self,
        rate: LineRate,
        hop_km: impl IntoIterator<Item = f64>,
        mut place: impl FnMut(usize) -> bool,
    ) -> bool {
        let budget = self.reach_km(rate);
        let mut acc = 0.0;
        for (i, km) in hop_km.into_iter().enumerate() {
            if km > budget {
                return false;
            }
            if acc + km > budget {
                // regen at the node before this hop
                if !place(i - 1) {
                    return false;
                }
                acc = km;
            } else {
                acc += km;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_order() {
        let r = ReachModel::default();
        assert!(r.reach_km(LineRate::Gbps40) < r.reach_km(LineRate::Gbps10));
    }

    #[test]
    fn short_path_needs_no_regen() {
        let r = ReachModel::default();
        assert_eq!(
            r.regen_points(LineRate::Gbps10, &[500.0, 500.0]),
            Some(vec![])
        );
    }

    #[test]
    fn long_path_splits_greedily() {
        let r = ReachModel {
            km_10g: 1300.0,
            ..ReachModel::default()
        };
        // Segments: [600+600] regen [600+600] — one regen after hop 1.
        let pts = r
            .regen_points(LineRate::Gbps10, &[600.0, 600.0, 600.0, 600.0])
            .unwrap();
        assert_eq!(pts, vec![1]);
        // A tighter budget forces a regen at every intermediate node.
        let tight = ReachModel {
            km_10g: 1000.0,
            ..ReachModel::default()
        };
        let pts = tight
            .regen_points(LineRate::Gbps10, &[600.0, 600.0, 600.0, 600.0])
            .unwrap();
        assert_eq!(pts, vec![0, 1, 2]);
    }

    #[test]
    fn exact_budget_fits() {
        let r = ReachModel {
            km_10g: 1000.0,
            ..ReachModel::default()
        };
        assert_eq!(
            r.regen_points(LineRate::Gbps10, &[500.0, 500.0]),
            Some(vec![])
        );
        assert_eq!(
            r.regen_points(LineRate::Gbps10, &[500.0, 500.0, 1.0]),
            Some(vec![1])
        );
    }

    #[test]
    fn impossible_single_hop() {
        let r = ReachModel::default();
        assert_eq!(r.regen_points(LineRate::Gbps40, &[100.0, 2_000.0]), None);
    }

    #[test]
    fn rate_dependence() {
        let r = ReachModel::default();
        let hops = [800.0, 800.0, 800.0];
        // 10G (2500 km) carries 2400 km transparently…
        assert_eq!(r.regen_points(LineRate::Gbps10, &hops), Some(vec![]));
        // …40G (1500 km) regenerates at both intermediate nodes
        // (800+800 already exceeds its budget).
        assert_eq!(r.regen_points(LineRate::Gbps40, &hops), Some(vec![0, 1]));
    }

    #[test]
    fn empty_path_is_trivially_fine() {
        let r = ReachModel::default();
        assert_eq!(r.regen_points(LineRate::Gbps10, &[]), Some(vec![]));
    }
}
