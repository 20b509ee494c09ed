//! Deterministic, seed-parameterized continental-plant generator.
//!
//! The paper's testbed is four ROADMs; its premise is a carrier plant.
//! This module grows the gap shut: it builds hierarchical plants in the
//! metro → regional → backbone shape of deployed carrier networks
//! (metro access rings feeding regional aggregation meshes, themselves
//! hanging off a continental express backbone), at any size from the
//! 14-node NSFNET class up to many hundreds of ROADMs and thousands of
//! amplified spans.
//!
//! ## Tiering
//!
//! - **Backbone** — one hub ROADM per region (`bb{r}`), connected in a
//!   ring with long express links (auto-split into 80 km amplified
//!   spans); for six or more regions, cross-continent chords halve the
//!   ring diameter.
//! - **Regional** — each region has `metro_rings_per_region` aggregation
//!   anchors (`r{r}a{k}`) star-homed onto the hub and meshed in a ring
//!   among themselves.
//! - **Metro** — each anchor closes a metro ring of `metro_ring_size`
//!   access ROADMs (`r{r}m{k}n{s}`) through itself.
//!
//! ## The single-gateway invariant
//!
//! By construction, every link is either *internal* to one region's
//! interior (anchors + metro nodes) or touches a backbone hub, and each
//! region's interior reaches the rest of the plant **only** through its
//! own hub. The hub is therefore a cut vertex: a simple path can never
//! enter a foreign region's interior and leave again. This is what makes
//! region-restricted RWA (`griphon`'s `RegionMap`) *exact* rather than
//! heuristic — restricting path search to
//! `{region(src), region(dst), backbone}` provably returns the same
//! routes as a whole-plant search.
//!
//! Everything is a pure function of [`GeneratorConfig`]: the same seed
//! and shape produce a byte-identical plant (property-tested), so scale
//! benchmarks and sharded-equivalence tests can regenerate plants at
//! will instead of shipping fixtures.

use serde::{Deserialize, Serialize};
use simcore::SimRng;

use crate::grid::{ChannelGrid, LineRate};
use crate::roadm::RoadmId;
use crate::topology::PhotonicNetwork;

/// Region id assigned to backbone hubs in [`GeneratedPlant::region_of`]:
/// hubs belong to the transit core, not to any one region's interior.
pub(crate) const REGION_BACKBONE: u16 = u16::MAX;

/// Shape and seed of a generated plant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// RNG seed; every span length derives from it deterministically.
    pub seed: u64,
    /// Number of regions (== backbone hubs). At least 1.
    pub regions: usize,
    /// Aggregation anchors per region (each closes one metro ring).
    pub metro_rings_per_region: usize,
    /// Access ROADMs per metro ring.
    pub metro_ring_size: usize,
    /// Channels per degree; clamped to 80–96 (the u128 occupancy masks
    /// allow up to 128, deployed 50 GHz systems top out around 96).
    pub channels: u16,
    /// Tunable transponders installed at every node.
    pub ots_per_node: usize,
    /// Regens installed at every backbone hub and regional anchor
    /// (cross-region paths regenerate at transit points).
    pub regens_per_hub: usize,
    /// Line rate of the installed transponder pools.
    pub ot_rate: LineRate,
}

impl GeneratorConfig {
    /// A mid-density default shape: 4 regions × 4 anchors × 5-node metro
    /// rings ⇒ 100 ROADMs.
    pub fn default_shape(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed,
            regions: 4,
            metro_rings_per_region: 4,
            metro_ring_size: 5,
            channels: 96,
            ots_per_node: 4,
            regens_per_hub: 6,
            ot_rate: LineRate::Gbps10,
        }
    }

    /// The shape whose node count lands closest to `target` ROADMs,
    /// found by a deterministic scan over (regions, anchors, ring size).
    /// Exact for the scale sweep's 14 / 100 / 300 / 600 points. Region
    /// count is scanned *descending*: among equally close shapes, prefer
    /// many small regions — region-restricted RWA cost tracks region
    /// size, so this is the shape that keeps per-query cost flattest as
    /// plants grow.
    pub fn with_target_roadms(target: usize, seed: u64) -> GeneratorConfig {
        let mut best = (usize::MAX, 1usize, 1usize, 1usize);
        for regions in (2usize..=12).rev() {
            for anchors in 1..=10 {
                for ring in 1..=12 {
                    let total = regions * (1 + anchors * (1 + ring));
                    let err = total.abs_diff(target);
                    if err < best.0 {
                        best = (err, regions, anchors, ring);
                    }
                }
            }
        }
        GeneratorConfig {
            regions: best.1,
            metro_rings_per_region: best.2,
            metro_ring_size: best.3,
            ..GeneratorConfig::default_shape(seed)
        }
    }

    /// Total ROADM count this shape produces:
    /// `regions × (1 + anchors × (1 + ring_size))`.
    pub fn node_count(&self) -> usize {
        self.regions * (1 + self.metro_rings_per_region * (1 + self.metro_ring_size))
    }

    /// Total fiber-link count this shape produces (used by the generator
    /// proptests to pin span/link counts to the tier parameters).
    pub fn link_count(&self) -> usize {
        let r = self.regions;
        let k = self.metro_rings_per_region;
        let s = self.metro_ring_size;
        let backbone = match r {
            0 | 1 => 0,
            2 => 1,
            _ => r + if r >= 6 { r / 2 } else { 0 },
        };
        let anchor_ring = match k {
            0 | 1 => 0,
            2 => 1,
            _ => k,
        };
        let metro_per_ring = if s == 1 { 1 } else { s + 1 };
        backbone + r * (k + anchor_ring) + r * k * metro_per_ring
    }
}

/// A generated plant plus the region structure the RWA layer exploits.
#[derive(Debug, Clone)]
pub struct GeneratedPlant {
    /// The plant itself.
    pub net: PhotonicNetwork,
    /// Region id per ROADM index (`REGION_BACKBONE` for hubs).
    pub region_of: Vec<u16>,
    /// Each region's transit gateway (its backbone hub), indexed by
    /// region id.
    pub gateways: Vec<RoadmId>,
    /// Each region's interior nodes (anchors + metro), indexed by region
    /// id — the workload generators draw endpoints from these.
    pub interior: Vec<Vec<RoadmId>>,
    /// The shape that produced this plant.
    pub config: GeneratorConfig,
}

/// Build a plant from a shape. Pure: same config ⇒ byte-identical plant.
pub fn generate(cfg: &GeneratorConfig) -> GeneratedPlant {
    assert!(cfg.regions >= 1, "need at least one region");
    assert!(
        cfg.metro_rings_per_region >= 1 && cfg.metro_ring_size >= 1,
        "need at least one anchor and one metro node per ring"
    );
    let channels = cfg.channels.clamp(80, 96);
    let grid = ChannelGrid {
        channels,
        ..ChannelGrid::C_BAND_96
    };
    let mut net = PhotonicNetwork::new(grid);
    let mut rng = SimRng::new(cfg.seed);

    // Backbone hubs first so RoadmIds group by tier.
    let hubs: Vec<RoadmId> = (0..cfg.regions)
        .map(|r| net.add_roadm(format!("bb{r}")))
        .collect();
    let mut region_of = vec![REGION_BACKBONE; cfg.regions];
    let mut interior: Vec<Vec<RoadmId>> = vec![Vec::new(); cfg.regions];

    // Backbone ring + chords: long express links, auto-split into spans.
    match cfg.regions {
        0 | 1 => {}
        2 => {
            net.link(hubs[0], hubs[1], rng.range_f64(400.0, 900.0))
                .expect("backbone link");
        }
        r => {
            for i in 0..r {
                net.link(hubs[i], hubs[(i + 1) % r], rng.range_f64(300.0, 700.0))
                    .expect("backbone ring link");
            }
            if r >= 6 {
                for i in 0..r / 2 {
                    net.link(hubs[i], hubs[i + r / 2], rng.range_f64(600.0, 1_100.0))
                        .expect("backbone chord");
                }
            }
        }
    }

    // Regions: anchors star-homed on the hub, ringed among themselves,
    // each closing a metro ring through itself.
    for (r, &hub) in hubs.iter().enumerate() {
        let anchors: Vec<RoadmId> = (0..cfg.metro_rings_per_region)
            .map(|k| {
                let a = net.add_roadm(format!("r{r}a{k}"));
                region_of.push(r as u16);
                interior[r].push(a);
                a
            })
            .collect();
        for &a in &anchors {
            net.link(hub, a, rng.range_f64(100.0, 250.0))
                .expect("hub-anchor link");
        }
        let k = anchors.len();
        for i in 0..k.saturating_sub(1) {
            net.link(anchors[i], anchors[i + 1], rng.range_f64(80.0, 200.0))
                .expect("anchor ring link");
        }
        if k >= 3 {
            net.link(anchors[k - 1], anchors[0], rng.range_f64(80.0, 200.0))
                .expect("anchor ring closure");
        }
        for (k, &anchor) in anchors.iter().enumerate() {
            let metro: Vec<RoadmId> = (0..cfg.metro_ring_size)
                .map(|s| {
                    let m = net.add_roadm(format!("r{r}m{k}n{s}"));
                    region_of.push(r as u16);
                    interior[r].push(m);
                    m
                })
                .collect();
            net.link(anchor, metro[0], rng.range_f64(10.0, 60.0))
                .expect("metro entry link");
            for w in metro.windows(2) {
                net.link(w[0], w[1], rng.range_f64(10.0, 60.0))
                    .expect("metro chain link");
            }
            if metro.len() >= 2 {
                net.link(*metro.last().unwrap(), anchor, rng.range_f64(10.0, 60.0))
                    .expect("metro ring closure");
            }
        }
    }

    // Equipment: OT pools everywhere, regen pools at transit points.
    for id in net.roadm_ids().collect::<Vec<_>>() {
        net.add_transponders(id, cfg.ot_rate, cfg.ots_per_node)
            .expect("transponder pool");
    }
    for &hub in &hubs {
        for _ in 0..cfg.regens_per_hub {
            net.add_regen(hub, cfg.ot_rate).expect("hub regen pool");
        }
    }
    for region in &interior {
        for &a in region.iter().take(cfg.metro_rings_per_region) {
            for _ in 0..cfg.regens_per_hub {
                net.add_regen(a, cfg.ot_rate).expect("anchor regen pool");
            }
        }
    }

    debug_assert_eq!(net.roadm_count(), cfg.node_count());
    debug_assert_eq!(net.fiber_count(), cfg.link_count());
    GeneratedPlant {
        net,
        region_of,
        gateways: hubs,
        interior,
        config: *cfg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formulas() {
        for target in [14usize, 100, 300, 600] {
            let cfg = GeneratorConfig::with_target_roadms(target, 7);
            assert_eq!(cfg.node_count(), target, "no exact shape for {target}");
            let plant = generate(&cfg);
            assert_eq!(plant.net.roadm_count(), target);
            assert_eq!(plant.net.fiber_count(), cfg.link_count());
            assert_eq!(plant.region_of.len(), target);
            assert_eq!(plant.gateways.len(), cfg.regions);
        }
    }

    #[test]
    fn same_seed_same_plant_different_seed_different_spans() {
        let cfg = GeneratorConfig::with_target_roadms(100, 11);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(format!("{:?}", a.net), format!("{:?}", b.net));
        let other = GeneratorConfig { seed: 12, ..cfg };
        let c = generate(&other);
        assert_ne!(format!("{:?}", a.net), format!("{:?}", c.net));
    }

    #[test]
    fn plant_is_connected() {
        let plant = generate(&GeneratorConfig::with_target_roadms(300, 3));
        let from = RoadmId::new(0);
        for to in plant.net.roadm_ids().skip(1) {
            assert!(
                plant.net.shortest_path_hops(from, to).is_some(),
                "{to} unreachable"
            );
        }
    }

    #[test]
    fn interiors_touch_only_their_own_hub() {
        let plant = generate(&GeneratorConfig::with_target_roadms(100, 5));
        for f in plant.net.fiber_ids() {
            let l = plant.net.fiber(f);
            let (ra, rb) = (plant.region_of[l.a.index()], plant.region_of[l.b.index()]);
            assert!(
                ra == rb || ra == REGION_BACKBONE || rb == REGION_BACKBONE,
                "{f} crosses two region interiors"
            );
            if ra != rb {
                // The backbone endpoint must be the interior region's own
                // gateway — the single-gateway invariant.
                let (hub, region) = if ra == REGION_BACKBONE {
                    (l.a, rb)
                } else {
                    (l.b, ra)
                };
                assert_eq!(plant.gateways[region as usize], hub);
            }
        }
    }
}
