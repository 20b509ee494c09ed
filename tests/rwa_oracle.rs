//! `griphon::rwa::PathEngine` against the planner it replaced.
//!
//! Every route the controller lights, and so every digest and golden file
//! downstream of one, comes out of Yen's search and `plan_wavelength`. The
//! engine's weight table, path arena and borrowed cache hits must
//! therefore leave routes and plans bit-identical, on any interleaving of
//! queries, plans, claims, releases, cuts and repairs — which is what
//! this file drives, with the old planner kept verbatim under
//! `tests/support/` as the oracle.
//!
//! Four engines run beside the reference: whole-plant and
//! region-restricted, each with the route cache on and off (the cached
//! region engine with a small capacity, so that it evicts). A
//! `Controller` with its own engine claims and releases wavelengths, so
//! occupancy and pools move under the planner, and its plans are held to
//! the reference too. Tier-1 runs generated 100-ROADM plants and small
//! meshes whose candidates tie on metres and hops (where the candidate
//! order's tie-breaks and the spur exclusion rule decide the result); the
//! `#[ignore]`d soak runs `lambda-cold`'s 600-ROADM shape in release
//! (`cargo test --release --test rwa_oracle -- --ignored`).

#[path = "support/reference_rwa.rs"]
mod reference;

use griphon::connection::Resources;
use griphon::rwa::{PathEngine, RegionMap, RwaConfig};
use griphon::{ConnectionId, Controller, ControllerConfig, CustomerId, RequestError};
use photonic::{
    generate, ChannelGrid, FiberId, GeneratorConfig, LineRate, PhotonicNetwork, ReachModel, RoadmId,
};
use proptest::prelude::*;
use simcore::DataRate;

/// Operation kinds `step` understands; a random `u8` is reduced modulo this.
const KINDS: u8 = 12;

/// The reference, the engines under test and the plant they plan over.
struct Bench {
    ctl: Controller,
    customer: CustomerId,
    /// Endpoints queries are drawn from.
    nodes: Vec<RoadmId>,
    reference: reference::ReferenceEngine,
    /// `(engine, use_cache)`: whole-plant and region-restricted, each
    /// with the cache on and off.
    engines: Vec<(PathEngine, bool)>,
    live: Vec<ConnectionId>,
    cut: Vec<FiberId>,
}

impl Bench {
    /// A generated plant, with endpoints drawn from every node or from
    /// the region interiors only.
    fn generated(gen: &GeneratorConfig, interior_only: bool) -> Bench {
        let plant = generate(gen);
        let nodes = if interior_only {
            plant.interior.iter().flatten().copied().collect()
        } else {
            plant.net.roadm_ids().collect()
        };
        Bench::new(plant.net, RegionMap::new(plant.region_of), nodes)
    }

    /// A ring of `n` nodes with `n` random chords, every link 40 or 80 km
    /// (one span each, so lengths sum exactly): many candidates tie on
    /// metres, some of them on hops too, so the order's tie-breaks decide.
    fn ties(n: usize, seed: u64) -> Bench {
        let mut rng = TestRng::deterministic(&format!("rwa_oracle::ties::{seed}"));
        let mut net = PhotonicNetwork::new(ChannelGrid::C_BAND_40);
        let nodes: Vec<RoadmId> = (0..n).map(|i| net.add_roadm(format!("t{i}"))).collect();
        let km = |rng: &mut TestRng| [40.0, 80.0][rng.below(2) as usize];
        for i in 0..n {
            net.link(nodes[i], nodes[(i + 1) % n], km(&mut rng))
                .unwrap();
        }
        for _ in 0..n {
            let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            if a != b && net.fiber_between(nodes[a], nodes[b]).is_none() {
                net.link(nodes[a], nodes[b], km(&mut rng)).unwrap();
            }
        }
        for (i, &node) in nodes.iter().enumerate() {
            net.add_transponders(node, LineRate::Gbps10, 3).unwrap();
            if i % 3 == 0 {
                net.add_regen(node, LineRate::Gbps10).unwrap();
            }
        }
        // One region and no backbone: valid, and it admits every node.
        Bench::new(net, RegionMap::new(vec![0; n]), nodes)
    }

    fn new(net: PhotonicNetwork, map: RegionMap, nodes: Vec<RoadmId>) -> Bench {
        let mut engines = Vec::new();
        for region in [false, true] {
            for use_cache in [false, true] {
                let mut e = PathEngine::new();
                if region {
                    e.install_region_map(&net, map.clone()).unwrap();
                    if use_cache {
                        e.set_cache_capacity(8);
                    }
                }
                engines.push((e, use_cache));
            }
        }
        let mut ctl = Controller::new(net, ControllerConfig::default());
        ctl.install_region_map(map).unwrap();
        let customer = ctl.register_tenant("oracle", DataRate::from_gbps(1_000_000));
        Bench {
            ctl,
            customer,
            nodes,
            reference: reference::ReferenceEngine::default(),
            engines,
            live: Vec::new(),
            cut: Vec::new(),
        }
    }

    /// Two distinct endpoints drawn from `arg`.
    fn pair(&self, arg: u64) -> (RoadmId, RoadmId) {
        let n = self.nodes.len() as u64;
        let a = arg % n;
        let b = (a + 1 + (arg / n) % (n - 1)) % n;
        (self.nodes[a as usize], self.nodes[b as usize])
    }

    /// Every engine's Yen search equals the reference's.
    fn query(&mut self, a: RoadmId, b: RoadmId, k: usize) {
        let net = &self.ctl.net;
        let want = self.reference.yen(net, a, b, k);
        for (e, use_cache) in &mut self.engines {
            let got = e.k_shortest_paths(net, a, b, k, *use_cache);
            assert_eq!(got, want, "{a}→{b} k={k} cache={use_cache} {e:?}");
        }
    }

    /// Every engine's plan equals the reference's.
    fn plan(&mut self, a: RoadmId, b: RoadmId, cfg: RwaConfig, excluded: &[FiberId]) {
        let net = &self.ctl.net;
        let want = self
            .reference
            .plan_wavelength(net, &cfg, a, b, LineRate::Gbps10, excluded);
        for (e, use_cache) in &mut self.engines {
            let cfg = RwaConfig {
                use_route_cache: *use_cache,
                ..cfg
            };
            let got = e.plan_wavelength(net, &cfg, a, b, LineRate::Gbps10, excluded);
            assert_eq!(got, want, "{a}→{b} excluding {excluded:?} {cfg:?} {e:?}");
        }
    }

    /// Light a wavelength through the controller; what it claimed is the
    /// reference's plan.
    fn claim(&mut self, a: RoadmId, b: RoadmId) {
        let cfg = self.ctl.config().rwa;
        let want = self
            .reference
            .plan_wavelength(&self.ctl.net, &cfg, a, b, LineRate::Gbps10, &[]);
        match self
            .ctl
            .request_wavelength(self.customer, a, b, LineRate::Gbps10)
        {
            Ok(id) => {
                let conn = self.ctl.connection(id).unwrap();
                match &conn.resources {
                    Some(Resources::Wavelength(plan)) => assert_eq!(Ok(plan), want.as_ref()),
                    other => panic!("{id} holds {other:?}"),
                }
                self.live.push(id);
            }
            Err(RequestError::Rwa(e)) => assert_eq!(Err(e), want),
            Err(e) => panic!("{a}→{b} refused: {e}"),
        }
    }

    fn release(&mut self, arg: u64) {
        if self.live.is_empty() {
            return;
        }
        let id = self.live.swap_remove(arg as usize % self.live.len());
        self.ctl.request_teardown(id).unwrap();
        self.ctl.run_until_idle();
    }

    /// Cut the first up fiber at or after the one `arg` names; the epoch
    /// moves.
    fn cut(&mut self, arg: u64) {
        let fibers = self.ctl.net.fiber_count();
        let up = (0..fibers)
            .map(|i| FiberId::from_index((arg as usize + i) % fibers))
            .find(|f| self.ctl.net.fiber(*f).is_up());
        if let Some(f) = up {
            self.ctl.net.fiber_mut(f).cut_at(0);
            self.cut.push(f);
        }
    }

    fn repair(&mut self, arg: u64) {
        if !self.cut.is_empty() {
            let f = self.cut.swap_remove(arg as usize % self.cut.len());
            self.ctl.net.fiber_mut(f).restore();
        }
    }

    /// An exclusion set: a path the reference would take, or a few
    /// fibers drawn from `arg`.
    fn exclusions(&mut self, a: RoadmId, b: RoadmId, arg: u64) -> Vec<FiberId> {
        let fibers = self.ctl.net.fiber_count() as u64;
        match arg % 3 {
            0 => Vec::new(),
            1 => self
                .reference
                .yen(&self.ctl.net, a, b, 1)
                .pop()
                .unwrap_or_default(),
            _ => (0..1 + arg % 7)
                .map(|i| FiberId::from_index(((arg >> 8) + i * 97) as usize % fibers as usize))
                .collect(),
        }
    }

    /// Apply one operation and compare what it returned.
    fn step(&mut self, kind: u8, arg: u64) {
        let (a, b) = self.pair(arg);
        let k = 1 + (arg >> 32) as usize % 6;
        match kind % KINDS {
            0..=3 => self.query(a, b, k),
            4..=5 => {
                let excluded = self.exclusions(a, b, arg >> 40);
                // A tight reach makes most long candidates need regens.
                let reach = match (arg >> 48) % 3 {
                    0 => ReachModel::default(),
                    1 => ReachModel {
                        km_10g: 600.0,
                        ..ReachModel::default()
                    },
                    _ => ReachModel {
                        km_10g: 250.0,
                        ..ReachModel::default()
                    },
                };
                let cfg = RwaConfig {
                    k_paths: k,
                    reach,
                    ..RwaConfig::default()
                };
                self.plan(a, b, cfg, &excluded);
            }
            6..=7 => self.claim(a, b),
            8 => self.release(arg),
            9 => self.cut(arg),
            10 => self.repair(arg),
            // Ask again for a pair just asked for: the cache's hit path.
            _ => {
                let (a, b) = self.pair(arg % 4);
                self.query(a, b, 4);
            }
        }
    }
}

impl Bench {
    /// Run `ops`, then release everything and repair every cut: still
    /// identical.
    fn drive(&mut self, ops: Vec<(u8, u64)>) {
        for (kind, arg) in ops {
            self.step(kind, arg);
        }
        while !self.live.is_empty() {
            self.release(0);
        }
        while !self.cut.is_empty() {
            self.repair(0);
        }
        for arg in 0..8 {
            let (a, b) = self.pair(arg * 7919);
            self.query(a, b, 6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving on a generated plant, compared after every call.
    #[test]
    fn path_engine_matches_the_reference_planner(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
    ) {
        Bench::generated(&GeneratorConfig::with_target_roadms(100, seed), false).drive(ops);
    }

    /// The same on a small mesh whose candidates tie on metres and hops.
    #[test]
    fn path_engine_matches_the_reference_planner_on_ties(
        n in 8usize..30,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
    ) {
        Bench::ties(n, seed).drive(ops);
    }
}

/// `lambda-cold`'s shape: uniform interior endpoints on 600 ROADMs with
/// eight transponders a node, 20 000 queries (plans, searches and claims)
/// and 40 cuts, one repaired whenever more than ten are down.
#[test]
#[ignore = "600-ROADM soak; CI runs it in release"]
fn soak_lambda_cold_plant() {
    let gen = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(600, 0xB0D)
    };
    let mut bench = Bench::generated(&gen, true);
    let mut rng = TestRng::deterministic("rwa_oracle::soak");
    let cfg = RwaConfig::default();
    for i in 0..20_000u32 {
        let arg = rng.next_u64();
        let (a, b) = bench.pair(arg);
        match i % 4 {
            0 => bench.claim(a, b),
            1 => bench.query(a, b, 1 + (arg >> 32) as usize % 6),
            _ => bench.plan(a, b, cfg, &[]),
        }
        if bench.live.len() > 64 {
            bench.release(arg >> 16);
        }
        if i % 500 == 499 {
            bench.cut(arg >> 8);
            if bench.cut.len() > 10 {
                bench.repair(0);
            }
        }
    }
}
