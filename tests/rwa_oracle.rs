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
//!
//! A plan reads Yen's candidates one at a time and caches only the prefix
//! it read, under the same `(a, b, k)` key a query uses. Fixed NSFNET
//! cases run before the random ones for the orders the random driver
//! rarely reaches: a query after a plan, a cached prefix whose every path
//! has gone dark, and a refusal that must still count all `k`
//! candidates. The prefix property the lazy search rests on, and the
//! Dijkstra count, are checked last.

#[path = "support/reference_rwa.rs"]
mod reference;

use griphon::connection::Resources;
use griphon::rwa::{PathEngine, RegionMap, RwaConfig, RwaError};
use griphon::{ConnectionId, Controller, ControllerConfig, CustomerId, RequestError};
use photonic::{
    generate, ChannelGrid, FiberId, GeneratorConfig, LineRate, PhotonicNetwork, ReachModel,
    RoadmId, TransponderId,
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

    /// The NSFNET backbone as one region, and its Seattle → Princeton
    /// pair, which has more than `k_paths` candidates.
    fn nsfnet() -> (Bench, RoadmId, RoadmId) {
        let net = PhotonicNetwork::nsfnet(8, LineRate::Gbps10, 3);
        let nodes: Vec<RoadmId> = net.roadm_ids().collect();
        let (a, b) = (nodes[0], net.roadm_by_name("Princeton").unwrap());
        let map = RegionMap::new(vec![0; nodes.len()]);
        (Bench::new(net, map, nodes), a, b)
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

    /// Every cached engine's `(hits, misses)`.
    fn assert_cache_stats(&self, want: (u64, u64)) {
        for (e, use_cache) in &self.engines {
            let want = if *use_cache { want } else { (0, 0) };
            assert_eq!(e.cache_stats(), want, "{e:?}");
        }
    }

    /// For `1 ≤ i ≤ k ≤ 8`, the first `i` paths of a `k`-path search are
    /// the `i`-path search, on every uncached engine and the reference;
    /// and each engine's search runs exactly one Dijkstra, plus one per
    /// hop of every accepted path it spurred from (all but the last when
    /// `k` came back).
    fn check_prefixes(&mut self, a: RoadmId, b: RoadmId) {
        let net = &self.ctl.net;
        for (e, _) in self.engines.iter_mut().filter(|(_, cached)| !cached) {
            let searches: Vec<Vec<Vec<FiberId>>> = (1..=8)
                .map(|k| {
                    let before = e.dijkstra_runs();
                    let paths = e.k_shortest_paths(net, a, b, k, false);
                    let spurred = &paths[..paths.len().min(k - 1)];
                    let hops: usize = spurred.iter().map(Vec::len).sum();
                    assert_eq!(e.dijkstra_runs() - before, 1 + hops as u64, "{a}→{b} k={k}");
                    paths
                })
                .collect();
            assert_prefixes(&searches, a, b);
        }
        let reference: Vec<_> = (1..=8).map(|k| self.reference.yen(net, a, b, k)).collect();
        assert_prefixes(&reference, a, b);
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
            // Plan, then ask for a pair just asked for: the cache's hit
            // path, on an entry a plan may have left incomplete.
            _ => {
                let (a, b) = self.pair(arg % 4);
                self.plan(a, b, RwaConfig::default(), &[]);
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

/// `searches[k - 1]` is a `k`-path search; each one's first `i` paths are
/// the `i`-path search.
fn assert_prefixes(searches: &[Vec<Vec<FiberId>>], a: RoadmId, b: RoadmId) {
    for (k, long) in (1..).zip(searches) {
        for (i, short) in (1..=k).zip(searches) {
            assert_eq!(&long[..i.min(long.len())], short, "{a}→{b} i={i} k={k}");
        }
    }
}

/// Occupy every wavelength of fibre `f` at its `a` end, as a channel
/// still being configured does.
fn fill(net: &mut PhotonicNetwork, f: FiberId) {
    let (end, channels) = (net.fiber(f).a, net.grid.wavelengths());
    let degree = net.roadm(end).degree_to(f).unwrap();
    let roadm = net.roadm_mut(end);
    for w in channels {
        let port = roadm.add_port();
        roadm.attach_transponder(port, TransponderId::new(u32::MAX - u32::from(w.0)));
        roadm.connect_add_drop(port, w, degree).unwrap();
    }
}

/// A plan caches a prefix under the key a query uses: a query after it
/// must search past the prefix, and a plan after a query reads the
/// query's whole entry.
fn plans_and_queries_share_entries() {
    let (mut bench, a, b) = Bench::nsfnet();
    let cfg = RwaConfig::default();
    assert_eq!(bench.reference.yen(&bench.ctl.net, a, b, 4).len(), 4);
    bench.plan(a, b, cfg, &[]);
    bench.query(a, b, cfg.k_paths);
    bench.query(b, a, cfg.k_paths);
    bench.plan(b, a, cfg, &[]);
    bench.assert_cache_stats((2, 2));
}

/// A hit whose cached paths all fail searches on: fill the first
/// candidate's wavelengths after a plan cached it alone.
fn a_hit_searches_past_a_failed_prefix() {
    let (mut bench, a, b) = Bench::nsfnet();
    let cfg = RwaConfig::default();
    bench.plan(a, b, cfg, &[]);
    let paths = bench.reference.yen(&bench.ctl.net, a, b, 2);
    let only_first = paths[0].iter().find(|f| !paths[1].contains(f)).unwrap();
    fill(&mut bench.ctl.net, *only_first);
    let net = &bench.ctl.net;
    let want = bench
        .reference
        .plan_wavelength(net, &cfg, a, b, LineRate::Gbps10, &[])
        .unwrap();
    assert_ne!(
        want.path, paths[0],
        "the plan must take candidate 1 or later"
    );
    bench.plan(a, b, cfg, &[]);
    bench.assert_cache_stats((1, 1));
}

/// With no transponder left at one end, a refusal still counts every
/// candidate of the full search, though the cache holds one.
fn a_refusal_counts_every_candidate() {
    let (mut bench, a, b) = Bench::nsfnet();
    let cfg = RwaConfig::default();
    bench.plan(a, b, cfg, &[]);
    for i in 0..8 {
        bench.claim(a, bench.nodes[1 + i]);
    }
    let net = &bench.ctl.net;
    assert!(net.first_idle_ot_at(a, LineRate::Gbps10).is_none());
    let want = bench
        .reference
        .plan_wavelength(net, &cfg, a, b, LineRate::Gbps10, &[]);
    assert_eq!(want, Err(RwaError::Blocked { candidates: 4 }));
    bench.plan(a, b, cfg, &[]);
    bench.assert_cache_stats((1, 1));
}

/// Any interleaving on a generated plant, compared after every call;
/// the fixed cases first.
#[test]
fn path_engine_matches_the_reference_planner() {
    plans_and_queries_share_entries();
    a_hit_searches_past_a_failed_prefix();
    a_refusal_counts_every_candidate();
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        fn path_engine_matches_the_reference_planner(
            seed in any::<u64>(),
            ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
        ) {
            Bench::generated(&GeneratorConfig::with_target_roadms(100, seed), false).drive(ops);
        }
    }
    path_engine_matches_the_reference_planner();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The prefix property and the eager Dijkstra count on generated
    /// plants.
    #[test]
    fn yen_prefixes_are_searches_on_generated_plants(
        seed in any::<u64>(),
        pairs in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut bench = Bench::generated(&GeneratorConfig::with_target_roadms(100, seed), false);
        for arg in pairs {
            let (a, b) = bench.pair(arg);
            bench.check_prefixes(a, b);
        }
    }

    /// The same on meshes whose candidates tie on metres and hops.
    #[test]
    fn yen_prefixes_are_searches_on_ties(
        n in 8usize..30,
        seed in any::<u64>(),
        pairs in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut bench = Bench::ties(n, seed);
        for arg in pairs {
            let (a, b) = bench.pair(arg);
            bench.check_prefixes(a, b);
        }
    }
}

/// On an idle plant of `lambda-cold`'s shape (100 ROADMs, eight
/// transponders a node, interior endpoints) every cold plan's first
/// candidate passes: 200 plans between distinct pairs run 200 Dijkstra
/// searches, and each takes the shortest path.
#[test]
fn a_cold_plan_whose_first_candidate_passes_runs_one_search() {
    let plant = generate(&GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(100, 0xB0D11)
    });
    let nodes: Vec<RoadmId> = plant.interior.iter().flatten().copied().collect();
    let mut engines = [PathEngine::new(), PathEngine::new()];
    for e in &mut engines {
        e.install_region_map(&plant.net, RegionMap::new(plant.region_of.clone()))
            .unwrap();
    }
    let [engine, shortest] = &mut engines;
    let mut rng = TestRng::deterministic("rwa_oracle::cold_plans");
    let mut pairs = Vec::new();
    while pairs.len() < 200 {
        let n = nodes.len() as u64;
        let (a, b) = (nodes[rng.below(n) as usize], nodes[rng.below(n) as usize]);
        if a != b && !pairs.contains(&(a, b)) {
            pairs.push((a, b));
        }
    }
    let cfg = RwaConfig::default();
    for &(a, b) in &pairs {
        let plan = engine
            .plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[])
            .unwrap();
        assert_eq!(
            plan.path,
            shortest.k_shortest_paths(&plant.net, a, b, 1, false)[0]
        );
    }
    assert_eq!(engine.cache_stats(), (0, 200));
    assert_eq!(engine.dijkstra_runs(), 200);
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
