//! Routing and wavelength assignment (RWA).
//!
//! The controller's path-selection engine:
//!
//! - **Routing** — Yen's k-shortest-paths over the up-fiber graph,
//!   weighted by route kilometres (carrier practice: distance ≈ latency ≈
//!   cost). Candidates are produced on demand, shortest first, and
//!   examined until one passes wavelength, transponder, reach and regen
//!   checks, so the controller naturally prefers short paths but degrades
//!   gracefully under contention — and pays for the second path only when
//!   the first fails.
//! - **Wavelength assignment** — first-fit with the continuity
//!   constraint: one wavelength free on *every* fiber of the path.
//!   (First-fit is the classic low-blocking heuristic; the ROADM layer's
//!   conflict detection guarantees safety regardless.)
//! - **Reach** — paths whose transparent length exceeds the rate's reach
//!   budget get regens inserted at intermediate nodes, consuming from the
//!   per-node regen pools ([`photonic::ReachModel`] decides where).
//!   Regens here are same-wavelength 3R devices: wavelength conversion is
//!   *not* modelled, so continuity holds end-to-end.
//! - **Disjoint paths** — for 1+1 protection, bridge-and-roll and
//!   shared-mesh backup planning, a link-disjoint second path is found by
//!   pruning the first path's fibers and re-routing.
//!
//! The heavy lifting lives in [`PathEngine`]: a per-fiber weight table
//! and a route cache, both invalidated for free by the network's
//! [topology epoch](PhotonicNetwork::topology_epoch); epoch-stamped
//! Dijkstra scratch buffers; and one reusable arena holding every Yen
//! path as a span, deduplicated and excluded by scanning those spans. A
//! cache entry is the prefix of a search that a plan or query read. A
//! warm engine allocates only what a call returns or caches. The free
//! functions remain as thin wrappers for one-shot callers.

use photonic::{
    FiberId, LineRate, PhotonicNetwork, ReachModel, RegenId, RoadmId, TransponderId, Wavelength,
};

/// Region partition of a plant for region-restricted path search.
///
/// Nodes are either interior to exactly one region or part of the
/// backbone transit core (`RegionMap::BACKBONE`). The map is only
/// *installed* after [`RegionMap::validate`] proves the single-gateway
/// invariant: every region's interior touches the rest of the plant
/// through exactly one backbone hub. Under that invariant a simple path
/// can never cross a third region's interior, so restricting Dijkstra /
/// Yen to `{region(src), region(dst), backbone}` returns **exactly** the
/// paths a whole-plant search would — the restriction is a pure search-
/// space reduction (per-query cost tracks region size, not plant size),
/// never a heuristic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    /// Region id per ROADM index; [`RegionMap::BACKBONE`] marks hubs.
    region_of: Vec<u16>,
}

impl RegionMap {
    /// Region id of backbone transit hubs (members of every search).
    pub(crate) const BACKBONE: u16 = u16::MAX;

    /// Wrap a per-node region assignment (one entry per ROADM index).
    pub fn new(region_of: Vec<u16>) -> RegionMap {
        RegionMap { region_of }
    }

    /// The region of a node.
    pub fn region(&self, n: RoadmId) -> u16 {
        self.region_of[n.index()]
    }

    /// Is `node` admissible for a query between regions `ra` and `rb`?
    #[inline]
    fn admits(&self, node: RoadmId, ra: u16, rb: u16) -> bool {
        let r = self.region_of[node.index()];
        r == ra || r == rb || r == Self::BACKBONE
    }

    /// Prove the single-gateway invariant against a plant:
    ///
    /// 1. the map covers every node;
    /// 2. no fiber connects two *different* region interiors directly;
    /// 3. each region's interior is adjacent to exactly one backbone hub.
    ///
    /// Returns the offending condition as text on failure; installation
    /// into a [`PathEngine`] refuses maps that fail, because restricted
    /// search is only exact under this invariant.
    pub fn validate(&self, net: &PhotonicNetwork) -> Result<(), String> {
        if self.region_of.len() != net.roadm_count() {
            return Err(format!(
                "region map covers {} nodes, plant has {}",
                self.region_of.len(),
                net.roadm_count()
            ));
        }
        let regions = self
            .region_of
            .iter()
            .filter(|&&r| r != Self::BACKBONE)
            .map(|&r| r as usize + 1)
            .max()
            .unwrap_or(0);
        let mut gateway: Vec<Option<RoadmId>> = vec![None; regions];
        for f in net.fiber_ids() {
            let l = net.fiber(f);
            let (ra, rb) = (self.region_of[l.a.index()], self.region_of[l.b.index()]);
            if ra == rb {
                continue;
            }
            if ra != Self::BACKBONE && rb != Self::BACKBONE {
                return Err(format!("{f} connects interiors of regions {ra} and {rb}"));
            }
            let (hub, region) = if ra == Self::BACKBONE {
                (l.a, rb)
            } else {
                (l.b, ra)
            };
            match gateway[region as usize] {
                None => gateway[region as usize] = Some(hub),
                Some(h) if h == hub => {}
                Some(h) => {
                    return Err(format!(
                        "region {region} reaches the backbone through both {h} and {hub}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A fully resolved wavelength-connection plan, ready to provision.
#[derive(Debug, Clone, PartialEq)]
pub struct WavelengthPlan {
    /// End-to-end fiber sequence.
    pub path: Vec<FiberId>,
    /// The assigned wavelength (continuity holds end-to-end).
    pub lambda: Wavelength,
    /// Transponder at the source node.
    pub ot_src: TransponderId,
    /// Transponder at the destination node.
    pub ot_dst: TransponderId,
    /// Regens claimed at intermediate nodes (reach extension).
    pub regens: Vec<RegenId>,
}

impl WavelengthPlan {
    /// Number of hops (fibers) in the path.
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// Why no plan could be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RwaError {
    /// No route exists between the endpoints over up fibers.
    NoRoute,
    /// Routes exist, but none passed wavelength + OT + regen checks.
    /// Carries the number of candidate paths examined.
    Blocked {
        /// Candidates that were examined and rejected.
        candidates: usize,
    },
}

impl std::fmt::Display for RwaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RwaError::NoRoute => write!(f, "no route"),
            RwaError::Blocked { candidates } => {
                write!(f, "blocked after {candidates} candidate paths")
            }
        }
    }
}

impl std::error::Error for RwaError {}

/// `(length_km, metres)` of one fiber: metres is exactly
/// `(length_km * 1000.0) as u64`, or [`DOWN`] for a fiber that is not up.
type FiberWeight = (f64, u64);

/// The metres of a fiber that cannot carry traffic.
const DOWN: u64 = u64::MAX;

/// The engine's copy of every fiber's weight, so a Dijkstra relaxation
/// reads one flat array instead of re-summing the fiber's spans. It is
/// valid for the `(topology epoch, fiber count)` it was built at — the
/// route cache's own validity rule, since every fiber mutation goes
/// through `fiber_mut` or `link` and both bump the epoch.
#[derive(Debug, Default)]
struct FiberWeights {
    built_for: Option<(u64, usize)>,
    weights: Vec<FiberWeight>,
    builds: u64,
}

impl FiberWeights {
    /// Rebuild the table if `net` has moved on since it was built.
    fn refresh(&mut self, net: &PhotonicNetwork) -> &[FiberWeight] {
        let key = (net.topology_epoch(), net.fiber_count());
        if self.built_for != Some(key) {
            self.weights.clear();
            self.weights.extend(net.fiber_ids().map(|f| {
                let link = net.fiber(f);
                let km = link.length_km();
                let metres = if link.is_up() {
                    (km * 1000.0) as u64
                } else {
                    DOWN
                };
                (km, metres)
            }));
            self.built_for = Some(key);
            self.builds += 1;
        }
        &self.weights
    }
}

/// What one search reads: the plant's adjacency, the weight table and the
/// optional region restriction.
struct Graph<'a> {
    net: &'a PhotonicNetwork,
    weights: &'a [FiberWeight],
    allowed: RegionFilter<'a>,
}

impl<'a> Graph<'a> {
    /// The graph for a `from → to` query, refreshing the weight table
    /// first and restricting the search to the endpoint regions plus the
    /// backbone when a partition is installed.
    fn over(
        net: &'a PhotonicNetwork,
        weights: &'a mut FiberWeights,
        map: Option<&'a RegionMap>,
        from: RoadmId,
        to: RoadmId,
    ) -> Graph<'a> {
        Graph {
            net,
            weights: weights.refresh(net),
            allowed: map.map(|m| (m, m.region(from), m.region(to))),
        }
    }

    /// Route kilometres of `path`, summed left to right as
    /// [`PhotonicNetwork::path_km`] sums them.
    fn path_km(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|f| self.weights[f.index()].0).sum()
    }
}

/// Reusable Dijkstra state: distance/predecessor arrays indexed by node,
/// exclusion marks indexed by node/fiber, and the frontier heap. Validity
/// is tracked by an epoch *stamp* — a slot is live only if its stamp
/// matches the current run's, so "clearing" all arrays between runs is a
/// single counter increment, and nothing is allocated per call once the
/// vectors have grown to the network size.
#[derive(Debug, Default)]
struct DijkstraScratch {
    /// Searches run: the planner's work count.
    runs: u64,
    stamp: u64,
    /// Distance from the source in metres; valid iff `dist_stamp` matches.
    dist: Vec<u64>,
    dist_stamp: Vec<u64>,
    /// `(predecessor node, arriving fiber)`; valid iff `prev_stamp` matches.
    prev: Vec<(RoadmId, FiberId)>,
    prev_stamp: Vec<u64>,
    /// A node/fiber is excluded from this run iff its mark matches.
    node_excluded: Vec<u64>,
    fiber_excluded: Vec<u64>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, RoadmId)>>,
}

/// The per-query region restriction handed down to the Dijkstra scratch:
/// the installed map plus the two endpoint regions whose interiors (and
/// the backbone) are admissible. `None` searches the whole plant.
type RegionFilter<'a> = Option<(&'a RegionMap, u16, u16)>;

impl DijkstraScratch {
    /// Dijkstra by km over up fibers, with exclusion sets and an optional
    /// region restriction. Appends the fiber sequence to `out` and returns
    /// whether a path exists. Distances use integer metres for exact `Ord`.
    fn shortest_path(
        &mut self,
        g: &Graph<'_>,
        from: RoadmId,
        to: RoadmId,
        excluded_fibers: &[FiberId],
        excluded_nodes: &[RoadmId],
        out: &mut Vec<FiberId>,
    ) -> bool {
        use std::cmp::Reverse;

        let nodes = g.net.roadm_count();
        let fibers = g.net.fiber_count();
        if self.dist.len() < nodes {
            self.dist.resize(nodes, 0);
            self.dist_stamp.resize(nodes, 0);
            self.prev.resize(nodes, (RoadmId::new(0), FiberId::new(0)));
            self.prev_stamp.resize(nodes, 0);
            self.node_excluded.resize(nodes, 0);
        }
        if self.fiber_excluded.len() < fibers {
            self.fiber_excluded.resize(fibers, 0);
        }
        self.runs += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        for f in excluded_fibers {
            self.fiber_excluded[f.index()] = stamp;
        }
        for n in excluded_nodes {
            self.node_excluded[n.index()] = stamp;
        }
        self.heap.clear();
        self.dist[from.index()] = 0;
        self.dist_stamp[from.index()] = stamp;
        self.heap.push(Reverse((0u64, from)));
        while let Some(Reverse((d, n))) = self.heap.pop() {
            if n == to {
                break;
            }
            if self.dist_stamp[n.index()] == stamp && self.dist[n.index()] < d {
                continue; // stale heap entry
            }
            for &(fid, m) in g.net.neighbors(n) {
                let metres = g.weights[fid.index()].1;
                if metres == DOWN
                    || self.fiber_excluded[fid.index()] == stamp
                    || self.node_excluded[m.index()] == stamp
                {
                    continue;
                }
                if let Some((map, ra, rb)) = g.allowed {
                    if !map.admits(m, ra, rb) {
                        continue;
                    }
                }
                let nd = d + metres;
                let mi = m.index();
                if self.dist_stamp[mi] != stamp || nd < self.dist[mi] {
                    self.dist[mi] = nd;
                    self.dist_stamp[mi] = stamp;
                    self.prev[mi] = (n, fid);
                    self.prev_stamp[mi] = stamp;
                    self.heap.push(Reverse((nd, m)));
                }
            }
        }
        if self.prev_stamp[to.index()] != stamp && from != to {
            return false;
        }
        let base = out.len();
        let mut cur = to;
        while cur != from {
            let (p, f) = self.prev[cur.index()];
            out.push(f);
            cur = p;
        }
        out[base..].reverse();
        true
    }
}

/// `(offset, len)` of one path inside a path buffer.
type Span = (u32, u32);

/// The fibers of the path at `span` in `buf`.
fn at(buf: &[FiberId], (off, len): Span) -> &[FiberId] {
    &buf[off as usize..(off + len) as usize]
}

/// A borrowed, ordered list of paths laid out as spans of one buffer: a
/// cache entry, or what the last search left in the arena.
#[derive(Clone, Copy)]
struct Paths<'a> {
    buf: &'a [FiberId],
    spans: &'a [Span],
}

impl<'a> Paths<'a> {
    fn iter(self) -> impl Iterator<Item = &'a [FiberId]> + Clone {
        self.spans.iter().map(move |&s| at(self.buf, s))
    }

    fn to_vecs(self) -> Vec<Vec<FiberId>> {
        self.iter().map(<[FiberId]>::to_vec).collect()
    }
}

/// Yen's working set, reused across searches. Every path the current
/// search generated — the first, each accepted one and every candidate —
/// lives in `arena` as a [`Span`], so neither a search nor its result
/// allocates once the vectors have grown. A search is resumable:
/// [`Search::begin`] accepts the shortest path and each
/// [`Search::advance`] one more, so a caller pays only for the paths it
/// reads.
#[derive(Debug, Default)]
struct Search {
    dijkstra: DijkstraScratch,
    arena: Vec<FiberId>,
    /// Every path generated so far, accepted or still a candidate.
    generated: Vec<Span>,
    /// The result, in acceptance order.
    accepted: Vec<Span>,
    /// `(metres, span)` of the candidates not yet accepted.
    candidates: Vec<(u64, Span)>,
    excluded_fibers: Vec<FiberId>,
    /// The nodes of the current root, source first.
    root_nodes: Vec<RoadmId>,
}

impl Search {
    fn paths(&self) -> Paths<'_> {
        Paths {
            buf: &self.arena,
            spans: &self.accepted,
        }
    }

    /// Start a search: the shortest path, if any, is the first accepted.
    fn begin(&mut self, g: &Graph<'_>, from: RoadmId, to: RoadmId) {
        self.arena.clear();
        self.generated.clear();
        self.accepted.clear();
        self.candidates.clear();
        if self
            .dijkstra
            .shortest_path(g, from, to, &[], &[], &mut self.arena)
        {
            let first = (0, self.arena.len() as u32);
            self.generated.push(first);
            self.accepted.push(first);
        }
    }

    /// One round of Yen's k-shortest-paths proper: spur paths are
    /// generated off the last accepted path, and the least candidate by
    /// `(metres, hops, fiber sequence)` is accepted. A spur avoids the
    /// next fiber of every generated path sharing its root, so it never
    /// regenerates one; the dedup scan below only confirms that. Returns
    /// `false`, accepting nothing, once no candidate is left.
    fn advance(&mut self, g: &Graph<'_>, from: RoadmId, to: RoadmId) -> bool {
        let Search {
            dijkstra,
            arena,
            generated,
            accepted,
            candidates,
            excluded_fibers,
            root_nodes,
        } = self;
        let Some(&(last_off, hops)) = accepted.last() else {
            return false;
        };
        let last = last_off as usize;
        root_nodes.clear();
        let mut spur_node = from;
        for spur_idx in 0..hops as usize {
            let root = last..last + spur_idx;
            // Exclude fibers that would regenerate a known path from this
            // root.
            excluded_fibers.clear();
            for &(off, len) in generated.iter() {
                let off = off as usize;
                if len as usize > spur_idx && arena[off..off + spur_idx] == arena[root.clone()] {
                    excluded_fibers.push(arena[off + spur_idx]);
                }
            }
            // Root then spur, appended in place; root nodes are excluded
            // to keep paths loop-free.
            let start = arena.len();
            arena.extend_from_within(root);
            let found =
                dijkstra.shortest_path(g, spur_node, to, excluded_fibers, root_nodes, arena);
            let total = (start as u32, (arena.len() - start) as u32);
            if found && !generated.iter().any(|&s| at(arena, s) == at(arena, total)) {
                let metres = (g.path_km(at(arena, total)) * 1000.0) as u64;
                generated.push(total);
                candidates.push((metres, total));
            } else {
                arena.truncate(start);
            }
            root_nodes.push(spur_node);
            spur_node = g.net.fiber(arena[last + spur_idx]).other_end(spur_node);
        }
        // Shortest candidate next (by km, then hop count, then fiber
        // sequence for a total deterministic order).
        let best = (0..candidates.len()).min_by(|&i, &j| {
            let ((mi, si), (mj, sj)) = (candidates[i], candidates[j]);
            (mi, si.1)
                .cmp(&(mj, sj.1))
                .then_with(|| at(arena, si).cmp(at(arena, sj)))
        });
        best.map(|i| accepted.push(candidates.swap_remove(i).1))
            .is_some()
    }

    /// Up to `k` paths from `from` to `to` (at least the first, if any).
    fn yen(&mut self, g: &Graph<'_>, from: RoadmId, to: RoadmId, k: usize) -> Paths<'_> {
        self.begin(g, from, to);
        while self.accepted.len() < k && self.advance(g, from, to) {}
        self.paths()
    }

    /// The shortest path avoiding `excluded`, as a one-path result.
    fn avoiding(
        &mut self,
        g: &Graph<'_>,
        from: RoadmId,
        to: RoadmId,
        excluded: &[FiberId],
    ) -> Paths<'_> {
        self.arena.clear();
        self.accepted.clear();
        if self
            .dijkstra
            .shortest_path(g, from, to, excluded, &[], &mut self.arena)
        {
            self.accepted.push((0, self.arena.len() as u32));
        }
        self.paths()
    }
}

/// Configuration of the RWA engine.
#[derive(Debug, Clone, Copy)]
pub struct RwaConfig {
    /// How many candidate paths a plan may examine: Yen's search yields
    /// them one at a time, shortest first, and a plan stops at the first
    /// that passes. Also the `k` of a plan's route-cache key.
    pub k_paths: usize,
    /// The reach model used for regen insertion.
    pub reach: ReachModel,
    /// Serve repeated `(src, dst, k)` route queries from the epoch-keyed
    /// cache. Results are identical either way (the cache is invalidated
    /// by any topology change); disabling only costs recomputation.
    pub use_route_cache: bool,
    /// Upper bound on resident route-cache entries. When full, the
    /// least-recently-used eighth of the entries (stale-epoch entries
    /// first) is evicted in one pass. Eviction only costs recomputation —
    /// results stay bit-identical — but keeps memory bounded on plants
    /// where the pair count dwarfs the working set.
    pub route_cache_capacity: usize,
}

impl Default for RwaConfig {
    fn default() -> Self {
        RwaConfig {
            k_paths: 4,
            reach: ReachModel::default(),
            use_route_cache: true,
            route_cache_capacity: 8_192,
        }
    }
}

/// The path-computation engine: a per-fiber weight table, reusable search
/// scratch, and a route cache keyed by `(src, dst, k)` whose entries hold
/// the prefix of the search that was read. The table and the
/// cache are both validated against the network's
/// [topology epoch](PhotonicNetwork::topology_epoch), so invalidation is
/// free and results are bit-identical with the cache on or off. One
/// engine serves one plant: two plants built by the same call sequence
/// share epochs.
///
/// The free functions [`k_shortest_paths`] and [`plan_wavelength`]
/// construct a throwaway engine per call; long-lived
/// callers (the controller) own one and amortise the table, the scratch
/// buffers and the cache across requests.
#[derive(Default)]
pub struct PathEngine {
    weights: FiberWeights,
    search: Search,
    cache: RouteCache,
    /// Regens picked for the candidate under evaluation.
    regens: Vec<RegenId>,
    /// Installed (validated) region partition, if any.
    region_map: Option<RegionMap>,
}

impl std::fmt::Debug for PathEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathEngine")
            .field("cache", &self.cache)
            .field("weight_table_builds", &self.weights.builds)
            .field("dijkstra_runs", &self.search.dijkstra.runs)
            .field("region_map", &self.region_map.is_some())
            .finish_non_exhaustive()
    }
}

type RouteKey = (RoadmId, RoadmId, usize);

/// One cached query: the prefix of its Yen search that was read, laid end
/// to end in one buffer. By the prefix property (Yen's path *i* depends
/// only on paths 0..*i*) it is exactly the first paths of the full
/// search; `complete` says the search reached `k` or ran out of paths.
struct CacheEntry {
    epoch: u64,
    last_used: u64,
    complete: bool,
    buf: Box<[FiberId]>,
    spans: Box<[Span]>,
}

impl CacheEntry {
    fn new(epoch: u64, last_used: u64, paths: Paths<'_>, complete: bool) -> CacheEntry {
        let mut buf = Vec::with_capacity(paths.iter().map(<[FiberId]>::len).sum());
        let spans = paths
            .iter()
            .map(|p| {
                let off = buf.len() as u32;
                buf.extend_from_slice(p);
                (off, p.len() as u32)
            })
            .collect();
        CacheEntry {
            epoch,
            last_used,
            complete,
            buf: buf.into_boxed_slice(),
            spans,
        }
    }

    fn paths(&self) -> Paths<'_> {
        Paths {
            buf: &self.buf,
            spans: &self.spans,
        }
    }
}

/// The route cache with its LRU clock, bound and counters. An entry holds
/// a prefix of its search ([`CacheEntry`]); a query that needs more than
/// the prefix still counts as a hit and overwrites the entry.
struct RouteCache {
    map: std::collections::HashMap<RouteKey, CacheEntry>,
    /// Monotonic access counter; every cache touch stamps the entry, so
    /// LRU eviction has a deterministic total order regardless of hash
    /// iteration order.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache {
            map: std::collections::HashMap::new(),
            tick: 0,
            capacity: RwaConfig::default().route_cache_capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("entries", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish_non_exhaustive()
    }
}

impl RouteCache {
    /// Count and stamp a query for `key` at `epoch`: a hit returns the
    /// current entry; a miss makes room for the one [`RouteCache::store`]
    /// writes when the query ends.
    fn lookup(&mut self, key: RouteKey, epoch: u64) -> Option<&CacheEntry> {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            self.evict_to_fit(epoch);
        }
        match self.map.get_mut(&key) {
            Some(e) if e.epoch == epoch => {
                self.hits += 1;
                e.last_used = self.tick;
                Some(e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Write the paths a query for `key` ended with, stamped with its tick.
    fn store(&mut self, key: RouteKey, epoch: u64, paths: Paths<'_>, complete: bool) {
        let entry = CacheEntry::new(epoch, self.tick, paths, complete);
        self.map.insert(key, entry);
    }

    /// Evict least-recently-used entries (stale-epoch entries first) so
    /// at least one slot is free; evicts in batches of ⅛ capacity so the
    /// O(entries) selection scan amortises across insertions.
    fn evict_to_fit(&mut self, current_epoch: u64) {
        let target = self.capacity.saturating_sub(self.capacity / 8).max(1) - 1;
        if self.map.len() <= target {
            return;
        }
        let mut victims: Vec<(bool, u64, RouteKey)> = self
            .map
            .iter()
            .map(|(k, e)| (e.epoch == current_epoch, e.last_used, *k))
            .collect();
        // Stale entries first (`false < true`), then oldest tick. Ticks
        // are unique, so the order — and therefore the evicted set — is
        // deterministic regardless of hash iteration order.
        victims.sort_unstable();
        for (_, _, k) in victims.iter().take(self.map.len() - target) {
            self.map.remove(k);
            self.evictions += 1;
        }
    }
}

/// Is `path`, walked from `from`, free of repeated nodes?
fn is_loop_free(net: &PhotonicNetwork, from: RoadmId, path: &[FiberId]) -> bool {
    let mut a = from;
    for (i, fa) in path.iter().enumerate() {
        let mut b = a;
        for fb in &path[i..] {
            b = net.fiber(*fb).other_end(b);
            if b == a {
                return false;
            }
        }
        a = net.fiber(*fa).other_end(a);
    }
    true
}

/// The plan over `path` if it passes the wavelength, reach and regen
/// checks, ending at the transponders `ots`. Only a passing path is
/// copied.
fn fit(
    g: &Graph<'_>,
    cfg: &RwaConfig,
    from: RoadmId,
    rate: LineRate,
    (ot_src, ot_dst): (TransponderId, TransponderId),
    path: &[FiberId],
    regens: &mut Vec<RegenId>,
) -> Option<WavelengthPlan> {
    let net = g.net;
    if path.is_empty() {
        return None;
    }
    debug_assert!(is_loop_free(net, from, path), "loop in {path:?}");
    // Wavelength continuity.
    let lambda = net.first_free_lambda(path)?;
    // Reach: the first free regen at every node the reach model names. A
    // loop-free path names each node at most once.
    regens.clear();
    let (mut node, mut walked) = (from, 0);
    let hop_km = path.iter().map(|f| g.weights[f.index()].0);
    let placed = cfg.reach.place_regens(rate, hop_km, |p| {
        for f in &path[walked..=p] {
            node = net.fiber(*f).other_end(node);
        }
        walked = p + 1;
        net.first_free_regen_at(node, rate)
            .map(|r| regens.push(r))
            .is_some()
    });
    placed.then(|| WavelengthPlan {
        path: path.to_vec(),
        lambda,
        ot_src,
        ot_dst,
        regens: regens.clone(),
    })
}

/// Why a query all of whose candidates failed gets no plan: `NoRoute`
/// when its search found no path, else `Blocked` over every candidate.
fn refusal(paths: Paths<'_>) -> RwaError {
    match paths.iter().filter(|p| !p.is_empty()).count() {
        0 => RwaError::NoRoute,
        candidates => RwaError::Blocked { candidates },
    }
}

/// Route-cache occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteCacheStats {
    /// Queries served from the cache.
    pub hits: u64,
    /// Queries that had to run Yen's search.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

impl RouteCacheStats {
    /// Hit rate in [0, 1]; 0 when no queries have been made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl PathEngine {
    /// A fresh engine with empty scratch and cache.
    pub fn new() -> PathEngine {
        PathEngine::default()
    }

    /// `(cache hits, cache misses)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Full route-cache counters (hits, misses, evictions, occupancy).
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.cache.hits,
            misses: self.cache.misses,
            evictions: self.cache.evictions,
            entries: self.cache.map.len(),
            capacity: self.cache.capacity,
        }
    }

    /// How many times the per-fiber weight table has been (re)built: once
    /// per topology epoch the engine has planned at.
    pub fn weight_table_builds(&self) -> u64 {
        self.weights.builds
    }

    /// How many Dijkstra searches the engine has run: the planner's work
    /// count. A cache hit runs none; a cold plan whose first candidate
    /// passes runs one.
    pub fn dijkstra_runs(&self) -> u64 {
        self.search.dijkstra.runs
    }

    /// Publish the route-cache counters into a metrics family registry
    /// (`rwa_route_cache_events_total{event=…}` counters plus
    /// `rwa_route_cache_entries` / `_capacity` gauges). Adds the current
    /// totals, so hand it a freshly scraped registry.
    pub(crate) fn export_cache_metrics(&self, reg: &mut simcore::metrics::FamilyRegistry) {
        let s = self.route_cache_stats();
        reg.counter("rwa_route_cache_events_total", &[("event", "hit")])
            .add(s.hits);
        reg.counter("rwa_route_cache_events_total", &[("event", "miss")])
            .add(s.misses);
        reg.counter("rwa_route_cache_events_total", &[("event", "eviction")])
            .add(s.evictions);
        reg.gauge("rwa_route_cache_entries", &[])
            .set(s.entries as f64);
        reg.gauge("rwa_route_cache_capacity", &[])
            .set(s.capacity as f64);
    }

    /// Bound the route cache to `capacity` resident entries (evicts
    /// immediately if already above the new bound).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache.capacity = capacity.max(1);
        if self.cache.map.len() > self.cache.capacity {
            // No live epoch in hand: treat every entry as current and
            // evict purely by recency.
            self.cache.evict_to_fit(u64::MAX);
        }
    }

    /// Install a region partition after proving the single-gateway
    /// invariant against `net`; path search is then restricted to the
    /// endpoint regions plus the backbone (identical results, smaller
    /// search space — see [`RegionMap`]).
    pub fn install_region_map(
        &mut self,
        net: &PhotonicNetwork,
        map: RegionMap,
    ) -> Result<(), String> {
        map.validate(net)?;
        self.region_map = Some(map);
        Ok(())
    }

    /// A cold twin: empty table, scratch and cache, same capacity bound
    /// and region partition. What controller fork/failover uses — derived
    /// engine state is rebuilt on demand, configuration carries over.
    pub(crate) fn fresh_like(&self) -> PathEngine {
        PathEngine {
            cache: RouteCache {
                capacity: self.cache.capacity,
                ..RouteCache::default()
            },
            region_map: self.region_map.clone(),
            ..PathEngine::default()
        }
    }

    /// Yen's algorithm: up to `k` loop-free shortest paths by km,
    /// optionally served from the route cache.
    pub fn k_shortest_paths(
        &mut self,
        net: &PhotonicNetwork,
        from: RoadmId,
        to: RoadmId,
        k: usize,
        use_cache: bool,
    ) -> Vec<Vec<FiberId>> {
        let g = Graph::over(net, &mut self.weights, self.region_map.as_ref(), from, to);
        let (key, epoch) = ((from, to, k), net.topology_epoch());
        if use_cache {
            // A plan may have cached only a prefix: search again for the rest.
            if let Some(e) = self.cache.lookup(key, epoch).filter(|e| e.complete) {
                return e.paths().to_vecs();
            }
        }
        let paths = self.search.yen(&g, from, to, k);
        if use_cache {
            self.cache.store(key, epoch, paths, true);
        }
        paths.to_vecs()
    }

    /// Produce a provisionable plan for a wavelength connection of `rate`
    /// between `from` and `to`, avoiding `excluded` fibers (used by
    /// restoration and bridge-and-roll to force disjointness).
    ///
    /// Candidates come from Yen's search one at a time, shortest first,
    /// and the first of at most `cfg.k_paths` that passes wins; a refusal
    /// still counts all `k_paths`.
    ///
    /// Resources are only *identified*, not claimed — claiming is the
    /// controller's job, under its admission lock.
    pub fn plan_wavelength(
        &mut self,
        net: &PhotonicNetwork,
        cfg: &RwaConfig,
        from: RoadmId,
        to: RoadmId,
        rate: LineRate,
        excluded: &[FiberId],
    ) -> Result<WavelengthPlan, RwaError> {
        let g = Graph::over(net, &mut self.weights, self.region_map.as_ref(), from, to);
        let PathEngine {
            search,
            cache,
            regens,
            ..
        } = self;
        // Transponders at both ends: the same for every candidate.
        let ots = net
            .first_idle_ot_at(from, rate)
            .zip(net.first_idle_ot_at(to, rate));
        let mut fits =
            |path: &[FiberId]| ots.and_then(|ots| fit(&g, cfg, from, rate, ots, path, regens));
        if !excluded.is_empty() {
            // Route around exclusions: prune then search. (Not cached —
            // the exclusion set is part of the query.) Exclusions only
            // remove edges, so the region restriction stays exact.
            let paths = search.avoiding(&g, from, to, excluded);
            return paths.iter().find_map(fits).ok_or_else(|| refusal(paths));
        }
        let (k, key, epoch) = (cfg.k_paths, (from, to, cfg.k_paths), net.topology_epoch());
        // The cached prefix first, then the search past it.
        let mut tried = 0;
        if cfg.use_route_cache {
            if let Some(e) = cache.lookup(key, epoch) {
                if let Some(plan) = e.paths().iter().find_map(&mut fits) {
                    return Ok(plan);
                }
                if e.complete {
                    return Err(refusal(e.paths()));
                }
                tried = e.spans.len();
            }
        }
        // Pull accepted paths one at a time until one fits or `k` have been
        // read; the first `tried` were the cached ones, already checked.
        search.begin(&g, from, to);
        let mut i = 0;
        let plan = loop {
            if i == search.accepted.len() && (i >= k || !search.advance(&g, from, to)) {
                break None;
            }
            if i >= tried {
                if let Some(plan) = fits(at(&search.arena, search.accepted[i])) {
                    break Some(plan);
                }
            }
            i += 1;
        };
        let paths = search.paths();
        if cfg.use_route_cache {
            let complete = plan.is_none() || paths.spans.len() >= k;
            cache.store(key, epoch, paths, complete);
        }
        plan.ok_or_else(|| refusal(paths))
    }

    /// Find a link-disjoint pair of paths (working, protect) between two
    /// nodes, or `None` if the topology cannot supply one.
    pub fn disjoint_pair(
        &mut self,
        net: &PhotonicNetwork,
        from: RoadmId,
        to: RoadmId,
    ) -> Option<(Vec<FiberId>, Vec<FiberId>)> {
        let g = Graph::over(net, &mut self.weights, self.region_map.as_ref(), from, to);
        let dijkstra = &mut self.search.dijkstra;
        let (mut working, mut protect) = (Vec::new(), Vec::new());
        (dijkstra.shortest_path(&g, from, to, &[], &[], &mut working)
            && dijkstra.shortest_path(&g, from, to, &working, &[], &mut protect))
        .then_some((working, protect))
    }
}

/// Yen's algorithm: up to `k` loop-free shortest paths by km.
/// (Convenience wrapper over a throwaway [`PathEngine`].)
pub fn k_shortest_paths(
    net: &PhotonicNetwork,
    from: RoadmId,
    to: RoadmId,
    k: usize,
) -> Vec<Vec<FiberId>> {
    PathEngine::new().k_shortest_paths(net, from, to, k, false)
}

/// Produce a provisionable plan for a wavelength connection of `rate`
/// between `from` and `to`, avoiding `excluded` fibers.
/// (Convenience wrapper over a throwaway [`PathEngine`]; see
/// [`PathEngine::plan_wavelength`].)
pub fn plan_wavelength(
    net: &PhotonicNetwork,
    cfg: &RwaConfig,
    from: RoadmId,
    to: RoadmId,
    rate: LineRate,
    excluded: &[FiberId],
) -> Result<WavelengthPlan, RwaError> {
    PathEngine::new().plan_wavelength(net, cfg, from, to, rate, excluded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonic::PhotonicNetwork;

    #[test]
    fn yen_orders_testbed_paths_by_length() {
        let (net, ids) = PhotonicNetwork::testbed(2);
        let paths = k_shortest_paths(&net, ids.i, ids.iv, 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0], vec![ids.f_i_iv]); // 80 km
        assert_eq!(paths[1].len(), 2); // I–III–IV, 160 km
                                       // I–II–III–IV, 240 km
        assert_eq!(paths[2], vec![ids.f_i_ii, ids.f_ii_iii, ids.f_iii_iv]);
    }

    #[test]
    fn yen_respects_km_not_hop_count() {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        let c = net.add_roadm("c");
        // Direct but long vs two short hops.
        net.link(a, b, 1000.0).unwrap();
        net.link(a, c, 100.0).unwrap();
        net.link(c, b, 100.0).unwrap();
        let paths = k_shortest_paths(&net, a, b, 2);
        assert_eq!(paths[0].len(), 2, "two short hops beat one long");
        assert_eq!(paths[1].len(), 1);
    }

    #[test]
    fn plan_prefers_direct_route_and_first_fit() {
        let (net, ids) = PhotonicNetwork::testbed(2);
        let plan = plan_wavelength(
            &net,
            &RwaConfig::default(),
            ids.i,
            ids.iv,
            LineRate::Gbps10,
            &[],
        )
        .unwrap();
        assert_eq!(plan.path, vec![ids.f_i_iv]);
        assert_eq!(plan.lambda, Wavelength(0));
        assert!(plan.regens.is_empty());
        assert_eq!(plan.hops(), 1);
        assert_eq!(net.transponder(plan.ot_src).location, ids.i);
        assert_eq!(net.transponder(plan.ot_dst).location, ids.iv);
    }

    #[test]
    fn plan_detours_around_exclusions() {
        let (net, ids) = PhotonicNetwork::testbed(2);
        let plan = plan_wavelength(
            &net,
            &RwaConfig::default(),
            ids.i,
            ids.iv,
            LineRate::Gbps10,
            &[ids.f_i_iv],
        )
        .unwrap();
        assert_eq!(plan.path.len(), 2);
        assert!(!plan.path.contains(&ids.f_i_iv));
    }

    #[test]
    fn plan_fails_without_ots() {
        let (net, ids) = PhotonicNetwork::testbed(0);
        let err = plan_wavelength(
            &net,
            &RwaConfig::default(),
            ids.i,
            ids.iv,
            LineRate::Gbps10,
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, RwaError::Blocked { .. }));
    }

    #[test]
    fn plan_no_route_when_disconnected() {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        net.add_transponders(a, LineRate::Gbps10, 1).unwrap();
        net.add_transponders(b, LineRate::Gbps10, 1).unwrap();
        assert_eq!(
            plan_wavelength(&net, &RwaConfig::default(), a, b, LineRate::Gbps10, &[]),
            Err(RwaError::NoRoute)
        );
    }

    #[test]
    fn regens_inserted_on_long_paths() {
        // NSFNET Seattle→Princeton at 40G must regenerate.
        let net = PhotonicNetwork::nsfnet(4, LineRate::Gbps40, 4);
        let from = net.roadm_by_name("Seattle").unwrap();
        let to = net.roadm_by_name("Princeton").unwrap();
        let plan =
            plan_wavelength(&net, &RwaConfig::default(), from, to, LineRate::Gbps40, &[]).unwrap();
        assert!(
            !plan.regens.is_empty(),
            "a coast-to-coast 40G path needs regens"
        );
        // Every claimed regen is at an intermediate node of the path.
        let mut node = from;
        let inner: Vec<RoadmId> = plan.path[..plan.path.len() - 1]
            .iter()
            .map(|f| {
                node = net.fiber(*f).other_end(node);
                node
            })
            .collect();
        for r in &plan.regens {
            assert!(inner.contains(&net.regen(*r).location));
        }
    }

    #[test]
    fn plan_blocked_without_regens() {
        let net = PhotonicNetwork::nsfnet(4, LineRate::Gbps40, 0);
        let from = net.roadm_by_name("Seattle").unwrap();
        let to = net.roadm_by_name("Princeton").unwrap();
        // With k_paths=1 the only candidate needs regens and has none.
        let cfg = RwaConfig {
            k_paths: 1,
            ..RwaConfig::default()
        };
        assert!(matches!(
            plan_wavelength(&net, &cfg, from, to, LineRate::Gbps40, &[]),
            Err(RwaError::Blocked { .. })
        ));
    }

    #[test]
    fn disjoint_pair_on_testbed() {
        let (net, ids) = PhotonicNetwork::testbed(2);
        let (w, p) = PathEngine::new()
            .disjoint_pair(&net, ids.i, ids.iv)
            .unwrap();
        assert!(w.iter().all(|f| !p.contains(f)));
        assert_eq!(w, vec![ids.f_i_iv]);
    }

    #[test]
    fn disjoint_pair_none_on_tree() {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        net.link(a, b, 10.0).unwrap();
        assert!(PathEngine::new().disjoint_pair(&net, a, b).is_none());
    }

    #[test]
    fn route_cache_hits_until_topology_changes() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let mut engine = PathEngine::new();
        let a = engine.k_shortest_paths(&net, ids.i, ids.iv, 3, true);
        assert_eq!(engine.cache_stats(), (0, 1));
        let b = engine.k_shortest_paths(&net, ids.i, ids.iv, 3, true);
        assert_eq!(engine.cache_stats(), (1, 1));
        assert_eq!(a, b);
        // Cached result equals a fresh uncached computation.
        assert_eq!(b, k_shortest_paths(&net, ids.i, ids.iv, 3));
        // Any topology mutation bumps the epoch and invalidates the entry.
        net.fiber_mut(ids.f_i_iv).cut_at(0);
        let c = engine.k_shortest_paths(&net, ids.i, ids.iv, 3, true);
        assert_eq!(engine.cache_stats(), (1, 2));
        assert!(!c.iter().any(|p| p.contains(&ids.f_i_iv)));
        assert_eq!(c, k_shortest_paths(&net, ids.i, ids.iv, 3));
    }

    #[test]
    fn weight_table_follows_the_topology_epoch() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let mut engine = PathEngine::new();
        let before = engine.k_shortest_paths(&net, ids.i, ids.iv, 2, false);
        assert_eq!(before[0], vec![ids.f_i_iv]);
        engine.k_shortest_paths(&net, ids.i, ids.iii, 2, false);
        assert_eq!(engine.weight_table_builds(), 1);
        // A cut is seen without the cache's help.
        net.fiber_mut(ids.f_i_iv).cut_at(0);
        let after = engine.k_shortest_paths(&net, ids.i, ids.iv, 2, false);
        assert_eq!(engine.weight_table_builds(), 2);
        assert!(after.iter().all(|p| !p.contains(&ids.f_i_iv)));
        assert_eq!(after, k_shortest_paths(&net, ids.i, ids.iv, 2));
        // So is a new fiber.
        let e = net.add_roadm("e");
        net.link(ids.i, e, 5.0).unwrap();
        net.link(e, ids.iv, 5.0).unwrap();
        let detour = engine.k_shortest_paths(&net, ids.i, ids.iv, 1, false);
        assert_eq!(detour[0].len(), 2);
        assert_eq!(engine.weight_table_builds(), 3);
        assert_eq!(engine.fresh_like().weight_table_builds(), 0);
    }

    #[test]
    fn plans_identical_with_cache_on_and_off() {
        let net = PhotonicNetwork::nsfnet(4, LineRate::Gbps10, 2);
        let cached = RwaConfig::default();
        let uncached = RwaConfig {
            use_route_cache: false,
            ..RwaConfig::default()
        };
        let mut engine = PathEngine::new();
        for (from_name, to_name) in [
            ("Seattle", "Princeton"),
            ("PaloAlto", "Ithaca"),
            ("Seattle", "Princeton"), // repeat → served from cache
        ] {
            let from = net.roadm_by_name(from_name).unwrap();
            let to = net.roadm_by_name(to_name).unwrap();
            let with = engine.plan_wavelength(&net, &cached, from, to, LineRate::Gbps10, &[]);
            let without = engine.plan_wavelength(&net, &uncached, from, to, LineRate::Gbps10, &[]);
            assert_eq!(with, without);
        }
        let (hits, _) = engine.cache_stats();
        assert!(hits >= 1, "repeat query must hit the cache");
    }

    #[test]
    fn yen_scratch_reuse_is_clean_across_queries() {
        // Back-to-back queries on the same engine must not leak exclusion
        // marks or distances between runs.
        let net = PhotonicNetwork::nsfnet(2, LineRate::Gbps10, 0);
        let mut engine = PathEngine::new();
        for (a, b) in [("Seattle", "Princeton"), ("SanDiego", "Ithaca")] {
            let from = net.roadm_by_name(a).unwrap();
            let to = net.roadm_by_name(b).unwrap();
            let fresh = PathEngine::new().k_shortest_paths(&net, from, to, 4, false);
            let reused = engine.k_shortest_paths(&net, from, to, 4, false);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn cache_stays_bounded_and_counts_evictions() {
        let net = PhotonicNetwork::nsfnet(2, LineRate::Gbps10, 0);
        let mut engine = PathEngine::new();
        engine.set_cache_capacity(4);
        let nodes: Vec<RoadmId> = net.roadm_ids().collect();
        for &a in &nodes {
            for &b in &nodes {
                if a != b {
                    engine.k_shortest_paths(&net, a, b, 2, true);
                }
            }
        }
        let s = engine.route_cache_stats();
        assert!(s.entries <= 4, "{} entries exceed capacity", s.entries);
        assert_eq!(s.capacity, 4);
        assert!(s.evictions > 0, "14×13 pairs through 4 slots must evict");
        assert_eq!(s.misses, 14 * 13, "distinct pairs all miss");
        // Evicted-and-recomputed results still match a fresh engine.
        let a = nodes[0];
        let b = nodes[7];
        assert_eq!(
            engine.k_shortest_paths(&net, a, b, 2, true),
            PathEngine::new().k_shortest_paths(&net, a, b, 2, false)
        );
    }

    #[test]
    fn eviction_prefers_stale_epochs_then_lru() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let mut engine = PathEngine::new();
        engine.set_cache_capacity(2);
        engine.k_shortest_paths(&net, ids.i, ids.iv, 1, true);
        // Epoch bump makes the first entry stale.
        net.fiber_mut(ids.f_i_iv);
        engine.k_shortest_paths(&net, ids.i, ids.iii, 1, true);
        engine.k_shortest_paths(&net, ids.i, ids.ii, 1, true); // evicts
        let s = engine.route_cache_stats();
        assert!(s.evictions >= 1);
        assert!(s.entries <= 2);
        // The live (i, iii) entry survived the stale-first policy.
        engine.k_shortest_paths(&net, ids.i, ids.iii, 1, true);
        assert!(engine.route_cache_stats().hits >= 1);
    }

    #[test]
    fn cache_metrics_export_matches_stats() {
        let (net, ids) = PhotonicNetwork::testbed(2);
        let mut engine = PathEngine::new();
        engine.k_shortest_paths(&net, ids.i, ids.iv, 2, true);
        engine.k_shortest_paths(&net, ids.i, ids.iv, 2, true);
        let mut reg = simcore::metrics::FamilyRegistry::new();
        engine.export_cache_metrics(&mut reg);
        let get = |event| {
            reg.get_counter("rwa_route_cache_events_total", &[("event", event)])
                .unwrap()
                .get()
        };
        assert_eq!(get("hit"), 1);
        assert_eq!(get("miss"), 1);
        assert_eq!(get("eviction"), 0);
        assert_eq!(
            reg.get_gauge("rwa_route_cache_entries", &[]).unwrap().get(),
            1.0
        );
    }

    #[test]
    fn region_restricted_search_matches_global() {
        let plant = photonic::generate(&photonic::GeneratorConfig::with_target_roadms(100, 21));
        let map = RegionMap::new(plant.region_of.clone());
        assert_eq!(map.validate(&plant.net), Ok(()));
        let mut global = PathEngine::new();
        let mut regional = PathEngine::new();
        regional
            .install_region_map(&plant.net, map)
            .expect("valid map installs");
        let cfg = RwaConfig::default();
        // Intra-region, cross-region, and hub-terminated pairs.
        let last = plant.interior.len() - 1;
        let pairs = [
            (plant.interior[0][0], plant.interior[0][4]),
            (plant.interior[0][1], plant.interior[last][3]),
            (plant.interior[last][2], plant.interior[0][5]),
            (plant.gateways[0], plant.interior[last][0]),
            (plant.gateways[0], plant.gateways[last]),
        ];
        for (a, b) in pairs {
            assert_eq!(
                regional.k_shortest_paths(&plant.net, a, b, 4, false),
                global.k_shortest_paths(&plant.net, a, b, 4, false),
                "restricted Yen diverged for {a}→{b}"
            );
            assert_eq!(
                regional.plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[]),
                global.plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[]),
                "restricted plan diverged for {a}→{b}"
            );
            assert_eq!(
                regional.disjoint_pair(&plant.net, a, b),
                global.disjoint_pair(&plant.net, a, b),
                "restricted disjoint pair diverged for {a}→{b}"
            );
        }
    }

    #[test]
    fn invalid_region_maps_are_rejected() {
        let (net, _ids) = PhotonicNetwork::testbed(2);
        let mut engine = PathEngine::new();
        // Wrong coverage.
        assert!(engine
            .install_region_map(&net, RegionMap::new(vec![0, 0]))
            .is_err());
        // Two interiors directly linked (testbed is a mesh, any split of
        // the four nodes into two regions crosses interiors somewhere).
        assert!(engine
            .install_region_map(&net, RegionMap::new(vec![0, 0, 1, 1]))
            .is_err());
        assert!(engine.region_map.is_none());
    }

    #[test]
    fn fresh_like_keeps_config_drops_state() {
        let plant = photonic::generate(&photonic::GeneratorConfig::with_target_roadms(14, 9));
        let mut engine = PathEngine::new();
        engine.set_cache_capacity(17);
        engine
            .install_region_map(&plant.net, RegionMap::new(plant.region_of.clone()))
            .unwrap();
        engine.k_shortest_paths(
            &plant.net,
            plant.interior[0][0],
            plant.interior[0][1],
            2,
            true,
        );
        let twin = engine.fresh_like();
        let s = twin.route_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (0, 0, 0, 17));
        assert!(twin.region_map.is_some());
    }

    #[test]
    fn exhausted_lambdas_block() {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_40);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        let f = net.link(a, b, 10.0).unwrap();
        net.add_transponders(a, LineRate::Gbps10, 2).unwrap();
        net.add_transponders(b, LineRate::Gbps10, 2).unwrap();
        // Fill all 40 channels on the single fiber.
        let da = net.roadm(a).degree_to(f).unwrap();
        let db = net.roadm(b).degree_to(f).unwrap();
        for w in 0..40 {
            let pa = net.roadm_mut(a).add_port();
            net.roadm_mut(a)
                .attach_transponder(pa, TransponderId::new(1000 + w as u32));
            net.roadm_mut(a)
                .connect_add_drop(pa, Wavelength(w), da)
                .unwrap();
            let pb = net.roadm_mut(b).add_port();
            net.roadm_mut(b)
                .attach_transponder(pb, TransponderId::new(2000 + w as u32));
            net.roadm_mut(b)
                .connect_add_drop(pb, Wavelength(w), db)
                .unwrap();
        }
        assert!(matches!(
            plan_wavelength(&net, &RwaConfig::default(), a, b, LineRate::Gbps10, &[]),
            Err(RwaError::Blocked { .. })
        ));
    }
}
