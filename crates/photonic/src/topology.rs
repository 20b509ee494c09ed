//! The assembled photonic network: ROADMs, fibers, transponder pools,
//! regens, FXCs — plus the two reference topologies every experiment uses.
//!
//! - [`PhotonicNetwork::testbed`] reproduces the paper's Fig. 4 laboratory
//!   network: ROADMs I–IV (two 3-degree, two 2-degree) in a mesh that
//!   offers 1-, 2- and 3-hop routes between nodes I and IV — the exact
//!   paths of Table 2.
//! - [`PhotonicNetwork::nsfnet`] builds the classic 14-node NSFNET
//!   continental mesh with realistic span lengths, used by the scale,
//!   restoration and planning experiments that go beyond the paper's
//!   four-node lab.
//!
//! The struct is a plain container: state-changing operations go through
//! accessor methods returning `&mut` to the element, and the invariants
//! live in the element types themselves ([`Roadm`] rejects wavelength
//! conflicts, [`crate::fxc::Fxc`] rejects double-patching, …).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::alarm::{detection, Alarm, AlarmKind, AlarmSeverity};
use crate::fiber::{FiberId, FiberLink, FiberState};
use crate::fxc::{Fxc, FxcId};
use crate::grid::{ChannelGrid, LineRate, Wavelength};
use crate::roadm::{DegreeId, PortId, Roadm, RoadmId};
use crate::transponder::{Regen, RegenId, Transponder, TransponderId};

/// Errors raised while assembling or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a node id that does not exist.
    NoSuchRoadm(RoadmId),
    /// Referenced a fiber id that does not exist.
    NoSuchFiber(FiberId),
    /// The two nodes are not directly linked.
    NotAdjacent(RoadmId, RoadmId),
    /// A duplicate link between the same pair was requested.
    DuplicateLink(RoadmId, RoadmId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoSuchRoadm(r) => write!(f, "no such roadm {r}"),
            TopologyError::NoSuchFiber(l) => write!(f, "no such fiber {l}"),
            TopologyError::NotAdjacent(a, b) => write!(f, "{a} and {b} are not adjacent"),
            TopologyError::DuplicateLink(a, b) => write!(f, "{a}–{b} already linked"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The photonic plant under one carrier's control.
///
/// `Debug` is implemented by hand (not derived) so that the derived
/// per-node equipment indices below stay out of the output: controller
/// state digests hash `format!("{net:?}")`, and the indices are pure
/// caches over `transponders`/`regens` that must not perturb digests
/// pinned by golden files.
#[derive(Clone, Serialize, Deserialize)]
pub struct PhotonicNetwork {
    /// Channel plan shared by all line systems.
    pub grid: ChannelGrid,
    roadms: Vec<Roadm>,
    names: Vec<String>,
    fibers: Vec<FiberLink>,
    transponders: Vec<Transponder>,
    /// `TransponderId → (node, add/drop port)` placement.
    ot_ports: Vec<(RoadmId, PortId)>,
    regens: Vec<Regen>,
    fxcs: Vec<Fxc>,
    /// CSR adjacency offsets: node `n`'s edges live at
    /// `adj_edges[adj_off[n] .. adj_off[n + 1]]`.
    adj_off: Vec<u32>,
    /// CSR adjacency edges: `(connecting fiber, far node)`, grouped by
    /// near node, in fiber-id order within each group.
    adj_edges: Vec<(FiberId, RoadmId)>,
    /// Endpoint degrees `(degree at fiber.a, degree at fiber.b)`, indexed
    /// by [`FiberId`] — avoids the linear `degree_to` scan on hot paths.
    fiber_degrees: Vec<(DegreeId, DegreeId)>,
    /// Monotonic counter bumped whenever routing-relevant state may have
    /// changed (new links/nodes, any `fiber_mut` access). Route caches key
    /// on it, making invalidation a plain equality check.
    topology_epoch: u64,
    /// Transponders installed at each node, indexed by [`RoadmId`] —
    /// keeps [`PhotonicNetwork::idle_ots_at`] O(node's pool) instead of
    /// O(all transponders) on continental plants. Derived state, kept in
    /// lockstep with `transponders`; excluded from `Debug`.
    #[serde(default)]
    ots_by_node: Vec<Vec<TransponderId>>,
    /// Regens installed at each node, indexed by [`RoadmId`] — same
    /// role as `ots_by_node` for [`PhotonicNetwork::free_regens_at`].
    #[serde(default)]
    regens_by_node: Vec<Vec<RegenId>>,
}

// Field-for-field replica of the derived `Debug` for the fields that
// existed before the per-node indices were added. Byte-identical output
// matters: `Controller::write_state_digest` feeds this into the state
// CRC, and golden artifacts pin those CRCs.
impl std::fmt::Debug for PhotonicNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhotonicNetwork")
            .field("grid", &self.grid)
            .field("roadms", &self.roadms)
            .field("names", &self.names)
            .field("fibers", &self.fibers)
            .field("transponders", &self.transponders)
            .field("ot_ports", &self.ot_ports)
            .field("regens", &self.regens)
            .field("fxcs", &self.fxcs)
            // Always empty: state digests hash this text and golden
            // files pin those digests.
            .field("muxponders", &[(); 0])
            .field("adj_off", &self.adj_off)
            .field("adj_edges", &self.adj_edges)
            .field("fiber_degrees", &self.fiber_degrees)
            .field("topology_epoch", &self.topology_epoch)
            .finish()
    }
}

impl PhotonicNetwork {
    /// An empty network on the given grid.
    pub fn new(grid: ChannelGrid) -> PhotonicNetwork {
        PhotonicNetwork {
            grid,
            roadms: Vec::new(),
            names: Vec::new(),
            fibers: Vec::new(),
            transponders: Vec::new(),
            ot_ports: Vec::new(),
            regens: Vec::new(),
            fxcs: Vec::new(),
            adj_off: vec![0],
            adj_edges: Vec::new(),
            fiber_degrees: Vec::new(),
            topology_epoch: 0,
            ots_by_node: Vec::new(),
            regens_by_node: Vec::new(),
        }
    }

    // ── construction ────────────────────────────────────────────────

    /// Add a ROADM node.
    pub fn add_roadm(&mut self, name: impl Into<String>) -> RoadmId {
        let id = RoadmId::from_index(self.roadms.len());
        self.roadms.push(Roadm::new(id, self.grid));
        self.names.push(name.into());
        self.ots_by_node.push(Vec::new());
        self.regens_by_node.push(Vec::new());
        // An isolated node has no edges: extend the offset array in place.
        self.adj_off.push(*self.adj_off.last().unwrap());
        self.topology_epoch += 1;
        id
    }

    /// Link two nodes with a fiber pair of `km` total length (spans are
    /// auto-split at 80 km); adds a degree on each end.
    pub fn link(&mut self, a: RoadmId, b: RoadmId, km: f64) -> Result<FiberId, TopologyError> {
        self.check_roadm(a)?;
        self.check_roadm(b)?;
        if self.fiber_between(a, b).is_some() {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let id = FiberId::from_index(self.fibers.len());
        self.fibers.push(FiberLink::with_length(id, a, b, km));
        let da = self.roadms[a.index()].add_degree(id);
        let db = self.roadms[b.index()].add_degree(id);
        self.fiber_degrees.push((da, db));
        self.rebuild_adjacency();
        self.topology_epoch += 1;
        Ok(id)
    }

    /// Rebuild the CSR adjacency arrays from the fiber list (counting
    /// sort; O(nodes + fibers)). Called on every `link` — topology
    /// construction is rare compared to the queries the CSR serves.
    fn rebuild_adjacency(&mut self) {
        let n = self.roadms.len();
        let mut off = vec![0u32; n + 1];
        for f in &self.fibers {
            off[f.a.index() + 1] += 1;
            off[f.b.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        self.adj_edges = vec![(FiberId::new(0), RoadmId::new(0)); 2 * self.fibers.len()];
        for f in &self.fibers {
            let ia = f.a.index();
            self.adj_edges[cursor[ia] as usize] = (f.id, f.b);
            cursor[ia] += 1;
            let ib = f.b.index();
            self.adj_edges[cursor[ib] as usize] = (f.id, f.a);
            cursor[ib] += 1;
        }
        self.adj_off = off;
    }

    /// Install a tunable transponder at `node` on a fresh colorless,
    /// non-directional add/drop port.
    pub(crate) fn add_transponder(
        &mut self,
        node: RoadmId,
        rate: LineRate,
    ) -> Result<TransponderId, TopologyError> {
        self.check_roadm(node)?;
        let id = TransponderId::from_index(self.transponders.len());
        let port = self.roadms[node.index()].add_port();
        self.roadms[node.index()].attach_transponder(port, id);
        self.transponders.push(Transponder::new(id, node, rate));
        self.ot_ports.push((node, port));
        self.ots_by_node[node.index()].push(id);
        Ok(id)
    }

    /// Install `n` transponders at `node`.
    pub fn add_transponders(
        &mut self,
        node: RoadmId,
        rate: LineRate,
        n: usize,
    ) -> Result<Vec<TransponderId>, TopologyError> {
        (0..n).map(|_| self.add_transponder(node, rate)).collect()
    }

    /// Install a regenerator at `node`.
    pub fn add_regen(&mut self, node: RoadmId, rate: LineRate) -> Result<RegenId, TopologyError> {
        self.check_roadm(node)?;
        let id = RegenId::from_index(self.regens.len());
        self.regens.push(Regen::new(id, node, rate));
        self.regens_by_node[node.index()].push(id);
        Ok(id)
    }

    /// Install an empty client-side FXC (ports are added by the caller).
    pub fn add_fxc(&mut self) -> FxcId {
        let id = FxcId::from_index(self.fxcs.len());
        self.fxcs.push(Fxc::new(id));
        id
    }

    // ── element access ──────────────────────────────────────────────

    /// Read a node.
    pub fn roadm(&self, id: RoadmId) -> &Roadm {
        &self.roadms[id.index()]
    }
    /// Mutate a node.
    pub fn roadm_mut(&mut self, id: RoadmId) -> &mut Roadm {
        &mut self.roadms[id.index()]
    }
    /// Read a fiber.
    pub fn fiber(&self, id: FiberId) -> &FiberLink {
        &self.fibers[id.index()]
    }
    /// Mutate a fiber. Bumps the topology epoch conservatively: callers
    /// take this path to change fiber state (cuts, maintenance, restore),
    /// all of which affect routing.
    pub fn fiber_mut(&mut self, id: FiberId) -> &mut FiberLink {
        self.topology_epoch += 1;
        &mut self.fibers[id.index()]
    }

    /// The current topology epoch. Strictly increases across any mutation
    /// that can change routing results (node/link additions, fiber state
    /// changes); equal epochs guarantee identical route computations, so
    /// caches keyed on `(query, epoch)` never serve stale paths.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }
    /// Read a transponder.
    pub fn transponder(&self, id: TransponderId) -> &Transponder {
        &self.transponders[id.index()]
    }
    /// Mutate a transponder.
    pub fn transponder_mut(&mut self, id: TransponderId) -> &mut Transponder {
        &mut self.transponders[id.index()]
    }
    /// Read a regen.
    pub fn regen(&self, id: RegenId) -> &Regen {
        &self.regens[id.index()]
    }
    /// Mutate a regen.
    pub fn regen_mut(&mut self, id: RegenId) -> &mut Regen {
        &mut self.regens[id.index()]
    }
    /// Read an FXC.
    pub fn fxc(&self, id: FxcId) -> &Fxc {
        &self.fxcs[id.index()]
    }
    /// Mutate an FXC.
    pub fn fxc_mut(&mut self, id: FxcId) -> &mut Fxc {
        &mut self.fxcs[id.index()]
    }

    /// A node's display name.
    pub fn name(&self, id: RoadmId) -> &str {
        &self.names[id.index()]
    }
    /// Look a node up by display name.
    pub fn roadm_by_name(&self, name: &str) -> Option<RoadmId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(RoadmId::from_index)
    }

    /// Number of nodes.
    pub fn roadm_count(&self) -> usize {
        self.roadms.len()
    }
    /// Number of fiber links.
    pub fn fiber_count(&self) -> usize {
        self.fibers.len()
    }
    /// Number of installed transponders.
    pub fn transponder_count(&self) -> usize {
        self.transponders.len()
    }
    /// Total amplified spans across all fiber links.
    pub fn span_count(&self) -> usize {
        self.fibers.iter().map(|f| f.spans.len()).sum()
    }

    /// Estimated heap bytes behind the whole plant — node tables, fiber
    /// spans, equipment pools, CSR adjacency, and the per-node equipment
    /// indices. Used by the scale benchmark's memory column; an estimate
    /// for capacity planning, not an allocator measurement.
    pub fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        let roadm_heap: usize = self.roadms.iter().map(Roadm::memory_footprint).sum();
        let span_heap: usize = self
            .fibers
            .iter()
            .map(|f| f.spans.capacity() * size_of::<crate::fiber::Span>())
            .sum();
        let name_heap: usize = self.names.iter().map(String::capacity).sum();
        let index_heap: usize = self
            .ots_by_node
            .iter()
            .map(|v| v.capacity() * size_of::<TransponderId>())
            .sum::<usize>()
            + self
                .regens_by_node
                .iter()
                .map(|v| v.capacity() * size_of::<RegenId>())
                .sum::<usize>();
        self.roadms.capacity() * size_of::<Roadm>()
            + roadm_heap
            + self.names.capacity() * size_of::<String>()
            + name_heap
            + self.fibers.capacity() * size_of::<FiberLink>()
            + span_heap
            + self.transponders.capacity() * size_of::<Transponder>()
            + self.ot_ports.capacity() * size_of::<(RoadmId, PortId)>()
            + self.regens.capacity() * size_of::<Regen>()
            + self.fxcs.capacity() * size_of::<Fxc>()
            + self.adj_off.capacity() * size_of::<u32>()
            + self.adj_edges.capacity() * size_of::<(FiberId, RoadmId)>()
            + self.fiber_degrees.capacity() * size_of::<(DegreeId, DegreeId)>()
            + (self.ots_by_node.capacity() + self.regens_by_node.capacity()) * size_of::<Vec<u32>>()
            + index_heap
    }
    /// All node ids.
    pub fn roadm_ids(&self) -> impl Iterator<Item = RoadmId> {
        (0..self.roadms.len()).map(RoadmId::from_index)
    }
    /// All fiber ids.
    pub fn fiber_ids(&self) -> impl Iterator<Item = FiberId> {
        (0..self.fibers.len()).map(FiberId::from_index)
    }
    /// All transponder ids.
    pub fn transponder_ids(&self) -> impl Iterator<Item = TransponderId> {
        (0..self.transponders.len()).map(TransponderId::from_index)
    }
    /// Number of installed regens.
    pub fn regen_count(&self) -> usize {
        self.regens.len()
    }
    /// All regen ids.
    pub fn regen_ids(&self) -> impl Iterator<Item = RegenId> {
        (0..self.regens.len()).map(RegenId::from_index)
    }

    /// `(node, add/drop port)` where a transponder is installed.
    pub fn ot_port(&self, id: TransponderId) -> (RoadmId, PortId) {
        self.ot_ports[id.index()]
    }

    // ── graph queries ───────────────────────────────────────────────

    /// The fiber directly linking `a` and `b`, if one exists.
    pub fn fiber_between(&self, a: RoadmId, b: RoadmId) -> Option<FiberId> {
        self.fibers
            .iter()
            .find(|f| (f.a == a && f.b == b) || (f.a == b && f.b == a))
            .map(|f| f.id)
    }

    /// Neighbours of a node: `(connecting fiber, far node)` pairs in
    /// fiber-id order, including links that are currently down. Served
    /// from the CSR adjacency — no allocation, no fiber-list scan.
    pub fn neighbors(&self, n: RoadmId) -> &[(FiberId, RoadmId)] {
        let lo = self.adj_off[n.index()] as usize;
        let hi = self.adj_off[n.index() + 1] as usize;
        &self.adj_edges[lo..hi]
    }

    /// The node sequence of a fiber path starting at `from`.
    ///
    /// # Panics
    /// If the path is not contiguous from `from`.
    pub fn node_sequence(&self, from: RoadmId, path: &[FiberId]) -> Vec<RoadmId> {
        let mut nodes = vec![from];
        let mut cur = from;
        for fid in path {
            let next = self.fiber(*fid).other_end(cur);
            nodes.push(next);
            cur = next;
        }
        nodes
    }

    /// Total length (km) of a fiber path, summed hop by hop from the
    /// first fiber.
    pub fn path_km(&self, path: &[FiberId]) -> f64 {
        path.iter().map(|f| self.fiber(*f).length_km()).sum()
    }

    /// Free-channel bitmask of fiber `f`: bit *i* set ⇔ channel *i* is
    /// free at *both* endpoint ROADMs' facing degrees (they are configured
    /// together, but a half-configured state mid-workflow counts as
    /// occupied).
    pub(crate) fn free_lambda_mask(&self, f: FiberId) -> u128 {
        let link = self.fiber(f);
        let (da, db) = self.fiber_degrees[f.index()];
        self.roadms[link.a.index()].free_mask(da) & self.roadms[link.b.index()].free_mask(db)
    }

    /// Is `w` unused on fiber `f` (at both endpoints)?
    pub fn lambda_free_on_fiber(&self, f: FiberId, w: Wavelength) -> bool {
        self.free_lambda_mask(f) & (1u128 << w.index()) != 0
    }

    /// First-fit wavelength free on *every* fiber of `path` (wavelength
    /// continuity), if any: an AND-reduce of per-fiber free masks followed
    /// by a trailing-zeros count. The naive per-wavelength scan survives
    /// as [`PhotonicNetwork::first_free_lambda_reference`] and is checked
    /// against in debug builds.
    pub fn first_free_lambda(&self, path: &[FiberId]) -> Option<Wavelength> {
        let mut free = self.grid.channel_mask();
        for f in path {
            free &= self.free_lambda_mask(*f);
            if free == 0 {
                break;
            }
        }
        let found = if free == 0 {
            None
        } else {
            Some(Wavelength(free.trailing_zeros() as u16))
        };
        debug_assert_eq!(found, self.first_free_lambda_reference(path));
        found
    }

    /// Reference first-fit implementation: the original nested scan over
    /// wavelengths × hops × degrees, reading the ROADMs' configuration
    /// maps directly. O(λ·hops·degree) — kept as the oracle the bitmask
    /// fast path is verified against (debug asserts and property tests).
    pub fn first_free_lambda_reference(&self, path: &[FiberId]) -> Option<Wavelength> {
        self.grid.wavelengths().find(|w| {
            path.iter().all(|f| {
                let link = self.fiber(*f);
                [link.a, link.b].into_iter().all(|node| {
                    let r = self.roadm(node);
                    let d = r.degree_to(*f).expect("endpoint must have a degree");
                    r.lambda_usage(d, *w).is_none()
                })
            })
        })
    }

    /// Count of wavelengths lit on a fiber (either endpoint).
    pub fn lit_lambdas_on_fiber(&self, f: FiberId) -> usize {
        (self.grid.channel_mask() & !self.free_lambda_mask(f)).count_ones() as usize
    }

    /// Idle transponders of `rate` installed at `node`.
    ///
    /// Served from the per-node index (insertion order == id order, so
    /// results match the historical full-pool scan exactly) — O(node's
    /// pool), not O(all transponders), which matters once plants reach
    /// hundreds of nodes.
    pub fn idle_ots_at(&self, node: RoadmId, rate: LineRate) -> Vec<TransponderId> {
        self.idle_ots(node, rate).collect()
    }

    /// The first of [`PhotonicNetwork::idle_ots_at`], without collecting.
    pub fn first_idle_ot_at(&self, node: RoadmId, rate: LineRate) -> Option<TransponderId> {
        self.idle_ots(node, rate).next()
    }

    fn idle_ots(&self, node: RoadmId, rate: LineRate) -> impl Iterator<Item = TransponderId> + '_ {
        self.ots_by_node[node.index()]
            .iter()
            .copied()
            .filter(move |&id| {
                let t = &self.transponders[id.index()];
                t.rate == rate && t.is_idle()
            })
    }

    /// Free regens of `rate` at `node` (per-node index; see
    /// [`PhotonicNetwork::idle_ots_at`] for the ordering argument).
    pub fn free_regens_at(&self, node: RoadmId, rate: LineRate) -> Vec<RegenId> {
        self.free_regens(node, rate).collect()
    }

    /// The first of [`PhotonicNetwork::free_regens_at`], without collecting.
    pub fn first_free_regen_at(&self, node: RoadmId, rate: LineRate) -> Option<RegenId> {
        self.free_regens(node, rate).next()
    }

    fn free_regens(&self, node: RoadmId, rate: LineRate) -> impl Iterator<Item = RegenId> + '_ {
        self.regens_by_node[node.index()]
            .iter()
            .copied()
            .filter(move |&id| {
                let r = &self.regens[id.index()];
                r.rate == rate && !r.in_use
            })
    }

    /// Fewest-hops path between two nodes over *up* fibers (BFS). The RWA
    /// module in `griphon` does the real routing; this is the baseline
    /// and a test helper.
    pub fn shortest_path_hops(&self, from: RoadmId, to: RoadmId) -> Option<Vec<FiberId>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: BTreeMap<RoadmId, (RoadmId, FiberId)> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for &(fid, m) in self.neighbors(n) {
                if !self.fiber(fid).is_up() || m == from || prev.contains_key(&m) {
                    continue;
                }
                prev.insert(m, (n, fid));
                if m == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, f) = prev[&cur];
                        path.push(f);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(m);
            }
        }
        None
    }

    // ── failure propagation ─────────────────────────────────────────

    /// Cut fiber `f` at `span` and return the resulting alarm storm:
    /// line telemetry plus per-wavelength LOS at both adjacent nodes.
    /// (Terminal OT alarms are added by the controller layer, which knows
    /// which connections traverse the fiber.)
    pub fn cut_fiber(&mut self, f: FiberId, span: usize, at: SimTime) -> Vec<Alarm> {
        self.fiber_mut(f).cut_at(span);
        let mut alarms = vec![Alarm {
            at: at + detection::FIBER_DOWN,
            kind: AlarmKind::FiberDown { fiber: f },
            severity: AlarmSeverity::Critical,
        }];
        let link = self.fiber(f);
        for node in [link.a, link.b] {
            let r = self.roadm(node);
            let d = r.degree_to(f).expect("endpoint must have a degree");
            for (deg, w, _) in r.configurations() {
                if deg == d {
                    alarms.push(Alarm {
                        at: at + detection::DEGREE_LOS,
                        kind: AlarmKind::DegreeLos {
                            roadm: node,
                            degree: d,
                            wavelength: w,
                        },
                        severity: AlarmSeverity::Critical,
                    });
                }
            }
        }
        alarms.sort_by_key(|a| a.at);
        alarms
    }

    /// Render the topology as an adjacency table (the Fig. 4 harness).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ROADMs, {} fiber links, {} OTs, {} regens",
            self.roadm_count(),
            self.fiber_count(),
            self.transponder_count(),
            self.regens.len()
        );
        for r in &self.roadms {
            let degree = r.degree_count();
            let ports = r.port_count();
            let _ = write!(
                out,
                "  {:<12} ({degree}-degree, {ports} a/d ports) ↔",
                self.name(r.id)
            );
            for &(fid, m) in self.neighbors(r.id) {
                let state = match self.fiber(fid).state {
                    FiberState::Up => "",
                    FiberState::Cut { .. } => "[CUT]",
                    FiberState::Maintenance => "[MAINT]",
                };
                let _ = write!(
                    out,
                    " {}({:.0}km){}",
                    self.name(m),
                    self.fiber(fid).length_km(),
                    state
                );
            }
            out.push('\n');
        }
        out
    }

    /// Render per-fiber spectrum occupancy as a map: one row per fiber,
    /// one character per channel (`█` lit, `·` dark). The operator's
    /// "how full is my line system" view.
    pub fn spectrum_map(&self) -> String {
        let mut out = String::new();
        for f in self.fiber_ids() {
            let link = self.fiber(f);
            let _ = write!(
                out,
                "{:<14}",
                format!("{}–{}", self.name(link.a), self.name(link.b))
            );
            for w in self.grid.wavelengths() {
                out.push(if self.lambda_free_on_fiber(f, w) {
                    '·'
                } else {
                    '█'
                });
            }
            let _ = writeln!(
                out,
                "  {}/{}",
                self.lit_lambdas_on_fiber(f),
                self.grid.channels
            );
        }
        out
    }

    fn check_roadm(&self, id: RoadmId) -> Result<(), TopologyError> {
        if id.index() < self.roadms.len() {
            Ok(())
        } else {
            Err(TopologyError::NoSuchRoadm(id))
        }
    }
}

/// Node/fiber handles of the Fig. 4 testbed.
#[derive(Debug, Clone, Copy)]
pub struct TestbedIds {
    /// ROADM I (3-degree) — customer premises A home.
    pub i: RoadmId,
    /// ROADM II (2-degree).
    pub ii: RoadmId,
    /// ROADM III (3-degree) — customer premises B home.
    pub iii: RoadmId,
    /// ROADM IV (2-degree) — customer premises C home.
    pub iv: RoadmId,
    /// Direct fiber I–IV (the 1-hop route of Table 2).
    pub f_i_iv: FiberId,
    /// Fiber I–III (first hop of the 2-hop route).
    pub f_i_iii: FiberId,
    /// Fiber III–IV (second hop of the 2-hop route).
    pub f_iii_iv: FiberId,
    /// Fiber I–II (first hop of the 3-hop route).
    pub f_i_ii: FiberId,
    /// Fiber II–III (second hop of the 3-hop route).
    pub f_ii_iii: FiberId,
}

impl PhotonicNetwork {
    /// The paper's Fig. 4 laboratory testbed: ROADMs I and III 3-degree,
    /// II and IV 2-degree, meshed so that I→IV has 1-, 2- and 3-hop
    /// routes (I–IV, I–III–IV, I–II–III–IV — the rows of Table 2). Each
    /// node gets `ots_per_node` tunable 10 G transponders.
    ///
    /// ```
    /// let (net, ids) = photonic::PhotonicNetwork::testbed(4);
    /// assert_eq!(net.roadm(ids.i).degree_count(), 3);
    /// assert_eq!(net.shortest_path_hops(ids.i, ids.iv).unwrap().len(), 1);
    /// ```
    pub fn testbed(ots_per_node: usize) -> (PhotonicNetwork, TestbedIds) {
        let mut net = PhotonicNetwork::new(ChannelGrid::C_BAND_80);
        let i = net.add_roadm("I");
        let ii = net.add_roadm("II");
        let iii = net.add_roadm("III");
        let iv = net.add_roadm("IV");
        let f_i_ii = net.link(i, ii, 80.0).unwrap();
        let f_ii_iii = net.link(ii, iii, 80.0).unwrap();
        let f_iii_iv = net.link(iii, iv, 80.0).unwrap();
        let f_i_iii = net.link(i, iii, 80.0).unwrap();
        let f_i_iv = net.link(i, iv, 80.0).unwrap();
        for n in [i, ii, iii, iv] {
            net.add_transponders(n, LineRate::Gbps10, ots_per_node)
                .unwrap();
        }
        (
            net,
            TestbedIds {
                i,
                ii,
                iii,
                iv,
                f_i_iv,
                f_i_iii,
                f_iii_iv,
                f_i_ii,
                f_ii_iii,
            },
        )
    }

    /// The classic 14-node NSFNET T1 backbone with approximate route-km
    /// link lengths — the continental-scale plant for experiments beyond
    /// the lab (restoration at scale, planning, grooming).
    /// Each node gets `ots_per_node` transponders of `rate` and
    /// `regens_per_node` regenerators.
    pub fn nsfnet(ots_per_node: usize, rate: LineRate, regens_per_node: usize) -> PhotonicNetwork {
        let mut net = PhotonicNetwork::new(ChannelGrid::C_BAND_80);
        let cities = [
            "Seattle",     // 0
            "PaloAlto",    // 1
            "SanDiego",    // 2
            "SaltLake",    // 3
            "Boulder",     // 4
            "Houston",     // 5
            "Lincoln",     // 6
            "Champaign",   // 7
            "Atlanta",     // 8
            "AnnArbor",    // 9
            "Pittsburgh",  // 10
            "Ithaca",      // 11
            "CollegePark", // 12
            "Princeton",   // 13
        ];
        let ids: Vec<RoadmId> = cities.iter().map(|c| net.add_roadm(*c)).collect();
        // (a, b, km) — standard NSFNET distances.
        let links: [(usize, usize, f64); 21] = [
            (0, 1, 1100.0),
            (0, 2, 1600.0),
            (0, 7, 2800.0),
            (1, 2, 600.0),
            (1, 3, 1000.0),
            (2, 5, 2000.0),
            (3, 4, 600.0),
            (3, 9, 2400.0),
            (4, 5, 1100.0),
            (4, 6, 800.0),
            (5, 8, 1200.0),
            (5, 12, 2000.0),
            (6, 7, 700.0),
            (6, 9, 1000.0),
            (7, 10, 850.0),
            (8, 10, 900.0),
            (8, 12, 1000.0),
            (9, 11, 800.0),
            (10, 11, 500.0),
            (11, 13, 300.0),
            (12, 13, 300.0),
        ];
        for (a, b, km) in links {
            net.link(ids[a], ids[b], km).unwrap();
        }
        for id in &ids {
            net.add_transponders(*id, rate, ots_per_node).unwrap();
            for _ in 0..regens_per_node {
                net.add_regen(*id, rate).unwrap();
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_fig4() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        assert_eq!(net.roadm_count(), 4);
        assert_eq!(net.fiber_count(), 5);
        // Two 3-degree and two 2-degree ROADMs.
        assert_eq!(net.roadm(ids.i).degree_count(), 3);
        assert_eq!(net.roadm(ids.iii).degree_count(), 3);
        assert_eq!(net.roadm(ids.ii).degree_count(), 2);
        assert_eq!(net.roadm(ids.iv).degree_count(), 2);
        // The three Table 2 routes exist.
        assert_eq!(net.fiber_between(ids.i, ids.iv), Some(ids.f_i_iv));
        assert_eq!(net.fiber_between(ids.i, ids.iii), Some(ids.f_i_iii));
        assert_eq!(net.fiber_between(ids.iii, ids.iv), Some(ids.f_iii_iv));
        assert_eq!(net.fiber_between(ids.ii, ids.iv), None);
        assert_eq!(net.transponder_count(), 16);
    }

    #[test]
    fn bfs_takes_direct_route_and_reroutes_after_cut() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let direct = net.shortest_path_hops(ids.i, ids.iv).unwrap();
        assert_eq!(direct, vec![ids.f_i_iv]);
        net.fiber_mut(ids.f_i_iv).cut_at(0);
        let detour = net.shortest_path_hops(ids.i, ids.iv).unwrap();
        assert_eq!(detour.len(), 2);
        assert_eq!(
            net.node_sequence(ids.i, &detour),
            vec![ids.i, ids.iii, ids.iv]
        );
    }

    #[test]
    fn bfs_none_when_disconnected() {
        let mut net = PhotonicNetwork::new(ChannelGrid::C_BAND_40);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        assert_eq!(net.shortest_path_hops(a, b), None);
        assert_eq!(net.shortest_path_hops(a, a), Some(vec![]));
    }

    #[test]
    fn duplicate_link_rejected() {
        let (mut net, ids) = PhotonicNetwork::testbed(0);
        assert_eq!(
            net.link(ids.i, ids.iv, 10.0),
            Err(TopologyError::DuplicateLink(ids.i, ids.iv))
        );
        assert_eq!(
            net.link(ids.iv, ids.i, 10.0),
            Err(TopologyError::DuplicateLink(ids.iv, ids.i))
        );
    }

    #[test]
    fn lambda_continuity_first_fit() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let path = vec![ids.f_i_iii, ids.f_iii_iv];
        assert_eq!(net.first_free_lambda(&path), Some(Wavelength(0)));
        // Occupy λ0 on the middle node's degree facing I–III.
        let d = net.roadm(ids.iii).degree_to(ids.f_i_iii).unwrap();
        let d2 = net.roadm(ids.iii).degree_to(ids.f_iii_iv).unwrap();
        net.roadm_mut(ids.iii)
            .connect_express(Wavelength(0), d, d2)
            .unwrap();
        assert_eq!(net.first_free_lambda(&path), Some(Wavelength(1)));
        assert!(!net.lambda_free_on_fiber(ids.f_i_iii, Wavelength(0)));
        assert_eq!(net.lit_lambdas_on_fiber(ids.f_i_iii), 1);
    }

    #[test]
    fn ot_pools_by_location_and_state() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let idle = net.idle_ots_at(ids.i, LineRate::Gbps10);
        assert_eq!(idle.len(), 2);
        net.transponder_mut(idle[0]).start_tuning(Wavelength(0));
        assert_eq!(net.idle_ots_at(ids.i, LineRate::Gbps10).len(), 1);
        assert_eq!(net.idle_ots_at(ids.i, LineRate::Gbps40).len(), 0);
    }

    #[test]
    fn regen_pool() {
        let mut net = PhotonicNetwork::nsfnet(2, LineRate::Gbps10, 1);
        let n = net.roadm_by_name("Lincoln").unwrap();
        let free = net.free_regens_at(n, LineRate::Gbps10);
        assert_eq!(free.len(), 1);
        net.regen_mut(free[0]).claim();
        assert!(net.free_regens_at(n, LineRate::Gbps10).is_empty());
    }

    #[test]
    fn nsfnet_shape() {
        let net = PhotonicNetwork::nsfnet(1, LineRate::Gbps10, 0);
        assert_eq!(net.roadm_count(), 14);
        assert_eq!(net.fiber_count(), 21);
        // Every node degree ≥ 2 (survivable mesh).
        for id in net.roadm_ids() {
            assert!(net.roadm(id).degree_count() >= 2, "{}", net.name(id));
        }
        // Spans were split at 80 km.
        let f = net
            .fiber_between(
                net.roadm_by_name("Seattle").unwrap(),
                net.roadm_by_name("Champaign").unwrap(),
            )
            .unwrap();
        assert_eq!(net.fiber(f).spans.len(), 35); // 2800/80
    }

    #[test]
    fn cut_generates_alarm_storm() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        // Light two wavelengths across I–IV.
        let di = net.roadm(ids.i).degree_to(ids.f_i_iv).unwrap();
        let div = net.roadm(ids.iv).degree_to(ids.f_i_iv).unwrap();
        let pi = net.roadm_mut(ids.i).add_port();
        net.roadm_mut(ids.i)
            .attach_transponder(pi, TransponderId::new(99));
        net.roadm_mut(ids.i)
            .connect_add_drop(pi, Wavelength(0), di)
            .unwrap();
        let piv = net.roadm_mut(ids.iv).add_port();
        net.roadm_mut(ids.iv)
            .attach_transponder(piv, TransponderId::new(98));
        net.roadm_mut(ids.iv)
            .connect_add_drop(piv, Wavelength(0), div)
            .unwrap();
        let alarms = net.cut_fiber(ids.f_i_iv, 0, SimTime::from_secs(100));
        // 1 FiberDown + LOS at each endpoint for λ0.
        assert_eq!(alarms.len(), 3);
        assert!(matches!(alarms[0].kind, AlarmKind::DegreeLos { .. }));
        assert!(alarms
            .iter()
            .any(|a| matches!(a.kind, AlarmKind::FiberDown { .. })));
        assert!(!net.fiber(ids.f_i_iv).is_up());
        // Sorted by surfacing time: degree LOS (50 ms) before FiberDown (500 ms).
        assert!(alarms.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn render_ascii_mentions_every_node() {
        let (net, _) = PhotonicNetwork::testbed(1);
        let s = net.render_ascii();
        for name in ["I", "II", "III", "IV"] {
            assert!(s.contains(name));
        }
        assert!(s.contains("3-degree"));
    }

    #[test]
    fn spectrum_map_shows_occupancy() {
        let (mut net, ids) = PhotonicNetwork::testbed(1);
        let empty = net.spectrum_map();
        assert!(empty.contains("0/80"));
        assert!(!empty.contains('█'));
        // Light one λ on I–IV.
        let d = net.roadm(ids.i).degree_to(ids.f_i_iv).unwrap();
        let d2 = net.roadm(ids.iv).degree_to(ids.f_i_iv).unwrap();
        let p = net.roadm_mut(ids.i).add_port();
        net.roadm_mut(ids.i)
            .attach_transponder(p, TransponderId::new(50));
        net.roadm_mut(ids.i)
            .connect_add_drop(p, Wavelength(3), d)
            .unwrap();
        let p2 = net.roadm_mut(ids.iv).add_port();
        net.roadm_mut(ids.iv)
            .attach_transponder(p2, TransponderId::new(51));
        net.roadm_mut(ids.iv)
            .connect_add_drop(p2, Wavelength(3), d2)
            .unwrap();
        let map = net.spectrum_map();
        assert!(map.contains('█'));
        assert!(map.contains("1/80"));
    }

    #[test]
    fn csr_neighbors_match_fiber_scan() {
        let net = PhotonicNetwork::nsfnet(0, LineRate::Gbps10, 0);
        for n in net.roadm_ids() {
            let expected: Vec<(FiberId, RoadmId)> = net
                .fiber_ids()
                .filter_map(|fid| {
                    let f = net.fiber(fid);
                    if f.a == n {
                        Some((fid, f.b))
                    } else if f.b == n {
                        Some((fid, f.a))
                    } else {
                        None
                    }
                })
                .collect();
            assert_eq!(net.neighbors(n), expected.as_slice(), "{}", net.name(n));
        }
        // Isolated nodes have an empty (not panicking) neighbor slice.
        let mut lone = PhotonicNetwork::new(ChannelGrid::C_BAND_40);
        let a = lone.add_roadm("a");
        assert!(lone.neighbors(a).is_empty());
    }

    #[test]
    fn topology_epoch_tracks_mutations() {
        let mut net = PhotonicNetwork::new(ChannelGrid::C_BAND_40);
        let e0 = net.topology_epoch();
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        let e1 = net.topology_epoch();
        assert!(e1 > e0);
        let f = net.link(a, b, 10.0).unwrap();
        let e2 = net.topology_epoch();
        assert!(e2 > e1);
        // Read-only access leaves the epoch alone …
        let _ = net.fiber(f);
        let _ = net.neighbors(a);
        assert_eq!(net.topology_epoch(), e2);
        // … but mutable fiber access bumps it (cut, restore, anything).
        net.fiber_mut(f).cut_at(0);
        assert!(net.topology_epoch() > e2);
    }

    #[test]
    fn fiber_free_mask_and_first_fit_agree_with_reference() {
        let (mut net, ids) = PhotonicNetwork::testbed(2);
        let path = vec![ids.f_i_iii, ids.f_iii_iv];
        assert_eq!(net.free_lambda_mask(ids.f_i_iii), net.grid.channel_mask());
        let d = net.roadm(ids.iii).degree_to(ids.f_i_iii).unwrap();
        let d2 = net.roadm(ids.iii).degree_to(ids.f_iii_iv).unwrap();
        net.roadm_mut(ids.iii)
            .connect_express(Wavelength(0), d, d2)
            .unwrap();
        assert_eq!(
            net.free_lambda_mask(ids.f_i_iii),
            net.grid.channel_mask() & !1
        );
        assert_eq!(net.first_free_lambda(&path), Some(Wavelength(1)));
        assert_eq!(
            net.first_free_lambda(&path),
            net.first_free_lambda_reference(&path)
        );
    }

    #[test]
    fn node_sequence_walks_path() {
        let (net, ids) = PhotonicNetwork::testbed(0);
        let seq = net.node_sequence(ids.i, &[ids.f_i_ii, ids.f_ii_iii, ids.f_iii_iv]);
        assert_eq!(seq, vec![ids.i, ids.ii, ids.iii, ids.iv]);
        assert_eq!(net.path_km(&[ids.f_i_ii, ids.f_ii_iii]), 160.0);
    }
}
