//! The planner `griphon::rwa::PathEngine` ran before its weight table and
//! path arena: Dijkstra re-reading every fiber struct on each relaxation,
//! Yen ranking owned `Vec<FiberId>` candidates deduplicated through a
//! `HashSet<Vec<FiberId>>`, and `plan_wavelength` collecting pools, hop
//! lengths, regen points and node sequences per candidate. Copied verbatim
//! as a whole-plant search: the region restriction and the route cache
//! are left out, both being provably result-neutral, and the deleted
//! `PhotonicNetwork::hop_lengths` is inlined as a local helper. Every
//! route, plan and digest in the repo was produced by this code, so it is
//! the oracle `tests/rwa_oracle.rs` holds the product planner to.
//! Test-only: nothing outside `tests/` includes this file.

use griphon::rwa::{RwaConfig, RwaError, WavelengthPlan};
use photonic::{FiberId, LineRate, PhotonicNetwork, RoadmId};

/// Per-hop lengths (km) of a fiber path.
fn hop_lengths(net: &PhotonicNetwork, path: &[FiberId]) -> Vec<f64> {
    path.iter().map(|f| net.fiber(*f).length_km()).collect()
}

/// Reusable Dijkstra state: distance/predecessor arrays indexed by node,
/// exclusion marks indexed by node/fiber, and the frontier heap. Validity
/// is tracked by an epoch *stamp* — a slot is live only if its stamp
/// matches the current run's, so "clearing" all arrays between runs is a
/// single counter increment, and nothing is allocated per call once the
/// vectors have grown to the network size.
#[derive(Debug, Default)]
struct DijkstraScratch {
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

impl DijkstraScratch {
    /// Dijkstra by km over up fibers, with exclusion sets. Returns the
    /// fiber sequence. Distances use integer metres for exact `Ord`.
    fn shortest_path(
        &mut self,
        net: &PhotonicNetwork,
        from: RoadmId,
        to: RoadmId,
        excluded_fibers: &[FiberId],
        excluded_nodes: &[RoadmId],
    ) -> Option<Vec<FiberId>> {
        use std::cmp::Reverse;

        let nodes = net.roadm_count();
        let fibers = net.fiber_count();
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
            for &(fid, m) in net.neighbors(n) {
                if self.fiber_excluded[fid.index()] == stamp
                    || self.node_excluded[m.index()] == stamp
                    || !net.fiber(fid).is_up()
                {
                    continue;
                }
                let nd = d + (net.fiber(fid).length_km() * 1000.0) as u64;
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
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, f) = self.prev[cur.index()];
            path.push(f);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// The old planner: Dijkstra scratch and nothing else, every query cold.
#[derive(Debug, Default)]
pub struct ReferenceEngine {
    scratch: DijkstraScratch,
}

impl ReferenceEngine {
    /// Yen's k-shortest-paths proper: spur paths are generated off each
    /// accepted path, deduplicated through a hash set, and ranked in a
    /// min-heap by `(metres, hops, fiber sequence)` — no linear
    /// membership scans, no re-sorting per iteration.
    pub fn yen(
        &mut self,
        net: &PhotonicNetwork,
        from: RoadmId,
        to: RoadmId,
        k: usize,
    ) -> Vec<Vec<FiberId>> {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        let mut result: Vec<Vec<FiberId>> = Vec::new();
        let Some(first) = self.scratch.shortest_path(net, from, to, &[], &[]) else {
            return result;
        };
        // Every path ever generated (accepted or still a candidate):
        // spur-fiber exclusion consults it, and membership checks are O(1).
        let mut seen: HashSet<Vec<FiberId>> = HashSet::new();
        seen.insert(first.clone());
        result.push(first);
        let mut candidates: BinaryHeap<Reverse<(u64, usize, Vec<FiberId>)>> = BinaryHeap::new();
        let mut excluded_fibers: Vec<FiberId> = Vec::new();
        while result.len() < k {
            let last = result.last().unwrap().clone();
            let last_nodes = net.node_sequence(from, &last);
            for spur_idx in 0..last.len() {
                let spur_node = last_nodes[spur_idx];
                let root = &last[..spur_idx];
                // Exclude fibers that would regenerate a known path from
                // this root. (Set iteration order varies, but exclusion is
                // by membership, so the outcome is deterministic.)
                excluded_fibers.clear();
                for p in &seen {
                    if p.len() > spur_idx && p[..spur_idx] == *root {
                        excluded_fibers.push(p[spur_idx]);
                    }
                }
                // Exclude root nodes to keep paths loop-free.
                let excluded_nodes = &last_nodes[..spur_idx];
                if let Some(spur) =
                    self.scratch
                        .shortest_path(net, spur_node, to, &excluded_fibers, excluded_nodes)
                {
                    let mut total = root.to_vec();
                    total.extend(spur);
                    if !seen.contains(&total) {
                        seen.insert(total.clone());
                        let metres = (net.path_km(&total) * 1000.0) as u64;
                        candidates.push(Reverse((metres, total.len(), total)));
                    }
                }
            }
            // Shortest candidate next (by km, then hop count, then fiber
            // sequence for a total deterministic order).
            match candidates.pop() {
                Some(Reverse((_, _, path))) => result.push(path),
                None => break,
            }
        }
        result
    }

    /// Produce a provisionable plan for a wavelength connection of `rate`
    /// between `from` and `to`, avoiding `excluded` fibers (used by
    /// restoration and bridge-and-roll to force disjointness).
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
        let mut candidates = if excluded.is_empty() {
            self.yen(net, from, to, cfg.k_paths)
        } else {
            // Route around exclusions: prune then search.
            match self.scratch.shortest_path(net, from, to, excluded, &[]) {
                Some(p) => vec![p],
                None => Vec::new(),
            }
        };
        candidates.retain(|p| !p.is_empty());
        if candidates.is_empty() {
            return Err(RwaError::NoRoute);
        }
        let mut examined = 0;
        for path in &candidates {
            examined += 1;
            // Wavelength continuity.
            let Some(lambda) = net.first_free_lambda(path) else {
                continue;
            };
            // Transponders at both ends.
            let src_pool = net.idle_ots_at(from, rate);
            let dst_pool = net.idle_ots_at(to, rate);
            let (Some(ot_src), Some(ot_dst)) = (src_pool.first(), dst_pool.first()) else {
                continue;
            };
            // Reach: insert regens where needed, if the pools allow.
            let hop_km = hop_lengths(net, path);
            let Some(points) = cfg.reach.regen_points(rate, &hop_km) else {
                continue;
            };
            let nodes = net.node_sequence(from, path);
            let mut regens = Vec::new();
            let mut ok = true;
            let mut used_at_node: std::collections::HashMap<RoadmId, usize> =
                std::collections::HashMap::new();
            for p in &points {
                let node = nodes[p + 1];
                let pool = net.free_regens_at(node, rate);
                let used = used_at_node.entry(node).or_insert(0);
                if *used < pool.len() {
                    regens.push(pool[*used]);
                    *used += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            return Ok(WavelengthPlan {
                path: path.clone(),
                lambda,
                ot_src: *ot_src,
                ot_dst: *ot_dst,
                regens,
            });
        }
        Err(RwaError::Blocked {
            candidates: examined,
        })
    }
}
