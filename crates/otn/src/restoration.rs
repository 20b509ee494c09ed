//! Shared-mesh restoration in the OTN layer.
//!
//! §2.1: the OTN layer *"can provide automatic sub-second shared-mesh
//! restoration similar to today's SONET layer."* Unlike 1+1 protection
//! (dedicated standby bandwidth per circuit), shared-mesh restoration
//! reserves a *pool* of backup tributary slots on each link that many
//! circuits share — cheap, because simultaneous failures are rare, at the
//! cost of activation signalling when a failure does occur.
//!
//! Model: each protected circuit has a pre-computed backup path that is
//! link-disjoint from its working path. On a fiber failure, impacted
//! circuits activate their backups by claiming slots from each backup
//! link's shared pool, in circuit-id order (deterministic). Activation
//! time is detection + per-hop signalling + per-node cross-connect
//! configuration — hundreds of milliseconds, matching the paper's
//! sub-second claim and experiment E2's middle row.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use simcore::{define_id, SimDuration};

use photonic::FiberId;

use crate::odu::OduRate;

define_id!(
    /// Identifier of a protected OTN circuit.
    CircuitId,
    "ckt"
);

/// A circuit protected by shared-mesh restoration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectedCircuit {
    /// This circuit's id.
    pub id: CircuitId,
    /// Its low-order container.
    pub odu: OduRate,
    /// The working path (fiber sequence).
    pub working: Vec<FiberId>,
    /// The pre-computed backup path; must be link-disjoint from working.
    pub backup: Vec<FiberId>,
}

/// What happened to one circuit during an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestorationOutcome {
    /// Switched to backup after the given outage duration.
    Restored {
        /// Outage seen by the circuit (failure → traffic on backup).
        outage: SimDuration,
    },
    /// The shared pool ran out on some backup link.
    OutOfCapacity {
        /// The first link that could not supply slots.
        at: FiberId,
    },
    /// The backup path itself crosses the failed fiber.
    BackupAlsoFailed,
}

/// Timing parameters of the restoration signalling machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestorationTiming {
    /// Failure detection (LOS + alarm correlation inside the switch).
    pub detect: SimDuration,
    /// Signalling latency per backup-path hop.
    pub per_hop: SimDuration,
    /// Cross-connect configuration per node on the backup path.
    pub per_node_xc: SimDuration,
}

impl Default for RestorationTiming {
    fn default() -> Self {
        RestorationTiming {
            detect: SimDuration::from_millis(50),
            per_hop: SimDuration::from_millis(15),
            per_node_xc: SimDuration::from_millis(25),
        }
    }
}

/// The shared-mesh restoration machinery for a set of circuits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeshRestoration {
    circuits: Vec<ProtectedCircuit>,
    /// Reserved backup slots per link (the shared pool).
    pool: BTreeMap<FiberId, usize>,
    /// Timing model.
    pub timing: RestorationTiming,
}

impl MeshRestoration {
    /// Empty machinery with default timing.
    pub fn new() -> MeshRestoration {
        MeshRestoration {
            circuits: Vec::new(),
            pool: BTreeMap::new(),
            timing: RestorationTiming::default(),
        }
    }

    /// Register a protected circuit.
    ///
    /// # Panics
    /// If working and backup paths share a fiber (not link-disjoint) or
    /// the backup is empty.
    pub fn protect(&mut self, c: ProtectedCircuit) {
        assert!(!c.backup.is_empty(), "{}: empty backup path", c.id);
        assert!(
            c.working.iter().all(|f| !c.backup.contains(f)),
            "{}: backup not link-disjoint from working",
            c.id
        );
        self.circuits.push(c);
    }

    /// Size every link's pool exactly for the worst single-fiber failure:
    /// for each possible failed fiber, sum the backup slots its impacted
    /// circuits would claim per backup link; reserve the per-link maximum.
    /// Returns total slots reserved (the "cost" of protection, compared
    /// against 1+1's dedicated copy in experiment E2).
    pub fn dimension_for_single_failures(&mut self) -> usize {
        let mut per_link_max: BTreeMap<FiberId, usize> = BTreeMap::new();
        let failures: Vec<FiberId> = self
            .circuits
            .iter()
            .flat_map(|c| c.working.iter().copied())
            .collect();
        for failed in failures {
            let mut needed: BTreeMap<FiberId, usize> = BTreeMap::new();
            for c in &self.circuits {
                if c.working.contains(&failed) {
                    for b in &c.backup {
                        *needed.entry(*b).or_insert(0) += c.odu.ts_needed();
                    }
                }
            }
            for (l, n) in needed {
                let m = per_link_max.entry(l).or_insert(0);
                *m = (*m).max(n);
            }
        }
        self.pool = per_link_max;
        self.pool.values().sum()
    }

    /// A fiber failed: activate backups for all impacted circuits, in
    /// circuit-id order. Consumes pool slots; nothing returns them, so a
    /// second failure sees the pool the first one left.
    pub fn activate_for_failure(
        &mut self,
        failed: FiberId,
    ) -> Vec<(CircuitId, RestorationOutcome)> {
        let mut out = Vec::new();
        let mut order: Vec<usize> = (0..self.circuits.len())
            .filter(|i| self.circuits[*i].working.contains(&failed))
            .collect();
        order.sort_by_key(|i| self.circuits[*i].id);
        for i in order {
            let c = &self.circuits[i];
            if c.backup.contains(&failed) {
                out.push((c.id, RestorationOutcome::BackupAlsoFailed));
                continue;
            }
            let need = c.odu.ts_needed();
            // All-or-nothing claim across the backup path.
            if let Some(short) = c
                .backup
                .iter()
                .find(|l| self.pool.get(l).copied().unwrap_or(0) < need)
            {
                out.push((c.id, RestorationOutcome::OutOfCapacity { at: *short }));
                continue;
            }
            for l in &c.backup {
                *self.pool.get_mut(l).expect("checked above") -= need;
            }
            let hops = c.backup.len() as u64;
            let nodes = hops + 1;
            let outage =
                self.timing.detect + self.timing.per_hop * hops + self.timing.per_node_xc * nodes;
            out.push((c.id, RestorationOutcome::Restored { outage }));
        }
        out
    }
}

impl Default for MeshRestoration {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FiberId {
        FiberId::new(i)
    }

    fn reserved(m: &MeshRestoration, link: FiberId) -> usize {
        m.pool.get(&link).copied().unwrap_or(0)
    }

    /// Slots 1+1 dedicated protection would need for the same circuits
    /// (every circuit's full backup reserved on every backup link).
    fn dedicated_equivalent(m: &MeshRestoration) -> usize {
        m.circuits
            .iter()
            .map(|c| c.odu.ts_needed() * c.backup.len())
            .sum()
    }

    /// Two circuits whose working paths share fiber 0, backups share 2.
    fn two_circuits() -> MeshRestoration {
        let mut m = MeshRestoration::new();
        m.protect(ProtectedCircuit {
            id: CircuitId::new(0),
            odu: OduRate::Odu0,
            working: vec![fid(0)],
            backup: vec![fid(2), fid(3)],
        });
        m.protect(ProtectedCircuit {
            id: CircuitId::new(1),
            odu: OduRate::Odu0,
            working: vec![fid(0), fid(1)],
            backup: vec![fid(2), fid(4)],
        });
        m
    }

    #[test]
    fn dimensioning_covers_worst_single_failure() {
        let mut m = two_circuits();
        let total = m.dimension_for_single_failures();
        // Failure of fiber 0 impacts both circuits: link 2 needs 2 TS,
        // links 3 and 4 need 1 each → total 4.
        assert_eq!(reserved(&m, fid(2)), 2);
        assert_eq!(reserved(&m, fid(3)), 1);
        assert_eq!(reserved(&m, fid(4)), 1);
        assert_eq!(total, 4);
        // Dedicated 1+1 would reserve 2+2 = 4 per-circuit slots… same here
        // because backups overlap on one link only; sharing wins more as
        // disjoint failures multiply (see next test).
        assert_eq!(dedicated_equivalent(&m), 4);
    }

    #[test]
    fn sharing_beats_dedicated_for_disjoint_failures() {
        let mut m = MeshRestoration::new();
        // Two circuits with disjoint working paths but the same backup
        // path: shared pool needs one circuit's worth, dedicated two.
        for (i, w) in [fid(0), fid(1)].iter().enumerate() {
            m.protect(ProtectedCircuit {
                id: CircuitId::new(i as u32),
                odu: OduRate::Odu1,
                working: vec![*w],
                backup: vec![fid(5)],
            });
        }
        let shared = m.dimension_for_single_failures();
        assert_eq!(shared, 2); // one ODU1 (2 TS)
        assert_eq!(dedicated_equivalent(&m), 4);
    }

    #[test]
    fn activation_is_subsecond_and_claims_pool() {
        let mut m = two_circuits();
        m.dimension_for_single_failures();
        let outcomes = m.activate_for_failure(fid(0));
        assert_eq!(outcomes.len(), 2);
        for (_, o) in &outcomes {
            match o {
                RestorationOutcome::Restored { outage } => {
                    assert!(*outage < SimDuration::from_secs(1), "outage={outage}");
                    assert!(*outage > SimDuration::from_millis(50));
                }
                other => panic!("expected restore, got {other:?}"),
            }
        }
        assert_eq!(reserved(&m, fid(2)), 0);
    }

    #[test]
    fn pool_exhaustion_reported() {
        let mut m = two_circuits();
        // Under-provision link 2 deliberately.
        m.pool.insert(fid(2), 1);
        m.pool.insert(fid(3), 1);
        m.pool.insert(fid(4), 1);
        let outcomes = m.activate_for_failure(fid(0));
        assert!(matches!(outcomes[0].1, RestorationOutcome::Restored { .. }));
        assert_eq!(
            outcomes[1].1,
            RestorationOutcome::OutOfCapacity { at: fid(2) }
        );
    }

    #[test]
    fn backup_through_failure_detected() {
        let mut m = MeshRestoration::new();
        m.protect(ProtectedCircuit {
            id: CircuitId::new(0),
            odu: OduRate::Odu0,
            working: vec![fid(0), fid(1)],
            backup: vec![fid(2)],
        });
        m.pool.insert(fid(2), 8);
        // Fail a fiber on the *backup* of a circuit whose working also
        // uses it? Here: fail fiber used by working only → restored; then
        // check the shared-fiber case via a circuit whose backup contains
        // the failed fiber.
        let mut m2 = MeshRestoration::new();
        m2.protect(ProtectedCircuit {
            id: CircuitId::new(0),
            odu: OduRate::Odu0,
            working: vec![fid(0)],
            backup: vec![fid(1)],
        });
        m2.protect(ProtectedCircuit {
            id: CircuitId::new(1),
            odu: OduRate::Odu0,
            working: vec![fid(1)],
            backup: vec![fid(0)],
        });
        m2.pool.insert(fid(0), 8);
        m2.pool.insert(fid(1), 8);
        // Fiber 1 fails: circuit 1's working dies; its backup (fiber 0)
        // is fine → restored. Circuit 0 is unaffected (working = fiber 0).
        let o = m2.activate_for_failure(fid(1));
        assert_eq!(o.len(), 1);
        assert!(matches!(o[0].1, RestorationOutcome::Restored { .. }));
    }

    #[test]
    fn outage_grows_with_backup_length() {
        let mut m = MeshRestoration::new();
        m.protect(ProtectedCircuit {
            id: CircuitId::new(0),
            odu: OduRate::Odu0,
            working: vec![fid(0)],
            backup: vec![fid(1)],
        });
        m.protect(ProtectedCircuit {
            id: CircuitId::new(1),
            odu: OduRate::Odu0,
            working: vec![fid(0)],
            backup: vec![fid(2), fid(3), fid(4)],
        });
        for l in 1..5 {
            m.pool.insert(fid(l), 8);
        }
        let o = m.activate_for_failure(fid(0));
        let outage = |x: &RestorationOutcome| match x {
            RestorationOutcome::Restored { outage } => *outage,
            _ => panic!(),
        };
        assert!(outage(&o[1].1) > outage(&o[0].1));
    }

    #[test]
    #[should_panic(expected = "link-disjoint")]
    fn non_disjoint_backup_rejected() {
        let mut m = MeshRestoration::new();
        m.protect(ProtectedCircuit {
            id: CircuitId::new(0),
            odu: OduRate::Odu0,
            working: vec![fid(0), fid(1)],
            backup: vec![fid(1), fid(2)],
        });
    }
}
