//! Bridge-and-roll, planned maintenance, and re-grooming.
//!
//! §2.2: *"the GRIPhoN controller executes a bridge-and-roll operation
//! that first creates a full new wavelength path (the 'bridge') while the
//! original connection is still in use and then quickly 'rolls' the
//! traffic on to the new path when ready. The bridge-and-roll results in
//! an almost hitless movement of traffic … One constraint … is that the
//! new wavelength path has to be resource disjoint to the old path."*
//!
//! Three entry points:
//!
//! - [`Controller::bridge_and_roll`] — move one connection to a new
//!   disjoint path. Traffic keeps flowing while the bridge is built
//!   (60–70 s); the roll itself is one FXC switch (~50 ms) — that is the
//!   entire service hit, recorded in the `maintenance.hit_ms` histogram.
//! - [`Controller::start_fiber_maintenance`] — drain a fiber: every
//!   active connection crossing it is bridge-and-rolled away; the fiber
//!   enters maintenance once the last one has rolled.
//! - [`Controller::cold_reroute`] — the baseline GRIPhoN is compared
//!   against in experiment E3: tear down, then re-provision, taking the
//!   full teardown + setup outage.
//! - [`Controller::regroom`] — §4's re-grooming application: migrate a
//!   connection onto a shorter path that appeared after network
//!   augmentation, using bridge-and-roll so the move is hitless.

use photonic::{EmsCommand, FiberId};

use crate::connection::{ConnState, ConnectionId, ConnectionKind, Resources};
use crate::controller::{Controller, RequestError, WorkflowKind};

impl Controller {
    /// Stage a bridge for `id` on a path avoiding `excluded` fibers (the
    /// old path's fibers are always avoided — resource disjointness), then
    /// roll traffic onto it. Returns the planned bridge hop count.
    pub fn bridge_and_roll(
        &mut self,
        id: ConnectionId,
        excluded: &[FiberId],
    ) -> Result<usize, RequestError> {
        self.journal_record(|| crate::durability::Intent::BridgeRoll {
            conn: id.raw(),
            excluded: excluded.iter().map(|f| f.raw()).collect(),
        });
        let conn = self
            .conns
            .get(&id)
            .ok_or(RequestError::UnknownConnection(id))?;
        if conn.state != ConnState::Active {
            return Err(RequestError::BadState(id, conn.state));
        }
        let (rate, from, to) = match (conn.kind, &conn.resources) {
            (ConnectionKind::Wavelength { rate }, Some(Resources::Wavelength(_))) => {
                (rate, conn.from, conn.to)
            }
            _ => return Err(RequestError::BadState(id, conn.state)),
        };
        if conn.bridge.is_some() {
            return Err(RequestError::BadState(id, conn.state));
        }
        // Disjointness: exclude the old path plus caller exclusions.
        let old_path = conn.wavelength_plan().expect("checked above").path.clone();
        let mut avoid: Vec<FiberId> = old_path;
        avoid.extend_from_slice(excluded);
        let plan = self.plan_wavelength(from, to, rate, &avoid)?;
        self.claim_plan(&plan);
        let hops = plan.hops();
        self.conns.get_mut(&id).expect("conn exists").bridge = Some(plan);
        let sample = self.wavelength_setup_sample(hops);
        let dur = sample.total();
        self.trace.emit(
            self.now(),
            "maint",
            format!("{id} bridge building ({hops} hops) eta={dur}"),
        );
        let t0 = self.now();
        let root = self.open_workflow_span(id, WorkflowKind::Bridge, t0, "conn.bridge");
        if root.is_valid() {
            self.spans.attr_u64(root, "hops", hops as u64);
            self.emit_setup_spans(root, t0, &sample);
        }
        self.schedule_workflow(dur, id, WorkflowKind::Bridge);
        Ok(hops)
    }

    pub(crate) fn on_bridge_done(&mut self, id: ConnectionId) {
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(bridge) = conn.bridge.as_ref() else {
            return; // bridge was abandoned (e.g. teardown raced it)
        };
        let (s, d) = (bridge.ot_src, bridge.ot_dst);
        self.net.transponder_mut(s).tuning_complete();
        self.net.transponder_mut(d).tuning_complete();
        // Roll: one FXC reconfiguration at each end, in parallel.
        let roll = self
            .ems
            .latency(EmsCommand::FxcSwitch, &mut self.rng)
            .max(self.ems.latency(EmsCommand::FxcSwitch, &mut self.rng));
        let root = self.open_workflow_span(id, WorkflowKind::Roll, now, "conn.roll");
        if root.is_valid() {
            let ph = self
                .spans
                .record(now, now + roll, "phase", "phase.fxc", Some(root));
            self.spans.attr_u64(ph, "queue_wait_ns", 0);
            self.spans.record(
                now,
                now + roll,
                "device",
                EmsCommand::FxcSwitch.span_name(),
                Some(ph),
            );
        }
        self.trace
            .emit(now, "maint", format!("{id} bridge ready, rolling ({roll})"));
        self.schedule_workflow(roll, id, WorkflowKind::Roll);
        // The roll is the hit.
        self.metrics
            .histogram("maintenance.hit_ms")
            .record(roll.as_secs_f64() * 1e3);
    }

    pub(crate) fn on_roll_done(&mut self, id: ConnectionId) {
        let now = self.now();
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(new_plan) = conn.bridge.take() else {
            return;
        };
        let old = conn.resources.replace(Resources::Wavelength(new_plan));
        self.trace
            .emit(now, "maint", format!("{id} rolled to bridge path"));
        self.metrics.counter("maintenance.rolls").incr();
        if let Some(Resources::Wavelength(old_plan)) = old {
            // Old path released through a normal (cheap) teardown delay;
            // resources free at completion. Model it synchronously here —
            // the path carries no traffic, so only inventory timing
            // matters, and tests care that it is eventually free.
            self.release_plan(&old_plan);
            let old_fibers = old_plan.path;
            // Maintenance bookkeeping: the drain may now be complete.
            self.check_maintenance_progress(id, &old_fibers);
        }
    }

    fn check_maintenance_progress(&mut self, rolled: ConnectionId, old_fibers: &[FiberId]) {
        let now = self.now();
        let mut ready = Vec::new();
        for (fiber, waiting) in self.pending_maintenance.iter_mut() {
            if old_fibers.contains(fiber) {
                waiting.remove(&rolled);
                if waiting.is_empty() {
                    ready.push(*fiber);
                }
            }
        }
        for fiber in ready {
            self.pending_maintenance.remove(&fiber);
            self.net.fiber_mut(fiber).enter_maintenance();
            self.trace
                .emit(now, "maint", format!("{fiber} drained, in maintenance"));
        }
    }

    /// Drain `fiber` for planned maintenance: bridge-and-roll every
    /// active connection using it. The fiber enters maintenance when the
    /// last one rolls (immediately, if none use it). Returns the ids of
    /// the connections being moved.
    pub fn start_fiber_maintenance(
        &mut self,
        fiber: FiberId,
    ) -> Result<Vec<ConnectionId>, RequestError> {
        self.journal_record(|| crate::durability::Intent::StartFiberMaintenance {
            fiber: fiber.raw(),
        });
        let using: Vec<ConnectionId> = self
            .conns
            .values()
            .filter(|c| c.state == ConnState::Active && c.path_uses_fiber(fiber))
            .map(|c| c.id)
            .collect();
        if using.is_empty() {
            self.net.fiber_mut(fiber).enter_maintenance();
            self.trace.emit(
                self.now(),
                "maint",
                format!("{fiber} idle, straight to maintenance"),
            );
            return Ok(Vec::new());
        }
        let mut moved = Vec::new();
        let rolled: Result<(), RequestError> = self.journaled(|c| {
            for id in using {
                c.bridge_and_roll(id, &[fiber])?;
                moved.push(id);
            }
            Ok(())
        });
        rolled?;
        self.pending_maintenance
            .insert(fiber, moved.iter().copied().collect());
        Ok(moved)
    }

    /// Return a fiber from maintenance to service.
    pub fn end_fiber_maintenance(&mut self, fiber: FiberId) {
        self.journal_record(|| crate::durability::Intent::EndFiberMaintenance {
            fiber: fiber.raw(),
        });
        self.net.fiber_mut(fiber).restore();
        self.trace
            .emit(self.now(), "maint", format!("{fiber} back in service"));
    }

    /// The baseline alternative to bridge-and-roll: take the connection
    /// down, re-provision it on a path avoiding `excluded`. The customer
    /// eats the full teardown + setup outage; returns nothing until the
    /// event loop finishes the work.
    pub fn cold_reroute(
        &mut self,
        id: ConnectionId,
        excluded: &[FiberId],
    ) -> Result<(), RequestError> {
        self.journal_record(|| crate::durability::Intent::ColdReroute {
            conn: id.raw(),
            excluded: excluded.iter().map(|f| f.raw()).collect(),
        });
        let conn = self
            .conns
            .get(&id)
            .ok_or(RequestError::UnknownConnection(id))?;
        if conn.state != ConnState::Active {
            return Err(RequestError::BadState(id, conn.state));
        }
        let (rate, from, to) = match conn.kind {
            ConnectionKind::Wavelength { rate } => (rate, conn.from, conn.to),
            _ => return Err(RequestError::BadState(id, conn.state)),
        };
        let mut avoid: Vec<FiberId> = conn.wavelength_plan().expect("active λ conn").path.clone();
        avoid.extend_from_slice(excluded);
        let plan = self.plan_wavelength(from, to, rate, &avoid)?;
        // Outage starts now: traffic stops the moment teardown begins.
        let now = self.now();
        let teardown_sample = self.wavelength_teardown_sample();
        let setup_sample = self.wavelength_setup_sample(plan.hops());
        let teardown = teardown_sample.total();
        let setup = setup_sample.total();
        let old = {
            let c = self.conns.get_mut(&id).expect("conn exists");
            c.transition(ConnState::Failed);
            c.outage_start(now);
            c.resources.take()
        };
        if let Some(Resources::Wavelength(old_plan)) = old {
            self.release_plan(&old_plan);
        }
        self.claim_plan(&plan);
        {
            let c = self.conns.get_mut(&id).expect("conn exists");
            c.resources = Some(Resources::Wavelength(plan));
            c.transition(ConnState::Restoring);
        }
        let hit = teardown + setup;
        let root = self.open_workflow_span(id, WorkflowKind::Restore, now, "conn.cold_reroute");
        if root.is_valid() {
            self.emit_teardown_spans(root, now, &teardown_sample);
            self.emit_setup_spans(root, now + teardown, &setup_sample);
        }
        self.metrics
            .histogram("maintenance.cold_hit_ms")
            .record(hit.as_secs_f64() * 1e3);
        self.trace.emit(
            now,
            "maint",
            format!("{id} cold reroute, outage will be {hit}"),
        );
        self.schedule_workflow(hit, id, WorkflowKind::Restore);
        Ok(())
    }

    /// §4 re-grooming: if a strictly shorter (by km) disjoint path exists
    /// for `id`, migrate onto it via bridge-and-roll. Returns `Some(km
    /// saved)` when a migration was started.
    pub fn regroom(&mut self, id: ConnectionId) -> Result<Option<f64>, RequestError> {
        self.journal_record(|| crate::durability::Intent::Regroom { conn: id.raw() });
        let conn = self
            .conns
            .get(&id)
            .ok_or(RequestError::UnknownConnection(id))?;
        if conn.state != ConnState::Active || conn.bridge.is_some() {
            return Err(RequestError::BadState(id, conn.state));
        }
        let (rate, from, to) = match conn.kind {
            ConnectionKind::Wavelength { rate } => (rate, conn.from, conn.to),
            _ => return Err(RequestError::BadState(id, conn.state)),
        };
        let old_path = conn.wavelength_plan().expect("active λ conn").path.clone();
        let old_km = self.net.path_km(&old_path);
        match self.plan_wavelength(from, to, rate, &old_path) {
            Ok(plan) => {
                let new_km = self.net.path_km(&plan.path);
                if new_km + 1e-9 < old_km {
                    // Worth migrating; reuse the bridge machinery.
                    self.claim_plan(&plan);
                    let hops = plan.hops();
                    self.conns.get_mut(&id).expect("conn exists").bridge = Some(plan);
                    let sample = self.wavelength_setup_sample(hops);
                    let dur = sample.total();
                    self.trace.emit(
                        self.now(),
                        "maint",
                        format!("{id} re-grooming {old_km:.0}km → {new_km:.0}km"),
                    );
                    let t0 = self.now();
                    let root = self.open_workflow_span(id, WorkflowKind::Bridge, t0, "conn.bridge");
                    if root.is_valid() {
                        self.spans.attr_u64(root, "hops", hops as u64);
                        self.emit_setup_spans(root, t0, &sample);
                    }
                    self.schedule_workflow(dur, id, WorkflowKind::Bridge);
                    Ok(Some(old_km - new_km))
                } else {
                    Ok(None)
                }
            }
            Err(_) => Ok(None),
        }
    }

    /// Drain an entire ROADM node for maintenance: every active
    /// unprotected wavelength connection *through* it (not terminating
    /// at it) is bridge-and-rolled onto a path avoiding all the node's
    /// fibers. Returns the moved connections; terminating connections
    /// cannot be moved off their own endpoint and are returned in the
    /// second list for the operator to handle (customer notification).
    pub fn start_node_maintenance(
        &mut self,
        node: photonic::RoadmId,
    ) -> Result<(Vec<ConnectionId>, Vec<ConnectionId>), RequestError> {
        self.journal_record(|| crate::durability::Intent::StartNodeMaintenance {
            node: node.raw(),
        });
        let node_fibers: Vec<FiberId> = self.net.neighbors(node).iter().map(|&(f, _)| f).collect();
        let mut through = Vec::new();
        let mut terminating = Vec::new();
        let candidates: Vec<ConnectionId> = self
            .conns
            .values()
            .filter(|c| {
                c.state == ConnState::Active && node_fibers.iter().any(|f| c.path_uses_fiber(*f))
            })
            .map(|c| c.id)
            .collect();
        for id in candidates {
            let c = self.conns.get(&id).expect("conn exists");
            if c.from == node || c.to == node {
                terminating.push(id);
            } else {
                through.push(id);
            }
        }
        let rolled: Result<(), RequestError> = self.journaled(|c| {
            for id in &through {
                c.bridge_and_roll(*id, &node_fibers)?;
            }
            Ok(())
        });
        rolled?;
        self.trace.emit(
            self.now(),
            "maint",
            format!(
                "node {} drain: {} moving, {} terminate here",
                self.net.name(node),
                through.len(),
                terminating.len()
            ),
        );
        Ok((through, terminating))
    }

    /// §4 re-grooming sweep: try to migrate every active unprotected
    /// wavelength connection onto a shorter path. Returns
    /// `(migrations started, total km saved)`. Run after network
    /// augmentation ("additional routes between nodes will be added").
    pub fn regroom_all(&mut self) -> (usize, f64) {
        self.journal_record(|| crate::durability::Intent::RegroomAll);
        let candidates: Vec<ConnectionId> = self
            .conns
            .values()
            .filter(|c| {
                c.state == ConnState::Active
                    && c.bridge.is_none()
                    && matches!(c.kind, ConnectionKind::Wavelength { .. })
            })
            .map(|c| c.id)
            .collect();
        let mut started = 0;
        let mut km = 0.0;
        self.journal_depth += 1;
        for id in candidates {
            if let Ok(Some(saved)) = self.regroom(id) {
                started += 1;
                km += saved;
            }
        }
        self.journal_depth -= 1;
        (started, km)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::{EmsProfile, EqualizationModel, LineRate, PhotonicNetwork, Wavelength};
    use simcore::DataRate;

    fn quiet() -> ControllerConfig {
        ControllerConfig {
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        }
    }

    fn active_conn(
        ctl: &mut Controller,
        ids: &photonic::TestbedIds,
    ) -> crate::connection::ConnectionId {
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        id
    }

    #[test]
    fn bridge_and_roll_is_nearly_hitless() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let id = active_conn(&mut ctl, &ids);
        ctl.bridge_and_roll(id, &[]).unwrap();
        // Traffic still flowing while the bridge is built.
        assert_eq!(ctl.connection(id).unwrap().state, ConnState::Active);
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        assert!(conn.bridge.is_none());
        // Moved off the direct fiber (disjointness).
        let plan = conn.wavelength_plan().unwrap();
        assert!(!plan.path.contains(&ids.f_i_iv));
        // The hit is the FXC roll: ~50 ms, four orders of magnitude less
        // than a cold reroute.
        let hit = ctl.metrics.get_histogram("maintenance.hit_ms").unwrap();
        assert_eq!(hit.count(), 1);
        assert!(hit.mean() < 100.0, "hit={}ms", hit.mean());
        // Old resources freed.
        assert!(ctl.net.lambda_free_on_fiber(ids.f_i_iv, Wavelength(0)));
    }

    #[test]
    fn cold_reroute_outage_is_seconds() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let id = active_conn(&mut ctl, &ids);
        ctl.cold_reroute(id, &[]).unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        let outage = conn.outage_total.as_secs_f64();
        // teardown (9.05) + 2-hop setup (65.67) ≈ 74.7 s.
        assert!((70.0..80.0).contains(&outage), "outage={outage}");
    }

    #[test]
    fn fiber_maintenance_drains_then_flags() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let id = active_conn(&mut ctl, &ids);
        let moved = ctl.start_fiber_maintenance(ids.f_i_iv).unwrap();
        assert_eq!(moved, vec![id]);
        assert!(ctl.net.fiber(ids.f_i_iv).is_up(), "not drained yet");
        ctl.run_until_idle();
        assert!(matches!(
            ctl.net.fiber(ids.f_i_iv).state,
            photonic::FiberState::Maintenance
        ));
        assert_eq!(ctl.connection(id).unwrap().state, ConnState::Active);
        ctl.end_fiber_maintenance(ids.f_i_iv);
        assert!(ctl.net.fiber(ids.f_i_iv).is_up());
    }

    #[test]
    fn idle_fiber_maintenance_is_immediate() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let moved = ctl.start_fiber_maintenance(ids.f_ii_iii).unwrap();
        assert!(moved.is_empty());
        assert!(matches!(
            ctl.net.fiber(ids.f_ii_iii).state,
            photonic::FiberState::Maintenance
        ));
    }

    #[test]
    fn regroom_migrates_to_shorter_path() {
        // Build a network where the initial route is forced long, then a
        // short link appears (network augmentation).
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        let c = net.add_roadm("c");
        net.link(a, c, 500.0).unwrap();
        net.link(c, b, 500.0).unwrap();
        net.add_transponders(a, LineRate::Gbps10, 4).unwrap();
        net.add_transponders(b, LineRate::Gbps10, 4).unwrap();
        let mut ctl = Controller::new(net, quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let id = ctl.request_wavelength(csp, a, b, LineRate::Gbps10).unwrap();
        ctl.run_until_idle();
        assert_eq!(
            ctl.connection(id)
                .unwrap()
                .wavelength_plan()
                .unwrap()
                .hops(),
            2
        );
        // Augment: direct 300 km link appears.
        ctl.net.link(a, b, 300.0).unwrap();
        let saved = ctl.regroom(id).unwrap().expect("shorter path exists");
        assert!((saved - 700.0).abs() < 1e-6, "saved={saved}");
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.wavelength_plan().unwrap().hops(), 1);
        assert_eq!(conn.outage_total, simcore::SimDuration::ZERO);
        // Hitless: only the roll hit is recorded.
        assert!(
            ctl.metrics
                .get_histogram("maintenance.hit_ms")
                .unwrap()
                .mean()
                < 100.0
        );
    }

    #[test]
    fn regroom_noop_when_already_best() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let id = active_conn(&mut ctl, &ids);
        // Direct 1-hop path is already optimal; the only disjoint
        // alternative is longer.
        assert_eq!(ctl.regroom(id).unwrap(), None);
        assert!(ctl.connection(id).unwrap().bridge.is_none());
    }

    #[test]
    fn node_maintenance_moves_transit_keeps_terminating() {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let mut ctl = Controller::new(net, quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        // A transit connection through III (forced via exclusions) and a
        // connection terminating at III.
        let transit = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        // Move it onto the I–III–IV detour so it transits III.
        ctl.bridge_and_roll(transit, &[]).unwrap();
        ctl.run_until_idle();
        assert!(ctl
            .connection(transit)
            .unwrap()
            .path_uses_fiber(ids.f_i_iii));
        let terminating = ctl
            .request_wavelength(csp, ids.ii, ids.iii, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let (through, term) = ctl.start_node_maintenance(ids.iii).unwrap();
        assert_eq!(through, vec![transit]);
        assert_eq!(term, vec![terminating]);
        ctl.run_until_idle();
        // The transit circuit now avoids every fiber touching III.
        let plan = ctl.connection(transit).unwrap().wavelength_plan().unwrap();
        for f in &plan.path {
            let link = ctl.net.fiber(*f);
            assert!(link.a != ids.iii && link.b != ids.iii);
        }
        assert_eq!(
            ctl.connection(transit).unwrap().outage_total,
            simcore::SimDuration::ZERO
        );
    }

    #[test]
    fn reversion_after_repair_returns_to_short_path() {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let mut ctl = Controller::new(net, quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.schedule_repair(ids.f_i_iv, simcore::SimDuration::from_hours(6));
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        // Auto-reversion put it back on the repaired 1-hop primary,
        // hitlessly (outage is only the original restoration).
        assert_eq!(conn.wavelength_plan().unwrap().hops(), 1);
        assert!(conn.wavelength_plan().unwrap().path.contains(&ids.f_i_iv));
        let outage = conn.outage_total.as_secs_f64();
        assert!(outage < 120.0, "reversion added no outage: {outage}");
        assert!(ctl.metrics.counter("maintenance.reversions").get() >= 1);
    }

    #[test]
    fn regroom_all_sweeps_after_augmentation() {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let a = net.add_roadm("a");
        let b = net.add_roadm("b");
        let c = net.add_roadm("c");
        net.link(a, c, 400.0).unwrap();
        net.link(c, b, 400.0).unwrap();
        net.add_transponders(a, LineRate::Gbps10, 6).unwrap();
        net.add_transponders(b, LineRate::Gbps10, 6).unwrap();
        let mut ctl = Controller::new(net, quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let c1 = ctl.request_wavelength(csp, a, b, LineRate::Gbps10).unwrap();
        let c2 = ctl.request_wavelength(csp, a, b, LineRate::Gbps10).unwrap();
        ctl.run_until_idle();
        // Augment with a short direct link.
        ctl.net.link(a, b, 300.0).unwrap();
        let (started, km) = ctl.regroom_all();
        assert_eq!(started, 2);
        assert!((km - 2.0 * 500.0).abs() < 1e-6);
        ctl.run_until_idle();
        for id in [c1, c2] {
            assert_eq!(
                ctl.connection(id)
                    .unwrap()
                    .wavelength_plan()
                    .unwrap()
                    .hops(),
                1
            );
        }
        // A second sweep finds nothing.
        assert_eq!(ctl.regroom_all(), (0, 0.0));
    }

    #[test]
    fn double_bridge_rejected() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, quiet());
        let id = active_conn(&mut ctl, &ids);
        ctl.bridge_and_roll(id, &[]).unwrap();
        assert!(matches!(
            ctl.bridge_and_roll(id, &[]),
            Err(RequestError::BadState(..))
        ));
    }
}
