//! OTN trunks and sub-wavelength circuit service.
//!
//! The OTN layer "rides on top of the DWDM layer" (§2.2): the carrier
//! provisions *trunks* — wavelengths between OTN switches — and then
//! sells sub-wavelength circuits groomed onto them at ODU granularity.
//! Setting up a sub-wavelength circuit is electronic: a light EMS session
//! plus cross-connects configured in parallel, i.e. seconds — the "this
//! is achievable today at low data rates" half of Table 1's second row,
//! in contrast to the 60–70 s optical turn-up.
//!
//! Routing over trunks is BFS by trunk count over trunks with enough free
//! tributary slots at both ends; each traversed switch gets one
//! cross-connect (client→line at the ends, line→line transit grooming in
//! the middle — the thing muxponders cannot do).

use std::collections::{BTreeMap, VecDeque};

use simcore::DataRate;

use otn::{ClientSignal, OtnSwitch, SwitchError};
use photonic::{LineRate, RoadmId};

use crate::connection::{
    Connection, ConnectionId, ConnectionKind, Resources, SubWavelengthRoute, TrunkId,
};
use crate::controller::{Controller, Event, RequestError, Trunk, WorkflowKind};
use crate::tenant::CustomerId;
use crate::workflow::{Owner, SETUP, SUBWL_SETUP};

impl Controller {
    /// Install an OTN switch at `node`. Returns its internal index.
    ///
    /// # Panics
    /// If the node already has a switch.
    pub fn add_otn_switch(&mut self, node: RoadmId, fabric_capacity: DataRate) -> usize {
        self.journal_record(|| crate::durability::Intent::AddOtnSwitch {
            node: node.raw(),
            fabric_bps: fabric_capacity.bps(),
        });
        assert!(
            !self.switch_at.contains_key(&node),
            "{node} already has an OTN switch"
        );
        let idx = self.switches.len();
        self.switches.push(OtnSwitch::new(
            otn::switch::OtnSwitchId::from_index(idx),
            node,
            fabric_capacity,
        ));
        self.switch_at.insert(node, idx);
        idx
    }

    /// Provision a trunk: a carrier-internal wavelength of `rate` between
    /// the OTN switches at `a` and `b`. In service after a normal
    /// wavelength setup workflow.
    pub fn provision_trunk(
        &mut self,
        a: RoadmId,
        b: RoadmId,
        rate: LineRate,
    ) -> Result<TrunkId, RequestError> {
        self.journal_record(|| crate::durability::Intent::ProvisionTrunk {
            a: a.raw(),
            b: b.raw(),
            rate: crate::durability::wal::encode_rate(rate),
        });
        let sa = self.otn_switch_at(a).ok_or(RequestError::NoOtnSwitch(a))?;
        let sb = self.otn_switch_at(b).ok_or(RequestError::NoOtnSwitch(b))?;
        let plan = self.plan_wavelength(a, b, rate, &[])?;
        self.claim_plan(&plan);
        let la = self.switches[sa].add_line_port(rate);
        let lb = self.switches[sb].add_line_port(rate);
        let id = TrunkId::new(self.next_trunk);
        self.next_trunk += 1;
        let hops = plan.hops();
        self.trunks.push(Trunk {
            id,
            a,
            b,
            plan,
            rate,
            line_a: (sa, la),
            line_b: (sb, lb),
            ready: false,
        });
        let owner = Owner::Trunk(id, Event::TrunkReady { trunk: id });
        let attrs = [("hops", hops as u64)];
        let dur = self.start(owner, "otn.trunk_setup", &attrs, &[SETUP], hops);
        self.trace.emit(
            self.now(),
            "otn",
            format!(
                "{id} trunk {}↔{} provisioning eta={dur}",
                self.net.name(a),
                self.net.name(b)
            ),
        );
        Ok(id)
    }

    pub(crate) fn on_trunk_ready(&mut self, id: TrunkId) {
        let now = self.now();
        self.workflows.complete(id.raw(), "trunk_provision");
        if let Some(root) = self.trunk_spans.remove(&id) {
            self.spans.close(root, now);
        }
        let t = &mut self.trunks[id.index()];
        if t.ready {
            return;
        }
        t.ready = true;
        let (s, d) = (t.plan.ot_src, t.plan.ot_dst);
        self.net.transponder_mut(s).tuning_complete();
        self.net.transponder_mut(d).tuning_complete();
        self.trace
            .emit(now, "otn", format!("{id} trunk in service"));
    }

    /// Free tributary slots usable on a trunk (min of both end line
    /// ports).
    pub fn trunk_free_ts(&self, id: TrunkId) -> usize {
        let t = &self.trunks[id.index()];
        let fa = self.switches[t.line_a.0].free_ts(t.line_a.1);
        let fb = self.switches[t.line_b.0].free_ts(t.line_b.1);
        fa.min(fb)
    }

    /// Order a sub-wavelength circuit carrying `signal` between two nodes
    /// with OTN switches. Electronic setup: seconds, not a minute.
    pub fn request_subwavelength(
        &mut self,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        signal: ClientSignal,
    ) -> Result<ConnectionId, RequestError> {
        self.journal_record(|| crate::durability::Intent::Subwavelength {
            customer: customer.raw(),
            from: from.raw(),
            to: to.raw(),
            signal: crate::durability::wal::encode_signal(signal),
        });
        let s_from = self
            .otn_switch_at(from)
            .ok_or(RequestError::NoOtnSwitch(from))?;
        let s_to = self
            .otn_switch_at(to)
            .ok_or(RequestError::NoOtnSwitch(to))?;
        self.tenants.admit(customer, signal.rate())?;
        let needed = signal.odu_mapping().ts_needed();
        let Some(trunk_path) = self.route_over_trunks(from, to, needed) else {
            self.tenants.release(customer, signal.rate());
            return Err(RequestError::NoTrunkCapacity);
        };
        // Create the cross-connects hop by hop. Client ports are created
        // on demand at the end switches (the premises NTE plugs in there).
        let mut xcs: Vec<(usize, otn::XcId)> = Vec::new();
        let result = self.build_subwavelength_xcs(s_from, s_to, signal, &trunk_path, &mut xcs);
        if let Err(e) = result {
            for (sw, xc) in xcs {
                self.switch_disconnect(sw, xc);
            }
            self.tenants.release(customer, signal.rate());
            self.trace
                .emit(self.now(), "otn", format!("sub-λ setup failed: {e}"));
            return Err(RequestError::NoTrunkCapacity);
        }
        let id = self.fresh_conn_id();
        let mut conn = Connection::new(
            id,
            customer,
            from,
            to,
            ConnectionKind::SubWavelength { signal },
            self.now(),
        );
        conn.resources = Some(Resources::SubWavelength(SubWavelengthRoute {
            trunks: trunk_path.clone(),
            xcs,
        }));
        self.conns.insert(id, conn);
        let trunks = trunk_path.len();
        let owner = Owner::Conn(id, WorkflowKind::Setup);
        let attrs = [("trunks", trunks as u64)];
        let dur = self.start(owner, "conn.subwl_setup", &attrs, &[SUBWL_SETUP], trunks);
        self.trace.emit(
            self.now(),
            "otn",
            format!(
                "{id} sub-λ {signal} {}→{} over {} trunk(s) eta={dur}",
                self.net.name(from),
                self.net.name(to),
                trunk_path.len()
            ),
        );
        Ok(id)
    }

    fn build_subwavelength_xcs(
        &mut self,
        s_from: usize,
        s_to: usize,
        signal: ClientSignal,
        trunk_path: &[TrunkId],
        xcs: &mut Vec<(usize, otn::XcId)>,
    ) -> Result<(), SwitchError> {
        // For each traversed switch, find the line ports it touches.
        // End switches: client → line. Transit: line → line.
        let odu = signal.odu_mapping();
        let mut per_switch: BTreeMap<usize, Vec<otn::LinePortId>> = BTreeMap::new();
        for tid in trunk_path {
            let t = &self.trunks[tid.index()];
            per_switch.entry(t.line_a.0).or_default().push(t.line_a.1);
            per_switch.entry(t.line_b.0).or_default().push(t.line_b.1);
        }
        for (sw, lines) in per_switch {
            if sw == s_from || sw == s_to {
                debug_assert_eq!(lines.len(), 1, "end switch touches one trunk");
                let client = self.switches[sw].add_client_port(signal);
                let xc = self.switches[sw].connect_client_to_line(client, lines[0])?;
                xcs.push((sw, xc));
            } else {
                debug_assert_eq!(lines.len(), 2, "transit switch joins two trunks");
                let xc = self.switches[sw].connect_line_to_line(lines[0], lines[1], odu)?;
                xcs.push((sw, xc));
            }
        }
        Ok(())
    }

    /// BFS over ready trunks with ≥ `needed_ts` free slots; returns the
    /// trunk sequence.
    fn route_over_trunks(
        &self,
        from: RoadmId,
        to: RoadmId,
        needed_ts: usize,
    ) -> Option<Vec<TrunkId>> {
        if from == to {
            return None;
        }
        let mut prev: BTreeMap<RoadmId, (RoadmId, TrunkId)> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for t in &self.trunks {
                if !t.ready || self.trunk_free_ts(t.id) < needed_ts {
                    continue;
                }
                let m = if t.a == n {
                    t.b
                } else if t.b == n {
                    t.a
                } else {
                    continue;
                };
                if m == from || prev.contains_key(&m) {
                    continue;
                }
                prev.insert(m, (n, t.id));
                if m == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, tid) = prev[&cur];
                        path.push(tid);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::ConnState;
    use crate::controller::ControllerConfig;
    use photonic::PhotonicNetwork;
    use simcore::SimDuration;

    /// Testbed with OTN switches at I, III and IV and trunks I–III, III–IV.
    fn otn_testbed() -> (Controller, photonic::TestbedIds, CustomerId) {
        let (net, ids) = PhotonicNetwork::testbed(6);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
        ctl.add_otn_switch(ids.iii, DataRate::from_gbps(320));
        ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
        ctl.provision_trunk(ids.i, ids.iii, LineRate::Gbps10)
            .unwrap();
        ctl.provision_trunk(ids.iii, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        (ctl, ids, csp)
    }

    #[test]
    fn trunk_provisioning_uses_wavelength_workflow() {
        let (ctl, _, _) = otn_testbed();
        assert_eq!(ctl.trunks().len(), 2);
        assert!(ctl.trunks().iter().all(|t| t.ready));
        // Trunks took 60+ s to come up.
        assert!(ctl.now() > simcore::SimTime::from_secs(60));
        assert_eq!(ctl.trunk_free_ts(TrunkId::new(0)), 8);
    }

    #[test]
    fn subwavelength_setup_is_seconds() {
        let (mut ctl, ids, csp) = otn_testbed();
        let t0 = ctl.now();
        let id = ctl
            .request_subwavelength(csp, ids.i, ids.iii, ClientSignal::GbE)
            .unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        let setup = ctl.now().since(t0);
        assert!(
            setup < SimDuration::from_secs(5),
            "electronic setup took {setup}"
        );
        // One TS consumed on the trunk.
        assert_eq!(ctl.trunk_free_ts(TrunkId::new(0)), 7);
    }

    #[test]
    fn multi_trunk_circuit_grooms_at_transit() {
        let (mut ctl, ids, csp) = otn_testbed();
        let id = ctl
            .request_subwavelength(csp, ids.i, ids.iv, ClientSignal::GbE)
            .unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        match &conn.resources {
            Some(Resources::SubWavelength(r)) => {
                assert_eq!(r.trunks.len(), 2);
                assert_eq!(r.xcs.len(), 3); // client+line at I, transit at III, line+client at IV
            }
            other => panic!("unexpected resources {other:?}"),
        }
        // The transit switch at III carries a line-to-line xc.
        let sw3 = &ctl.switches[ctl.otn_switch_at(ids.iii).unwrap()];
        assert_eq!(sw3.xc_count(), 1);
    }

    #[test]
    fn trunk_capacity_exhausts_then_frees() {
        let (mut ctl, ids, csp) = otn_testbed();
        // ODU2 fills all 8 TS of the 10G trunk.
        let big = ctl
            .request_subwavelength(csp, ids.i, ids.iii, ClientSignal::TenGbE)
            .unwrap();
        ctl.run_until_idle();
        assert_eq!(ctl.trunk_free_ts(TrunkId::new(0)), 0);
        let err = ctl
            .request_subwavelength(csp, ids.i, ids.iii, ClientSignal::GbE)
            .unwrap_err();
        assert_eq!(err, RequestError::NoTrunkCapacity);
        // Quota was refunded on failure.
        assert_eq!(
            ctl.tenants.get(csp).unwrap().in_use,
            DataRate::from_gbps(10)
        );
        ctl.request_teardown(big).unwrap();
        ctl.run_until_idle();
        assert_eq!(ctl.trunk_free_ts(TrunkId::new(0)), 8);
        ctl.request_subwavelength(csp, ids.i, ids.iii, ClientSignal::GbE)
            .unwrap();
    }

    #[test]
    fn no_switch_no_service() {
        let (mut ctl, ids, csp) = otn_testbed();
        let err = ctl
            .request_subwavelength(csp, ids.ii, ids.iii, ClientSignal::GbE)
            .unwrap_err();
        assert_eq!(err, RequestError::NoOtnSwitch(ids.ii));
    }

    #[test]
    fn trunk_failure_fails_and_recovers_riders() {
        let (mut ctl, ids, csp) = otn_testbed();
        let id = ctl
            .request_subwavelength(csp, ids.i, ids.iii, ClientSignal::GbE)
            .unwrap();
        ctl.run_until_idle();
        // The I–III trunk rides the direct I–III fiber; cut it.
        let trunk_path = ctl.trunks()[0].plan.path.clone();
        ctl.inject_fiber_cut(trunk_path[0], 0);
        assert_eq!(ctl.connection(id).unwrap().state, ConnState::Failed);
        ctl.run_until_idle();
        // Trunk restored over a detour; the rider recovered with it.
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        assert!(conn.outage_total > SimDuration::ZERO);
        assert!(ctl.trunks()[0].ready);
        assert!(!ctl.trunks()[0].plan.path.contains(&trunk_path[0]));
    }
}
