//! Cross-crate integration: the CSP-facing stack (portal, replication,
//! deadline scheduler) driving the carrier stack end to end, with
//! failures in the middle of the workload.

use cloud::replication::ReplicationPolicy;
use cloud::scheduler::DeadlineBodPolicy;
use cloud::{CspPortal, DataCenterSet};
use griphon::controller::Controller;
use griphon_bench::experiments::quiet_testbed;
use photonic::LineRate;
use simcore::{DataRate, DataSize, SimDuration};

fn carrier() -> (Controller, photonic::TestbedIds) {
    let (mut ctl, ids) = quiet_testbed(10);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    (ctl, ids)
}

#[test]
fn replication_workload_completes_despite_fiber_cut() {
    let (mut ctl, ids) = carrier();
    let account = ctl.tenants.register("acme", DataRate::from_gbps(300));
    let mut dcs = DataCenterSet::new();
    let a = dcs.add("east", ids.i, DataRate::from_gbps(40));
    let b = dcs.add("west", ids.iv, DataRate::from_gbps(40));
    let portal = CspPortal::new(account, dcs);

    // One nightly backup: east → west, 15 TB, generous deadline.
    let policy = ReplicationPolicy::PeriodicBackup {
        target: b,
        period: SimDuration::from_hours(2),
        snapshot: DataSize::from_terabytes(15),
        deadline_frac: 3.0,
    };
    let mut next = 0;
    let jobs = policy.jobs(&portal.dcs, SimDuration::from_hours(3), &mut next);
    assert_eq!(jobs.len(), 1);
    assert!(jobs.iter().all(|j| j.from == a && j.to == b));

    // The backhoe has already struck the direct I–IV fiber; repair is
    // 8 hours out. The whole workload must ride detours, transparently
    // to the CSP.
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.schedule_repair(ids.f_i_iv, SimDuration::from_hours(8));
    let out = DeadlineBodPolicy::default().run(
        &mut ctl,
        account,
        ids.i,
        ids.iv,
        jobs,
        SimDuration::from_hours(12),
        SimDuration::from_secs(60),
    );
    assert_eq!(out.log.completed, 1, "backup completes despite the cut");
    assert!((out.log.deadline_hit_rate - 1.0).abs() < 1e-9);

    // Carrier accounting is clean afterwards.
    ctl.run_until_idle();
    assert_eq!(ctl.tenants.get(account).unwrap().in_use, DataRate::ZERO);
    // The trunk survived or was restored — still ready.
    assert!(ctl.trunks().iter().all(|t| t.ready));
    // Views render and agree on the big picture.
    let cv = ctl.carrier_view();
    assert!(cv.contains("trunks: 1 (1 ready)"), "{cv}");
}

#[test]
fn portal_prevents_overselling_while_carrier_would_accept() {
    let (mut ctl, ids) = carrier();
    let account = ctl.tenants.register("acme", DataRate::from_gbps(300));
    let mut dcs = DataCenterSet::new();
    let a = dcs.add("east", ids.i, DataRate::from_gbps(20));
    let b = dcs.add("west", ids.iv, DataRate::from_gbps(20));
    let mut portal = CspPortal::new(account, dcs);
    portal
        .order(&mut ctl, a, b, DataRate::from_gbps(12))
        .unwrap();
    // Carrier quota (300 G) and plant would allow more, but the 20 G
    // access pipes must not.
    let err = portal
        .order(&mut ctl, a, b, DataRate::from_gbps(10))
        .unwrap_err();
    assert!(matches!(err, cloud::PortalError::AccessPipeFull { .. }));
    ctl.run_until_idle();
    // What was ordered is exactly what is committed at the carrier.
    assert_eq!(
        ctl.tenants.get(account).unwrap().in_use,
        DataRate::from_gbps(12)
    );
}
