//! End-to-end integration: one continuous scenario exercising every
//! subsystem across crate boundaries — testbed bring-up, OTN layer,
//! composite BoD, a fiber cut with automated restoration, planned
//! maintenance with bridge-and-roll, re-grooming, and an inventory
//! snapshot at the end.

use griphon::{ConnState, InventorySnapshot};
use griphon_bench::experiments::quiet_testbed;
use otn::ClientSignal;
use photonic::{FiberState, LineRate};
use simcore::{DataRate, SimDuration};

#[test]
fn full_lifecycle_scenario() {
    // ── Phase 0: plant bring-up ─────────────────────────────────────
    let (mut ctl, ids) = quiet_testbed(10);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iii, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iii, LineRate::Gbps10)
        .unwrap();
    ctl.provision_trunk(ids.iii, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    assert!(ctl.trunks().iter().all(|t| t.ready));

    let acme = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let bravo = ctl.tenants.register("bravo", DataRate::from_gbps(50));

    // ── Phase 1: composite BoD + plain circuits ─────────────────────
    let bundle = ctl
        .request_bandwidth(acme, ids.i, ids.iv, DataRate::from_gbps(12))
        .unwrap();
    let bravo_wl = ctl
        .request_wavelength(bravo, ids.ii, ids.iii, LineRate::Gbps10)
        .unwrap();
    let bravo_sub = ctl
        .request_subwavelength(bravo, ids.i, ids.iv, ClientSignal::GbE)
        .unwrap();
    ctl.run_until_idle();
    assert_eq!(ctl.bundle_active_rate(&bundle), DataRate::from_gbps(12));
    assert_eq!(ctl.connection(bravo_wl).unwrap().state, ConnState::Active);
    assert_eq!(ctl.connection(bravo_sub).unwrap().state, ConnState::Active);
    // Tenant accounting adds up.
    assert_eq!(
        ctl.tenants.get(acme).unwrap().in_use,
        DataRate::from_gbps(12)
    );
    assert_eq!(
        ctl.tenants.get(bravo).unwrap().in_use,
        DataRate::from_gbps(11)
    );

    // ── Phase 2: fiber cut hits the bundle's wavelength ─────────────
    // Find the fiber the bundle's λ member uses.
    let wl_member = *bundle
        .members
        .iter()
        .find(|m| {
            matches!(
                ctl.connection(**m).unwrap().kind,
                griphon::ConnectionKind::Wavelength { .. }
            )
        })
        .unwrap();
    let cut_fiber = ctl
        .connection(wl_member)
        .unwrap()
        .wavelength_plan()
        .unwrap()
        .path[0];
    ctl.inject_fiber_cut(cut_fiber, 0);
    ctl.schedule_repair(cut_fiber, SimDuration::from_hours(8));
    ctl.run_until_idle();
    // Everything is back (restoration or trunk recovery), long before
    // the 8-hour repair would have.
    for c in ctl.connections() {
        if !c.state.is_terminal() {
            assert_eq!(
                c.state,
                ConnState::Active,
                "{} stuck in {:?}",
                c.id,
                c.state
            );
        }
    }
    let outage = ctl.connection(wl_member).unwrap().outage_total;
    assert!(outage > SimDuration::ZERO);
    assert!(outage < SimDuration::from_mins(10), "outage={outage}");

    // ── Phase 3: planned maintenance on a loaded fiber ──────────────
    let target = ids.f_i_iii;
    let moved = ctl.start_fiber_maintenance(target).unwrap();
    ctl.run_until_idle();
    assert!(matches!(
        ctl.net.fiber(target).state,
        FiberState::Maintenance
    ));
    // Bridge-and-roll added no outage to the moved connections.
    for id in &moved {
        let c = ctl.connection(*id).unwrap();
        assert_eq!(c.state, ConnState::Active);
    }
    if let Some(h) = ctl.metrics.get_histogram("maintenance.hit_ms") {
        assert!(h.max() < 1_000.0, "roll hit must be sub-second");
    }
    ctl.end_fiber_maintenance(target);
    assert!(ctl.net.fiber(target).is_up());

    // ── Phase 4: teardown and final accounting ──────────────────────
    ctl.release_bundle(&bundle);
    ctl.request_teardown(bravo_wl).unwrap();
    ctl.request_teardown(bravo_sub).unwrap();
    ctl.run_until_idle();
    assert_eq!(ctl.tenants.get(acme).unwrap().in_use, DataRate::ZERO);
    assert_eq!(ctl.tenants.get(bravo).unwrap().in_use, DataRate::ZERO);

    let snap = InventorySnapshot::capture(&ctl);
    // All customer circuits released…
    assert_eq!(snap.connections_in(ConnState::Released), {
        bundle.members.len() + 2
    });
    // …and all transponders back in the pool except the trunks' four.
    assert_eq!(snap.idle_ots(), 40 - 4);
    // Snapshot survives serialization.
    let back = InventorySnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(snap, back);
}

#[test]
fn customer_views_stay_isolated_through_faults() {
    let (mut ctl, ids) = quiet_testbed(8);
    let a = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let b = ctl.tenants.register("bravo", DataRate::from_gbps(100));
    let ca = ctl
        .request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.request_wavelength(b, ids.ii, ids.iii, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    // During the outage, only A sees trouble.
    let va = ctl.customer_view(a);
    let vb = ctl.customer_view(b);
    assert!(va.contains("OUTAGE"));
    assert!(!vb.contains("OUTAGE"));
    assert!(!vb.contains(&ca.to_string()));
    ctl.run_until_idle();
    assert!(ctl.customer_view(a).contains("[up]"));
}

#[test]
fn grooming_layers_compose_with_controller() {
    // Sub-wavelength circuits from three customers share one trunk; the
    // OTN switch's slot accounting must match the controller's view.
    let (mut ctl, ids) = quiet_testbed(6);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    let trunk = ctl
        .provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    let mut ids_conn = Vec::new();
    for i in 0..3 {
        let c = ctl
            .tenants
            .register(format!("csp{i}"), DataRate::from_gbps(10));
        ids_conn.push(
            ctl.request_subwavelength(c, ids.i, ids.iv, ClientSignal::GbE)
                .unwrap(),
        );
    }
    ctl.run_until_idle();
    assert_eq!(ctl.trunk_free_ts(trunk), 8 - 3);
    // An ODU2 (8 TS) can no longer fit.
    let big = ctl.tenants.register("big", DataRate::from_gbps(100));
    assert!(ctl
        .request_subwavelength(big, ids.i, ids.iv, ClientSignal::TenGbE)
        .is_err());
    // Release one; slots return.
    ctl.request_teardown(ids_conn[0]).unwrap();
    ctl.run_until_idle();
    assert_eq!(ctl.trunk_free_ts(trunk), 8 - 2);
}
