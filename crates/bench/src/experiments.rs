//! Experiment implementations — one function per paper artifact.
//!
//! Every table and figure of the paper (plus the quantified prose claims
//! E1–E7) is regenerated by a function here; the `repro` binary maps CLI
//! names onto them and `EXPERIMENTS.md` records their output against the
//! paper's numbers. Each function returns the rendered result so
//! integration tests can assert on the *shape* of the reproduction.

use griphon::controller::{Controller, ControllerConfig};
use griphon::{ConnState, Decomposition, LayerStack};
use otn::grooming::{Demand, MuxponderPacker, OtnGroomer};
use otn::restoration::{MeshRestoration, ProtectedCircuit, RestorationOutcome};
use otn::{OduRate, SonetNetwork};
use photonic::power::IterationPolicy;
use photonic::{EmsProfile, EqualizationModel, LineRate, PhotonicNetwork, TestbedIds};
use simcore::{DataRate, DataSize, SimDuration, SimRng, SimTime};

use crate::harness::parallel_cells;
use crate::table;

/// A jitter-free controller on the Fig. 4 testbed.
pub fn quiet_testbed(ots: usize) -> (Controller, TestbedIds) {
    let (net, ids) = PhotonicNetwork::testbed(ots);
    let cfg = ControllerConfig {
        ems: EmsProfile::calibrated_deterministic(),
        equalization: EqualizationModel::calibrated_deterministic(),
        ..ControllerConfig::default()
    };
    (Controller::new(net, cfg), ids)
}

/// A jittered controller on the Fig. 4 testbed (for mean-of-10 runs).
pub fn jittered_testbed(ots: usize, seed: u64) -> (Controller, TestbedIds) {
    let (net, ids) = PhotonicNetwork::testbed(ots);
    let cfg = ControllerConfig {
        seed,
        ..ControllerConfig::default()
    };
    (Controller::new(net, cfg), ids)
}

/// Pin the testbed's I → IV route to `hops` hops by cutting the shorter
/// alternatives, as the paper pinned paths I–IV, I–III–IV and
/// I–II–III–IV.
pub(crate) fn pin_route(ctl: &mut Controller, ids: &TestbedIds, hops: usize) {
    assert!((1..=3).contains(&hops), "testbed offers 1–3 hop routes");
    for &fiber in &[ids.f_i_iv, ids.f_i_iii][..hops - 1] {
        ctl.net.fiber_mut(fiber).cut_at(0);
    }
}

/// One `measure_setup` iteration: an independent (seed, route) cell that
/// owns its controller end to end. Returns observed setup seconds.
fn setup_cell(route_hops: usize, seed: u64) -> f64 {
    let (mut ctl, ids) = jittered_testbed(4, seed);
    let csp = ctl.tenants.register("lab", DataRate::from_gbps(100));
    pin_route(&mut ctl, &ids, route_hops);
    let id = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .expect("plannable");
    ctl.run_until_idle();
    let conn = ctl.connection(id).unwrap();
    assert_eq!(conn.wavelength_plan().unwrap().hops(), route_hops);
    conn.activated_at
        .unwrap()
        .since(conn.requested_at)
        .as_secs_f64()
}

/// Measure mean setup seconds over `iters` setups along a fixed route.
/// Routes are pinned by excluding the alternatives, exactly as the
/// testbed experiment pinned paths I–IV, I–III–IV, I–II–III–IV.
/// Iterations are independent (per-iteration seed) and run in parallel
/// via [`parallel_cells`]; sample order and values match the sequential
/// loop exactly.
pub fn measure_setup(route_hops: usize, iters: usize, seed: u64) -> (f64, f64) {
    let cells: Vec<u64> = (0..iters).map(|i| seed + i as u64).collect();
    let samples = parallel_cells(cells, |s| setup_cell(route_hops, s));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    (mean, var.sqrt())
}

/// **Table 2** — wavelength connection establishment time vs path length
/// (the paper: 62.48 / 65.67 / 70.94 s for 1 / 2 / 3 hops, 10 iterations).
pub fn table2() -> String {
    let paper = [62.48, 65.67, 70.94];
    let routes = ["I–IV", "I–III–IV", "I–II–III–IV"];
    let mut rows = Vec::new();
    for hops in 1..=3usize {
        let (mean, sd) = measure_setup(hops, 10, 42);
        rows.push(vec![
            format!("{hops} ({})", routes[hops - 1]),
            format!("{:.2}", paper[hops - 1]),
            format!("{mean:.2}"),
            format!("{sd:.2}"),
            format!(
                "{:+.1}%",
                (mean - paper[hops - 1]) / paper[hops - 1] * 100.0
            ),
        ]);
    }
    format!(
        "Table 2 — wavelength establishment time vs path length (10 iterations)\n{}",
        table::render(
            &[
                "path (hops)",
                "paper mean s",
                "ours mean s",
                "ours sd",
                "delta"
            ],
            &rows
        )
    )
}

/// **E1** — §3 prose: teardown ≈ 10 s; setup range 60–70 s.
pub fn e1_teardown() -> String {
    let mut setup_min = f64::MAX;
    let mut setup_max = f64::MIN;
    let mut teardowns = Vec::new();
    for i in 0..10u64 {
        let (mut ctl, ids) = jittered_testbed(4, 900 + i);
        let csp = ctl.tenants.register("lab", DataRate::from_gbps(100));
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        let setup = conn
            .activated_at
            .unwrap()
            .since(conn.requested_at)
            .as_secs_f64();
        setup_min = setup_min.min(setup);
        setup_max = setup_max.max(setup);
        let t0 = ctl.now();
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        teardowns.push(ctl.now().since(t0).as_secs_f64());
    }
    let td_mean = teardowns.iter().sum::<f64>() / teardowns.len() as f64;
    format!(
        "E1 — §3 prose timings (10 iterations)\n{}",
        table::render(
            &["quantity", "paper", "ours"],
            &[
                vec![
                    "setup range (1 hop)".into(),
                    "60–70 s".into(),
                    format!("{setup_min:.1}–{setup_max:.1} s"),
                ],
                vec![
                    "teardown".into(),
                    "≈10 s".into(),
                    format!("{td_mean:.1} s mean"),
                ],
            ]
        )
    )
}

/// **E2** — restoration comparison: 1+1 vs OTN shared-mesh vs GRIPhoN λ
/// restoration vs manual repair.
pub fn e2_restoration() -> String {
    // GRIPhoN λ restoration + a 1+1 circuit, all on one plant: cut the
    // loaded testbed's direct fiber.
    let (mut ctl, ids) = quiet_testbed(10);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let protected = ctl
        .request_protected_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    let mut conns = Vec::new();
    for _ in 0..3 {
        conns.push(
            ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap(),
        );
    }
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.run_until_idle();
    let aps_outage = ctl
        .connection(protected)
        .unwrap()
        .outage_total
        .as_secs_f64();
    let mut outages: Vec<f64> = conns
        .iter()
        .map(|c| ctl.connection(*c).unwrap().outage_total.as_secs_f64())
        .collect();
    outages.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // OTN shared-mesh: measured on the otn crate's machinery.
    let mut mesh = MeshRestoration::new();
    for i in 0..3u32 {
        mesh.protect(ProtectedCircuit {
            id: otn::restoration::CircuitId::new(i),
            odu: OduRate::Odu0,
            working: vec![photonic::FiberId::new(0)],
            backup: vec![photonic::FiberId::new(1), photonic::FiberId::new(2)],
        });
    }
    mesh.dimension_for_single_failures();
    let mesh_out = mesh.activate_for_failure(photonic::FiberId::new(0));
    let mesh_worst = mesh_out
        .iter()
        .map(|(_, o)| match o {
            RestorationOutcome::Restored { outage } => outage.as_secs_f64(),
            _ => f64::NAN,
        })
        .fold(0.0f64, f64::max);

    // Manual: same cut, auto-restore off, 8 h repair crew.
    let (net, ids2) = PhotonicNetwork::testbed(4);
    let mut manual = Controller::new(
        net,
        ControllerConfig {
            auto_restore: false,
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        },
    );
    let csp2 = manual.tenants.register("acme", DataRate::from_gbps(100));
    let mid = manual
        .request_wavelength(csp2, ids2.i, ids2.iv, LineRate::Gbps10)
        .unwrap();
    manual.run_until_idle();
    manual.inject_fiber_cut(ids2.f_i_iv, 0);
    manual.schedule_repair(ids2.f_i_iv, SimDuration::from_hours(8));
    manual.run_until_idle();
    let manual_outage = manual.connection(mid).unwrap().outage_total.as_secs_f64();

    format!(
        "E2 — restoration after a fiber cut (3 impacted circuits)\n{}",
        table::render(
            &["mechanism", "paper claim", "measured outage"],
            &[
                vec![
                    "1+1 protection".into(),
                    "milliseconds".into(),
                    format!("{aps_outage:.3} s (measured APS switchover)"),
                ],
                vec![
                    "OTN shared-mesh".into(),
                    "sub-second".into(),
                    format!("{mesh_worst:.3} s worst of 3"),
                ],
                vec![
                    "GRIPhoN λ restoration".into(),
                    "a few minutes".into(),
                    format!(
                        "{:.1} / {:.1} / {:.1} s (serialized)",
                        outages[0], outages[1], outages[2]
                    ),
                ],
                vec![
                    "manual repair (today)".into(),
                    "4–12 hours".into(),
                    format!("{:.1} h", manual_outage / 3600.0),
                ],
            ]
        )
    )
}

/// **E2b** — ablation on §4's control-plane serialization: worst-circuit
/// outage after one cut hitting six circuits, vs the EMS plane's
/// restoration parallelism.
pub fn e2b_parallelism() -> String {
    let mut rows = Vec::new();
    for parallelism in [1usize, 2, 3, 6] {
        let (net, ids) = PhotonicNetwork::testbed(16);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                restoration_parallelism: parallelism,
                ems: EmsProfile::calibrated_deterministic(),
                equalization: EqualizationModel::calibrated_deterministic(),
                ..ControllerConfig::default()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let conns: Vec<_> = (0..6)
            .map(|_| {
                ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                    .unwrap()
            })
            .collect();
        ctl.run_until_idle();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.run_until_idle();
        let outages: Vec<f64> = conns
            .iter()
            .map(|c| ctl.connection(*c).unwrap().outage_total.as_secs_f64())
            .collect();
        let worst = outages.iter().fold(0.0f64, |a, b| a.max(*b));
        let mean = outages.iter().sum::<f64>() / outages.len() as f64;
        rows.push(vec![
            parallelism.to_string(),
            format!("{mean:.1} s"),
            format!("{worst:.1} s"),
        ]);
    }
    format!(
        "E2b — restoration outage vs EMS workflow parallelism (6 circuits, one cut)\n{}",
        table::render(
            &["parallel workflows", "mean outage", "worst outage"],
            &rows
        )
    )
}

/// **E3** — maintenance impact: bridge-and-roll vs cold reroute.
pub fn e3_maintenance() -> String {
    let (mut ctl, ids) = quiet_testbed(8);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let a = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    let b = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    // Connection a: bridge-and-roll off the direct fiber.
    ctl.bridge_and_roll(a, &[ids.f_i_iv]).unwrap();
    ctl.run_until_idle();
    let roll_hit = ctl
        .metrics
        .get_histogram("maintenance.hit_ms")
        .unwrap()
        .mean();
    // Connection b: cold reroute.
    ctl.cold_reroute(b, &[ids.f_i_iv]).unwrap();
    ctl.run_until_idle();
    let cold_hit = ctl.connection(b).unwrap().outage_total.as_secs_f64();
    let ratio = cold_hit * 1000.0 / roll_hit;
    format!(
        "E3 — planned-maintenance service hit\n{}",
        table::render(
            &["method", "measured hit", "note"],
            &[
                vec![
                    "bridge-and-roll".into(),
                    format!("{roll_hit:.0} ms"),
                    "\"almost hitless\" (§2.2)".into(),
                ],
                vec![
                    "cold reroute".into(),
                    format!("{cold_hit:.1} s"),
                    format!("{ratio:.0}× worse"),
                ],
            ]
        )
    )
}

/// **E4** — §2.2 composite BoD: 12 G = 1×10G λ + 2×1G OTN.
pub fn e4_composite() -> String {
    let (mut ctl, ids) = quiet_testbed(8);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let d = Decomposition::plan(DataRate::from_gbps(12), 4);
    let t0 = ctl.now();
    let bundle = ctl
        .request_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(12))
        .unwrap();
    // When did the OTN members activate vs the wavelength?
    let mut otn_up = SimTime::ZERO;
    let mut wl_up = SimTime::ZERO;
    while ctl.step().is_some() {
        let now = ctl.now();
        for m in &bundle.members {
            let c = ctl.connection(*m).unwrap();
            if c.state == ConnState::Active {
                match c.kind {
                    griphon::ConnectionKind::SubWavelength { .. } => {
                        if otn_up == SimTime::ZERO {
                            otn_up = now;
                        }
                    }
                    griphon::ConnectionKind::Wavelength { .. }
                    | griphon::ConnectionKind::ProtectedWavelength { .. } => {
                        if wl_up == SimTime::ZERO {
                            wl_up = now;
                        }
                    }
                }
            }
        }
    }
    let total = ctl.bundle_active_rate(&bundle);
    format!(
        "E4 — composite BoD (paper's 12 G example)\n{}",
        table::render(
            &["quantity", "value"],
            &[
                vec![
                    "decomposition".into(),
                    format!("{}×10G λ + {}×1G OTN", d.wavelengths_10g, d.otn_1g),
                ],
                vec!["wavelengths avoided".into(), "1 (vs 2×10G λ)".into()],
                vec![
                    "OTN members active after".into(),
                    format!("{:.2} s", otn_up.since(t0).as_secs_f64()),
                ],
                vec![
                    "λ member active after".into(),
                    format!("{:.2} s", wl_up.since(t0).as_secs_f64()),
                ],
                vec!["delivered".into(), format!("{total}")],
            ]
        )
    )
}

/// **E5** — bulk replication: BoD vs static line vs store-and-forward.
pub fn e5_bulk() -> String {
    use cloud::scheduler::{BodPolicy, StaticLinePolicy, StoreForwardPolicy};
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};
    use cloud::CostModel;

    let horizon = SimDuration::from_hours(24 * 7);
    let tick = SimDuration::from_secs(60);
    let hours = horizon.as_secs_f64() / 3600.0;
    let cfg = WorkloadConfig {
        bulk_interarrival: SimDuration::from_hours(6),
        bulk_max: DataSize::from_terabytes(60),
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 2026);
    let jobs = gen.bulk_jobs(
        cloud::DataCenterId::new(0),
        cloud::DataCenterId::new(1),
        horizon,
    );
    let n_jobs = jobs.len();
    let gen_ref = WorkloadGenerator::new(WorkloadConfig::default(), 0);
    // Sampling the diurnal closure on the tick grid (out past the last
    // relay phase shift) reproduces exactly what the tick engine saw, so
    // E5's numbers are unchanged by the event-driven engine.
    let interactive = cloud::RateProfile::sampled(
        |t| gen_ref.interactive_rate(t),
        SimTime::ZERO + horizon + SimDuration::from_hours(17),
        tick,
    );

    let static_small = StaticLinePolicy {
        line: DataRate::from_gbps(10),
    }
    .run(jobs.clone(), horizon, tick, &interactive);
    let static_big = StaticLinePolicy {
        line: DataRate::from_gbps(40),
    }
    .run(jobs.clone(), horizon, tick, &interactive);
    let snf = StoreForwardPolicy {
        line: DataRate::from_gbps(10),
        relays: 2,
        relay_phase_hours: 8.0,
    }
    .run(jobs.clone(), horizon, tick, &interactive);

    let (mut ctl, ids) = quiet_testbed(10);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
    let bod = BodPolicy {
        max_rate: DataRate::from_gbps(40),
        drain_target: SimDuration::from_hours(1),
        idle_release: SimDuration::from_mins(10),
    }
    .run(&mut ctl, csp, ids.i, ids.iv, jobs.clone(), horizon, tick);
    let (mut ctl2, ids2) = quiet_testbed(10);
    let csp2 = ctl2.tenants.register("acme", DataRate::from_gbps(400));
    let bod_dl = cloud::DeadlineBodPolicy::default()
        .run(&mut ctl2, csp2, ids2.i, ids2.iv, jobs, horizon, tick);

    let cost = CostModel::default();
    let row = |name: &str, o: &cloud::PolicyOutcome, is_bod: bool| {
        vec![
            name.to_string(),
            format!("{}/{}", o.log.completed, n_jobs),
            format!("{:.2} h", o.log.mean_completion_secs / 3600.0),
            format!("{:.2} h", o.log.p95_completion_secs / 3600.0),
            format!("{:.0}%", o.log.deadline_hit_rate * 100.0),
            format!("{:.0}", cost.outcome_cost(o, hours, is_bod)),
        ]
    };
    format!(
        "E5 — one week of bulk replication between two DCs ({n_jobs} jobs)\n{}",
        table::render(
            &[
                "policy",
                "done",
                "mean compl",
                "p95 compl",
                "deadlines",
                "cost"
            ],
            &[
                row("static 10G line", &static_small, false),
                row("static 40G line", &static_big, false),
                row("store-and-forward", &snf, false),
                row("GRIPhoN BoD (≤40G)", &bod, true),
                row("GRIPhoN BoD deadline-aware", &bod_dl, true),
            ]
        )
    )
}

/// **E5b** — the Forrester pattern: full-mesh replication among three
/// data centers, all pairs contending inside one carrier.
pub fn e5b_full_mesh() -> String {
    use cloud::scheduler::{BodPolicy, MultiPairBod};
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};

    let horizon = SimDuration::from_hours(48);
    let tick = SimDuration::from_secs(60);
    let cfg = WorkloadConfig {
        bulk_interarrival: SimDuration::from_hours(8),
        bulk_max: DataSize::from_terabytes(40),
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 404);
    let d = |i| cloud::DataCenterId::new(i);
    let (mut ctl, ids) = quiet_testbed(10);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
    let pair_nodes = [(ids.i, ids.iv), (ids.i, ids.iii), (ids.iii, ids.iv)];
    let pair_names = ["I↔IV", "I↔III", "III↔IV"];
    let pairs: Vec<_> = pair_nodes
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            (
                *a,
                *b,
                gen.bulk_jobs(d(i as u32), d(i as u32 + 10), horizon),
            )
        })
        .collect();
    let job_counts: Vec<usize> = pairs.iter().map(|(_, _, j)| j.len()).collect();
    let outcomes = MultiPairBod {
        policy: BodPolicy {
            max_rate: DataRate::from_gbps(30),
            drain_target: SimDuration::from_hours(1),
            idle_release: SimDuration::from_mins(10),
        },
    }
    .run(&mut ctl, csp, pairs, horizon, tick);
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            vec![
                pair_names[i].to_string(),
                format!("{}/{}", o.log.completed, job_counts[i]),
                format!("{:.2} h", o.log.mean_completion_secs / 3600.0),
                format!("{:.0} Gbps·h", o.gbps_hours),
                format!("{} Gbps", o.peak_gbps),
                o.setups.to_string(),
            ]
        })
        .collect();
    format!(
        "E5b — 48 h full-mesh replication, three DCs, one shared carrier\n{}",
        table::render(
            &["pair", "done", "mean compl", "held", "peak", "setups"],
            &rows
        )
    )
}

/// **Fig. 6** — the paper's §4 economics, two DCs: what a week of bulk
/// replication costs under each provisioning option. Every row comes
/// from the event-driven drivers; `tests/event_engine.rs` rebuilds each
/// one against the fixed-tick oracles, which is what the footer cites.
pub fn fig6() -> String {
    use cloud::scheduler::{BodPolicy, StaticLinePolicy, StoreForwardPolicy};
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};
    use cloud::CostModel;

    let horizon = SimDuration::from_hours(24 * 7);
    let tick = SimDuration::from_secs(60);
    let hours = horizon.as_secs_f64() / 3600.0;
    let cfg = WorkloadConfig {
        bulk_interarrival: SimDuration::from_hours(4),
        bulk_max: DataSize::from_terabytes(50),
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 611);
    let jobs = gen.bulk_jobs(
        cloud::DataCenterId::new(0),
        cloud::DataCenterId::new(1),
        horizon,
    );
    let n_jobs = jobs.len();
    let gen_ref = WorkloadGenerator::new(WorkloadConfig::default(), 0);
    let interactive = cloud::RateProfile::sampled(
        |t| gen_ref.interactive_rate(t),
        SimTime::ZERO + horizon + SimDuration::from_hours(17),
        tick,
    );

    let static_line = StaticLinePolicy {
        line: DataRate::from_gbps(40),
    };
    let snf = StoreForwardPolicy {
        line: DataRate::from_gbps(10),
        relays: 2,
        relay_phase_hours: 8.0,
    };
    let bod = BodPolicy {
        max_rate: DataRate::from_gbps(40),
        drain_target: SimDuration::from_hours(1),
        idle_release: SimDuration::from_mins(10),
    };

    let o_static = static_line.run(jobs.clone(), horizon, tick, &interactive);
    let o_snf = snf.run(jobs.clone(), horizon, tick, &interactive);
    let (mut ctl, ids) = quiet_testbed(10);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
    let o_bod = bod.run(&mut ctl, csp, ids.i, ids.iv, jobs, horizon, tick);

    let cost = CostModel::default();
    let row = |name: &str, o: &cloud::PolicyOutcome, is_bod: bool| {
        vec![
            name.to_string(),
            format!("{}/{}", o.log.completed, n_jobs),
            format!("{:.2} h", o.log.mean_completion_secs / 3600.0),
            format!("{:.2} h", o.log.p95_completion_secs / 3600.0),
            format!("{:.0} Gbps·h", o.gbps_hours),
            format!("{:.0}", cost.outcome_cost(o, hours, is_bod)),
        ]
    };
    format!(
        "Fig. 6 — provisioning economics, one week of replication between two DCs \
         ({n_jobs} jobs)\n{}\n(all rows verified byte-identical against the tick oracle)",
        table::render(
            &["policy", "done", "mean compl", "p95 compl", "held", "cost"],
            &[
                row("static 40G line", &o_static, false),
                row("store-and-forward", &o_snf, false),
                row("GRIPhoN BoD (≤40G)", &o_bod, true),
            ]
        )
    )
}

/// **Fig. 7** — the paper's §4 cost-vs-load curve: sweep the offered
/// bulk load (mean interarrival 12 h down to 45 min) and report each
/// policy's weekly cost. Each (load, policy-set) cell is an independent
/// simulation — own workload, own controller — so the sweep fans out
/// across OS threads via [`parallel_cells`]; `tests/event_engine.rs`
/// rebuilds every cell against the fixed-tick oracles.
pub fn fig7() -> String {
    use cloud::scheduler::{BodPolicy, StaticLinePolicy, StoreForwardPolicy};
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};
    use cloud::CostModel;

    let horizon = SimDuration::from_hours(24 * 7);
    let tick = SimDuration::from_secs(60);
    let hours = horizon.as_secs_f64() / 3600.0;
    let gen_ref = WorkloadGenerator::new(WorkloadConfig::default(), 0);
    let interactive = cloud::RateProfile::sampled(
        |t| gen_ref.interactive_rate(t),
        SimTime::ZERO + horizon + SimDuration::from_hours(17),
        tick,
    );
    let interactive = &interactive;

    let loads_mins: Vec<u64> = vec![720, 360, 180, 90, 45];
    let rows = parallel_cells(loads_mins, |mins| {
        let cfg = WorkloadConfig {
            bulk_interarrival: SimDuration::from_mins(mins),
            bulk_max: DataSize::from_terabytes(40),
            ..WorkloadConfig::default()
        };
        let mut gen = WorkloadGenerator::new(cfg, 700 + mins);
        let jobs = gen.bulk_jobs(
            cloud::DataCenterId::new(0),
            cloud::DataCenterId::new(1),
            horizon,
        );
        let n_jobs = jobs.len();

        let static_line = StaticLinePolicy {
            line: DataRate::from_gbps(40),
        };
        let snf = StoreForwardPolicy {
            line: DataRate::from_gbps(10),
            relays: 2,
            relay_phase_hours: 8.0,
        };
        let bod = BodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_hours(1),
            idle_release: SimDuration::from_mins(10),
        };

        let o_static = static_line.run(jobs.clone(), horizon, tick, interactive);
        let o_snf = snf.run(jobs.clone(), horizon, tick, interactive);
        let (mut ctl, ids) = quiet_testbed(10);
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        let o_bod = bod.run(&mut ctl, csp, ids.i, ids.iv, jobs, horizon, tick);

        let cost = CostModel::default();
        vec![
            if mins % 60 == 0 {
                format!("{} h", mins / 60)
            } else {
                format!("{mins} min")
            },
            n_jobs.to_string(),
            format!("{:.0}", cost.outcome_cost(&o_static, hours, false)),
            format!("{:.0}", cost.outcome_cost(&o_snf, hours, false)),
            format!("{:.0}", cost.outcome_cost(&o_bod, hours, true)),
            format!("{}/{}", o_bod.log.completed, n_jobs),
        ]
    });
    format!(
        "Fig. 7 — weekly cost vs offered bulk load (mean interarrival; 40 TB max job)\n{}\n\
         (every cell verified byte-identical against the tick oracle)",
        table::render(
            &[
                "interarrival",
                "jobs",
                "static 40G",
                "store-fwd",
                "BoD",
                "BoD done"
            ],
            &rows
        )
    )
}

/// **E6** — grooming efficiency: OTN switching vs muxponder-only.
pub fn e6_grooming() -> String {
    let net = PhotonicNetwork::nsfnet(0, LineRate::Gbps10, 0);
    let mut rng = SimRng::new(77);
    let nodes: Vec<photonic::RoadmId> = net.roadm_ids().collect();
    let mut rows = Vec::new();
    for n_demands in [20usize, 50, 100, 200] {
        let demands: Vec<Demand> = (0..n_demands)
            .map(|i| {
                let a = *rng.choose(&nodes);
                let mut b = *rng.choose(&nodes);
                while b == a {
                    b = *rng.choose(&nodes);
                }
                let odu = match rng.below(4) {
                    0 | 1 => OduRate::Odu0,
                    2 => OduRate::Odu1,
                    _ => OduRate::Odu2,
                };
                Demand {
                    id: i as u32,
                    from: a,
                    to: b,
                    odu,
                }
            })
            .collect();
        let groomer = OtnGroomer {
            line_rate: LineRate::Gbps40,
        };
        let otn = groomer.pack(&net, &demands);
        let mxp = MuxponderPacker {
            line_rate: LineRate::Gbps40,
        }
        .pack(&net, &demands);
        rows.push(vec![
            n_demands.to_string(),
            otn.wavelength_links.to_string(),
            mxp.wavelength_links.to_string(),
            format!(
                "{:.0}%",
                (1.0 - otn.wavelength_links as f64 / mxp.wavelength_links as f64) * 100.0
            ),
            format!(
                "{:.0}%",
                otn.fill_ratio(groomer.ts_per_wavelength()) * 100.0
            ),
            format!(
                "{:.0}%",
                mxp.fill_ratio(groomer.ts_per_wavelength()) * 100.0
            ),
        ]);
    }
    format!(
        "E6 — wavelength·links needed on NSFNET (40G lines, mixed ODU0/1/2 demands)\n{}",
        table::render(
            &[
                "demands",
                "OTN λ·links",
                "MXP λ·links",
                "saved",
                "OTN fill",
                "MXP fill"
            ],
            &rows
        )
    )
}

/// **E7** — ablation: where Table 2's shape comes from, and what a
/// faster control plane would do (§4's "no fundamental limitations").
pub fn e7_ablation() -> String {
    // A 7-node chain lets us sweep 1–6 hops.
    fn chain_controller(cfg: ControllerConfig) -> (Controller, Vec<photonic::RoadmId>) {
        let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
        let nodes: Vec<photonic::RoadmId> =
            (0..7).map(|i| net.add_roadm(format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            net.link(w[0], w[1], 80.0).unwrap();
        }
        for n in &nodes {
            net.add_transponders(*n, LineRate::Gbps10, 2).unwrap();
        }
        (Controller::new(net, cfg), nodes)
    }
    let variants: [(&str, ControllerConfig); 3] = [
        (
            "calibrated (per-hop equalization)",
            ControllerConfig {
                ems: EmsProfile::calibrated_deterministic(),
                equalization: EqualizationModel::calibrated_deterministic(),
                ..ControllerConfig::default()
            },
        ),
        (
            "joint equalization (2 iters)",
            ControllerConfig {
                ems: EmsProfile::calibrated_deterministic(),
                equalization: EqualizationModel {
                    policy: IterationPolicy::Fixed(2),
                    ..EqualizationModel::calibrated_deterministic()
                },
                ..ControllerConfig::default()
            },
        ),
        (
            "optimized EMS (20x) + joint eq",
            ControllerConfig {
                ems: EmsProfile {
                    jitter_rel_sigma: 0.0,
                    ..EmsProfile::optimized()
                },
                equalization: EqualizationModel {
                    policy: IterationPolicy::Fixed(2),
                    ..EqualizationModel::calibrated_deterministic()
                },
                ..ControllerConfig::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let mut cells = vec![name.to_string()];
        for hops in 1..=6usize {
            let (mut ctl, nodes) = chain_controller(cfg.clone());
            let csp = ctl.tenants.register("lab", DataRate::from_gbps(100));
            let id = ctl
                .request_wavelength(csp, nodes[0], nodes[hops], LineRate::Gbps10)
                .unwrap();
            ctl.run_until_idle();
            let conn = ctl.connection(id).unwrap();
            assert_eq!(conn.wavelength_plan().unwrap().hops(), hops);
            cells.push(format!(
                "{:.1}",
                conn.activated_at
                    .unwrap()
                    .since(conn.requested_at)
                    .as_secs_f64()
            ));
        }
        rows.push(cells);
    }
    format!(
        "E7 — setup seconds vs hops under control-plane ablations\n{}",
        table::render(&["variant", "1", "2", "3", "4", "5", "6"], &rows)
    )
}

/// **E8** — the economics of 1+1 protection vs GRIPhoN restoration:
/// measured resource footprint and measured outage, same plant, same
/// failure.
pub fn e8_protection() -> String {
    let run = |protected: bool| -> (usize, usize, f64) {
        let (mut ctl, ids) = quiet_testbed(12);
        let csp = ctl.tenants.register("bank", DataRate::from_gbps(100));
        let mut conns = Vec::new();
        for _ in 0..2 {
            let id = if protected {
                ctl.request_protected_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                    .unwrap()
            } else {
                ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                    .unwrap()
            };
            conns.push(id);
        }
        ctl.run_until_idle();
        // Footprint.
        let mut wl_links = 0usize;
        let mut ots = 0usize;
        for id in &conns {
            if protected {
                let (l, o) = ctl.protection_footprint(*id).unwrap();
                wl_links += l;
                ots += o;
            } else {
                wl_links += ctl
                    .connection(*id)
                    .unwrap()
                    .wavelength_plan()
                    .unwrap()
                    .hops();
                ots += 2;
            }
        }
        // Failure: cut the direct fiber both circuits prefer.
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.run_until_idle();
        let worst_outage = conns
            .iter()
            .map(|c| ctl.connection(*c).unwrap().outage_total.as_secs_f64())
            .fold(0.0f64, f64::max);
        (wl_links, ots, worst_outage)
    };
    let (p_links, p_ots, p_outage) = run(true);
    let (u_links, u_ots, u_outage) = run(false);
    format!(
        "E8 — 1+1 protection vs GRIPhoN restoration (2 circuits, same cut)\n{}",
        table::render(
            &[
                "service",
                "wavelength-links",
                "transponders",
                "worst outage"
            ],
            &[
                vec![
                    "1+1 protected".into(),
                    p_links.to_string(),
                    p_ots.to_string(),
                    format!("{p_outage:.3} s"),
                ],
                vec![
                    "unprotected + restoration".into(),
                    u_links.to_string(),
                    u_ots.to_string(),
                    format!("{u_outage:.1} s"),
                ],
                vec![
                    "ratio (cost premium / outage premium)".into(),
                    format!("{:.1}x", p_links as f64 / u_links as f64),
                    format!("{:.1}x", p_ots as f64 / u_ots as f64),
                    format!("{:.0}x slower", u_outage / p_outage),
                ],
            ]
        )
    )
}

/// **E9** — resource-planning validation: Erlang-B's predicted blocking
/// vs blocking measured by driving the controller with Poisson arrivals.
pub fn e9_planning() -> String {
    use griphon::planning::erlang_b;
    let mut rows = Vec::new();
    for (n_ots, offered) in [(4usize, 2.0f64), (6, 4.0), (8, 6.0)] {
        let measured = measure_blocking(n_ots, offered, 1200, 99);
        let predicted = erlang_b(offered, n_ots);
        rows.push(vec![
            n_ots.to_string(),
            format!("{offered:.1}"),
            format!("{predicted:.3}"),
            format!("{measured:.3}"),
            format!("{:+.3}", measured - predicted),
        ]);
    }
    format!(
        "E9 — transponder-pool blocking: Erlang-B prediction vs simulation\n{}",
        table::render(
            &[
                "OTs/node",
                "offered erlangs",
                "Erlang-B",
                "simulated",
                "delta"
            ],
            &rows
        )
    )
}

/// Drive a two-node plant with Poisson wavelength requests and
/// exponential holding times; return the measured blocking fraction.
pub fn measure_blocking(n_ots: usize, offered_erlangs: f64, arrivals: usize, seed: u64) -> f64 {
    let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
    let a = net.add_roadm("a");
    let b = net.add_roadm("b");
    net.link(a, b, 80.0).unwrap();
    net.add_transponders(a, LineRate::Gbps10, n_ots).unwrap();
    net.add_transponders(b, LineRate::Gbps10, n_ots).unwrap();
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        },
    );
    let csp = ctl.tenants.register("pool", DataRate::from_gbps(100_000));
    let mut rng = SimRng::new(seed);
    // Holding time 2 h mean; arrival rate = offered / holding.
    let hold_mean = 7200.0;
    let gap_mean = hold_mean / offered_erlangs;
    let mut t = SimTime::ZERO;
    let mut departures: Vec<(SimTime, griphon::ConnectionId)> = Vec::new();
    let mut blocked = 0usize;
    for _ in 0..arrivals {
        t += SimDuration::from_secs_f64(rng.exp(gap_mean));
        // Release departures due before this arrival.
        departures.sort_by_key(|(dt, _)| *dt);
        while let Some((dt, id)) = departures.first().copied() {
            if dt <= t {
                ctl.run_until(dt);
                let _ = ctl.request_teardown(id);
                departures.remove(0);
            } else {
                break;
            }
        }
        ctl.run_until(t);
        match ctl.request_wavelength(csp, a, b, LineRate::Gbps10) {
            Ok(id) => {
                let hold = SimDuration::from_secs_f64(rng.exp(hold_mean));
                departures.push((t + hold, id));
            }
            Err(_) => blocked += 1,
        }
    }
    blocked as f64 / arrivals as f64
}

/// **E10** — a month of operations: availability under random fiber
/// cuts, GRIPhoN automation vs today's manual repair, reported as the
/// SLA numbers a CSP contract would cite.
pub fn e10_sla() -> String {
    let month = SimTime::from_secs(30 * 86_400);
    let run = |auto: bool, seed: u64| -> (f64, f64) {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                auto_restore: auto,
                seed,
                ems: EmsProfile::calibrated_deterministic(),
                equalization: EqualizationModel::calibrated_deterministic(),
                ..ControllerConfig::default()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        for _ in 0..2 {
            ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap();
        }
        ctl.run_until_idle();
        // Four random cuts over the month (MTBF ≈ a week on this plant —
        // pessimistic, to make the availability math visible), repaired
        // in 6–10 h.
        let mut rng = SimRng::new(seed);
        let fibers = [ids.f_i_iv, ids.f_i_iii, ids.f_iii_iv, ids.f_i_iv];
        for (i, f) in fibers.into_iter().enumerate() {
            let at = SimTime::from_secs((i as u64 + 1) * 6 * 86_400 + rng.below(40_000));
            ctl.run_until(at);
            ctl.inject_fiber_cut(f, 0);
            ctl.schedule_repair(f, SimDuration::from_secs(6 * 3600 + rng.below(4 * 3600)));
            // Let each incident fully play out before the next.
            ctl.run_until_idle();
        }
        ctl.run_until(month);
        let sla = ctl.sla_report(csp);
        (sla.aggregate, sla.worst)
    };
    let (g_agg, g_worst) = run(true, 5);
    let (m_agg, m_worst) = run(false, 5);
    format!(
        "E10 — one month, four fiber cuts: availability (SLA view)\n{}",
        table::render(
            &[
                "control plane",
                "aggregate availability",
                "worst circuit",
                "nines"
            ],
            &[
                vec![
                    "GRIPhoN (auto restore + revert)".into(),
                    format!("{g_agg:.6}"),
                    format!("{g_worst:.6}"),
                    griphon::nines(g_agg),
                ],
                vec![
                    "today (manual repair)".into(),
                    format!("{m_agg:.6}"),
                    format!("{m_worst:.6}"),
                    griphon::nines(m_agg),
                ],
            ]
        )
    )
}

/// **Table 1** — the vision/today/GRIPhoN comparison, quantified.
pub fn table1() -> String {
    // Row 1: configurable rate range.
    let sonet = SonetNetwork::today();
    // Row 2: setup — today, weeks (manual order). GRIPhoN measured.
    let (setup_1hop, _) = measure_setup(1, 5, 7);
    // Row 3: outage — reuse E2 building blocks, single connection.
    let (mut ctl, ids) = quiet_testbed(4);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let id = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.run_until_idle();
    let griphon_outage = ctl.connection(id).unwrap().outage_total.as_secs_f64();
    // Row 4: maintenance — bridge-and-roll hit (measured) vs cold move.
    // Repair the cut first so a disjoint bridge path exists again.
    ctl.schedule_repair(ids.f_i_iv, SimDuration::from_mins(30));
    ctl.run_until_idle();
    ctl.bridge_and_roll(id, &[]).unwrap();
    ctl.run_until_idle();
    let hit_ms = ctl
        .metrics
        .get_histogram("maintenance.hit_ms")
        .unwrap()
        .mean();
    format!(
        "Table 1 — BoD service vision vs today's reality vs GRIPhoN (quantified)\n{}",
        table::render(
            &["vision", "today's reality", "GRIPhoN (measured here)"],
            &[
                vec![
                    "dynamic configurable rate".into(),
                    format!("BoD <= {} (SONET layer)", sonet.bod_ceiling),
                    "1G OTN ... 40G lambda, composite bundles".into(),
                ],
                vec![
                    "rapid connection setup".into(),
                    "weeks (manual provisioning)".into(),
                    format!("{setup_1hop:.1} s (1 hop), sub-wavelength ~1.3 s"),
                ],
                vec![
                    "reduced outage time".into(),
                    "4-12 h manual (or costly 1+1)".into(),
                    format!("{griphon_outage:.1} s automated restoration"),
                ],
                vec![
                    "minimal maintenance impact".into(),
                    "non-negligible (manual moves)".into(),
                    format!("{hit_ms:.0} ms bridge-and-roll hit"),
                ],
            ]
        )
    )
}

/// **Fig. 1 / Fig. 2** — the service & layer models, validated.
pub fn fig_layers(future: bool) -> String {
    let stack = if future {
        LayerStack::future()
    } else {
        LayerStack::current()
    };
    stack.validate().expect("figure must be self-consistent");
    let mut out = stack.render();
    out.push_str(&format!(
        "guaranteed-BW mapping: 0.5G→{}  2G→{}  10G→{}\n",
        stack.layer_for_service(DataRate::from_mbps(500)),
        stack.layer_for_service(DataRate::from_gbps(2)),
        stack.layer_for_service(DataRate::from_gbps(10)),
    ));
    out
}

/// **Fig. 3** — the BoD architecture, exercised end-to-end: one
/// wavelength connection and one groomed sub-wavelength connection
/// through FXC steering.
pub fn fig3() -> String {
    let (mut ctl, ids) = quiet_testbed(6);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    let csp = ctl
        .tenants
        .register("dc-operator", DataRate::from_gbps(100));
    let wl = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    let sub = ctl
        .request_subwavelength(csp, ids.i, ids.iv, otn::ClientSignal::GbE)
        .unwrap();
    ctl.run_until_idle();
    assert_eq!(ctl.connection(wl).unwrap().state, ConnState::Active);
    assert_eq!(ctl.connection(sub).unwrap().state, ConnState::Active);
    let mut out = String::from(
        "Fig. 3 — GRIPhoN BoD architecture walk-through\n\
         DC premises - access pipe - FXC -+- OT - ROADM mesh    (wavelength service)\n\
                                          +- OTN switch - trunk (sub-wavelength service)\n\n",
    );
    out.push_str(&ctl.customer_view(csp));
    out.push_str("\ncontroller trace (excerpt):\n");
    for e in ctl
        .trace
        .events()
        .filter(|e| e.category == "conn" || e.category == "otn")
    {
        out.push_str(&format!("  {e}\n"));
    }
    if let Some(w) = ctl.trace.drop_warning() {
        out.push_str(&w);
        out.push('\n');
    }
    out
}

/// **Fig. 4** — the testbed topology, rendered and checked.
pub fn fig4() -> String {
    let (net, ids) = PhotonicNetwork::testbed(4);
    assert_eq!(net.roadm(ids.i).degree_count(), 3);
    assert_eq!(net.roadm(ids.iii).degree_count(), 3);
    assert_eq!(net.roadm(ids.ii).degree_count(), 2);
    assert_eq!(net.roadm(ids.iv).degree_count(), 2);
    format!(
        "Fig. 4 — GRIPhoN testbed (two 3-degree + two 2-degree ROADMs)\n{}",
        net.render_ascii()
    )
}

/// Planning-latency profile: drive a wavelength churn workload plus a
/// restoration event on NSFNET and report the controller's wall-clock
/// `plan_wavelength` percentiles and route-cache effectiveness. Unlike
/// every other experiment these numbers are host-machine wall time, not
/// simulated time, so they vary run to run.
pub fn perf() -> String {
    let net = PhotonicNetwork::nsfnet(8, LineRate::Gbps10, 2);
    let ids: Vec<_> = net.roadm_ids().collect();
    let fiber = net.fiber_ids().next().unwrap();
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        },
    );
    // Planning percentiles come out of the span pipeline: every
    // `rwa.plan` span carries its wall-clock cost as a `host_ns` attr
    // (host attrs are an explicit opt-in because they are
    // non-deterministic — deterministic trace artifacts never see them).
    ctl.spans.set_enabled(true);
    ctl.spans.set_host_attrs(true);
    let csp = ctl.tenants.register("perf", DataRate::from_gbps(100_000));
    let mut conns = Vec::new();
    for _round in 0..4 {
        for i in 0..ids.len() {
            let (a, b) = (ids[i], ids[(i + 2) % ids.len()]);
            if let Ok(id) = ctl.request_wavelength(csp, a, b, LineRate::Gbps10) {
                conns.push(id);
            }
        }
        ctl.run_until_idle();
        // Tear down every other circuit so later rounds replan.
        let mut keep = Vec::new();
        for (n, id) in conns.drain(..).enumerate() {
            if n % 2 == 0 {
                let _ = ctl.request_teardown(id);
            } else {
                keep.push(id);
            }
        }
        conns = keep;
        ctl.run_until_idle();
    }
    // A cut forces restoration replans with fiber exclusions.
    ctl.inject_fiber_cut(fiber, 0);
    ctl.run_until_idle();
    // The span pipeline must reproduce the ad-hoc recorder exactly —
    // same samples, same nearest-rank percentiles.
    let via_spans = simcore::span::latency_from_attr(ctl.spans.spans(), "rwa.plan", "host_ns");
    assert_eq!(
        via_spans.summary(),
        ctl.perf.summary(),
        "span-derived planning percentiles diverged from the LatencyRecorder"
    );
    let mut out = format!(
        "PERF — control-plane planning latency (host wall time)\n{}\n\
         (percentiles computed from {} rwa.plan spans; matches the inline recorder)",
        ctl.perf_summary(),
        via_spans.count(),
    );
    if let Some(w) = ctl.spans.drop_warning() {
        out.push('\n');
        out.push_str(&w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        // The same (seed, route) cells evaluated one by one.
        let sequential: Vec<f64> = (0..4).map(|i| setup_cell(2, 42 + i)).collect();
        let parallel = parallel_cells((0..4).map(|i| 42 + i).collect(), |s| setup_cell(2, s));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn table2_reproduces_paper_within_tolerance() {
        let out = table2();
        for (hops, paper) in [(1, 62.48), (2, 65.67), (3, 70.94)] {
            let (mean, _) = measure_setup(hops, 10, 42);
            assert!(
                (mean - paper).abs() / paper < 0.03,
                "{hops} hops: ours {mean:.2} vs paper {paper}"
            );
        }
        assert!(out.contains("62.48"));
    }

    #[test]
    fn e7_shapes_hold() {
        let out = e7_ablation();
        let lines: Vec<&str> = out.lines().collect();
        fn row_values(line: &str) -> Vec<f64> {
            line.split_whitespace()
                .filter_map(|w| w.parse::<f64>().ok())
                .collect()
        }
        let calibrated = lines
            .iter()
            .find(|l| l.contains("calibrated"))
            .expect("row exists");
        let v = row_values(calibrated);
        assert_eq!(v.len(), 6);
        // Increments grow (superlinear).
        assert!((v[5] - v[4]) > (v[1] - v[0]) + 1.0, "{v:?}");
        let fast = lines
            .iter()
            .find(|l| l.contains("optimized"))
            .expect("row exists");
        let f = row_values(fast);
        assert!(f[1] < 10.0, "fast control plane is seconds: {f:?}");
    }
}
