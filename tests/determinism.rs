//! Reproducibility: the entire stack is a deterministic function of the
//! seed. Two controllers with the same configuration and order stream
//! must agree event for event; changing the seed must change the jitter.

use griphon::controller::{Controller, ControllerConfig};
use griphon_bench::harness::{self, GateError};
use photonic::{LineRate, PhotonicNetwork};
use simcore::{DataRate, SimDuration};

fn run_scenario(seed: u64) -> (Vec<f64>, u64, String) {
    run_scenario_with_cache(seed, true)
}

fn run_scenario_with_cache(seed: u64, use_route_cache: bool) -> (Vec<f64>, u64, String) {
    run_scenario_opts(seed, use_route_cache, false)
}

fn run_scenario_opts(seed: u64, use_route_cache: bool, spans: bool) -> (Vec<f64>, u64, String) {
    run_scenario_full(seed, use_route_cache, spans, false, false)
}

fn run_scenario_full(
    seed: u64,
    use_route_cache: bool,
    spans: bool,
    noc: bool,
    wal: bool,
) -> (Vec<f64>, u64, String) {
    let (net, ids) = PhotonicNetwork::testbed(8);
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            seed,
            rwa: griphon::rwa::RwaConfig {
                use_route_cache,
                ..griphon::rwa::RwaConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    ctl.spans.set_enabled(spans);
    if noc {
        ctl.noc.enable(SimDuration::from_secs(30));
    }
    if wal {
        ctl.enable_journal(griphon::WalConfig::default());
    }
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let mut conns = Vec::new();
    for _ in 0..3 {
        conns.push(
            ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap(),
        );
    }
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.schedule_repair(ids.f_i_iv, SimDuration::from_hours(4));
    ctl.run_until_idle();
    let outages: Vec<f64> = conns
        .iter()
        .map(|c| ctl.connection(*c).unwrap().outage_total.as_secs_f64())
        .collect();
    (outages, ctl.events_processed(), ctl.trace.dump())
}

#[test]
fn same_seed_identical_run() {
    let (o1, e1, t1) = run_scenario(12345);
    let (o2, e2, t2) = run_scenario(12345);
    assert_eq!(o1, o2);
    assert_eq!(e1, e2);
    assert_eq!(t1, t2, "trace must match byte for byte");
}

/// The route cache is a pure memoisation layer: switching it off must
/// not change a single event, outage, or trace byte.
#[test]
fn route_cache_does_not_change_outcomes() {
    let (o_on, e_on, t_on) = run_scenario_with_cache(777, true);
    let (o_off, e_off, t_off) = run_scenario_with_cache(777, false);
    assert_eq!(o_on, o_off, "outages must not depend on the route cache");
    assert_eq!(
        e_on, e_off,
        "event count must not depend on the route cache"
    );
    assert_eq!(t_on, t_off, "trace must match byte for byte");
}

/// Span recording is pure observation: switching it on must not change a
/// single event, outage, or trace byte — and switching it off must leave
/// the recorder allocation-free (the cheap guard that instrumented
/// controllers pay nothing when tracing is disabled).
#[test]
fn span_recording_does_not_change_outcomes() {
    let (o_off, e_off, t_off) = run_scenario_opts(4242, true, false);
    let (o_on, e_on, t_on) = run_scenario_opts(4242, true, true);
    assert_eq!(o_on, o_off, "outages must not depend on span recording");
    assert_eq!(e_on, e_off, "event count must not depend on span recording");
    assert_eq!(t_on, t_off, "trace must match byte for byte");

    let (net, ids) = PhotonicNetwork::testbed(4);
    let mut ctl = Controller::new(net, ControllerConfig::default());
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let id = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    ctl.request_teardown(id).unwrap();
    ctl.run_until_idle();
    assert_eq!(
        ctl.spans.buffered_capacity(),
        0,
        "a disabled recorder must never allocate, even across full workflows"
    );
}

/// The NOC is pure observation: enabling the scrape + correlation engine
/// must not change a single event, outage, or trace byte (it runs on its
/// own scheduler and writes only to its own metric families) — while
/// still actually observing the run.
#[test]
fn noc_observation_does_not_change_outcomes() {
    let (o_off, e_off, t_off) = run_scenario_full(555, true, false, false, false);
    let (o_on, e_on, t_on) = run_scenario_full(555, true, false, true, false);
    assert_eq!(o_on, o_off, "outages must not depend on the NOC");
    assert_eq!(e_on, e_off, "event count must not depend on the NOC");
    assert_eq!(t_on, t_off, "trace must match byte for byte");
}

/// The write-ahead log is pure observation: journaling every northbound
/// intent must not change a single event, outage, or trace byte.
#[test]
fn wal_journaling_does_not_change_outcomes() {
    let (o_off, e_off, t_off) = run_scenario_full(606, true, false, false, false);
    let (o_on, e_on, t_on) = run_scenario_full(606, true, false, false, true);
    assert_eq!(o_on, o_off, "outages must not depend on the journal");
    assert_eq!(e_on, e_off, "event count must not depend on the journal");
    assert_eq!(t_on, t_off, "trace must match byte for byte");
}

/// Same contract at the scenario-runner level: the full replayed report
/// and the canonical state digest are byte-identical with the WAL on or
/// off, and the WAL-on run actually journaled the intent stream.
#[test]
fn scenario_report_is_identical_wal_on_or_off() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/testbed_outage.json"
    ))
    .expect("read scenario");
    let spec_off: griphon_bench::scenario::ScenarioSpec = serde_json::from_str(&json).unwrap();
    let mut spec_on = spec_off.clone();
    spec_on.wal = true;
    let (out_off, ctl_off) = griphon_bench::scenario::run_with(&spec_off).unwrap();
    let (out_on, ctl_on) = griphon_bench::scenario::run_with(&spec_on).unwrap();
    assert_eq!(out_on, out_off, "report must match byte for byte");
    assert_eq!(ctl_on.events_processed(), ctl_off.events_processed());
    assert_eq!(
        ctl_on.state_digest(),
        ctl_off.state_digest(),
        "state digest must match byte for byte"
    );
    assert!(ctl_off.journal().is_none(), "WAL-off run must not journal");
    let wal = ctl_on.journal().expect("WAL-on run journals");
    assert!(wal.records() > 0, "the intent stream must have been logged");
}

/// Same contract at the scenario-runner level: the full replayed report
/// (orders, restorations, SLA, carrier metrics) is byte-identical with
/// the NOC on or off, and the NOC-on run scraped and correlated.
#[test]
fn scenario_report_is_identical_noc_on_or_off() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/testbed_outage.json"
    ))
    .expect("read scenario");
    let spec_off: griphon_bench::scenario::ScenarioSpec = serde_json::from_str(&json).unwrap();
    let mut spec_on = spec_off.clone();
    spec_on.noc_scrape_secs = Some(60);
    let (out_off, ctl_off) = griphon_bench::scenario::run_with(&spec_off).unwrap();
    let (out_on, ctl_on) = griphon_bench::scenario::run_with(&spec_on).unwrap();
    assert_eq!(out_on, out_off, "report must match byte for byte");
    assert_eq!(ctl_on.events_processed(), ctl_off.events_processed());
    assert!(!ctl_off.noc.is_enabled() && ctl_off.noc.families().is_empty());
    assert!(ctl_on.noc.scrapes() > 0, "NOC-on run must have scraped");
    assert_eq!(ctl_on.noc.unattributed(), 0);
    assert!(ctl_on.noc.suppressed_total() > 0);
}

#[test]
fn different_seed_different_jitter() {
    let (o1, _, _) = run_scenario(1);
    let (o2, _, _) = run_scenario(2);
    assert_ne!(o1, o2, "jitter must depend on the seed");
    // But the shape is stable: every outage within the same minute-scale
    // band.
    for (a, b) in o1.iter().zip(&o2) {
        assert!((a - b).abs() < 20.0, "{a} vs {b}");
    }
}

#[test]
fn workload_generation_is_seed_stable() {
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};
    let jobs = |seed| {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), seed);
        g.full_mesh(
            &[
                (cloud::DataCenterId::new(0), cloud::DataCenterId::new(1)),
                (cloud::DataCenterId::new(1), cloud::DataCenterId::new(2)),
            ],
            SimDuration::from_hours(24 * 30),
        )
    };
    assert_eq!(jobs(9), jobs(9));
    assert_ne!(jobs(9), jobs(10));
}

/// The northbound service plane leaves zero residue in controller
/// state: replaying the admitted-intent stream of a full server run
/// (auth, token buckets, bounded queues, quota, priority drains, spans,
/// metrics) against a bare controller yields a byte-identical state
/// digest.
#[test]
fn api_server_is_observationally_passive() {
    use northbound::{
        build_testbed, generate_fleet, replay_admitted, ApiServer, FleetConfig, ServerConfig,
        TenantDirectory,
    };
    let cfg = FleetConfig {
        tenants: 5_000,
        seed: 0x0FF,
        ..FleetConfig::default()
    };
    let dir = TenantDirectory::new(cfg.tenants, cfg.seed);
    let requests = generate_fleet(&cfg, &dir);
    let mut server = ApiServer::new(
        build_testbed(14, cfg.pairs, cfg.seed),
        dir,
        ServerConfig::default(),
    );
    server.run(&requests, cfg.horizon);
    let outcome = server.finish();
    assert!(!outcome.admitted.is_empty(), "the run must admit intents");
    let off = replay_admitted(
        build_testbed(14, cfg.pairs, cfg.seed),
        &outcome.admitted,
        cfg.horizon,
    );
    assert_eq!(
        outcome.digest_crc, off,
        "the service plane left residue in controller state"
    );
}

/// `trace`, `noc` and `ha` pass the harness's identity gates on their
/// probe cells: the observer off and on (spans for `trace`, the NOC,
/// the WAL for `ha`) leaves every state digest alone, and 1, 2 and 8
/// workers give identical digests and cell texts. The other artifact
/// targets' gates run in the tests below.
#[test]
fn artifact_experiments_pass_identity_gates() {
    use griphon_bench::{ha_target, noc_target, trace_target};
    gate_passed(harness::identity(&trace_target::Trace));
    gate_passed(harness::identity(&noc_target::Noc));
    gate_passed(harness::identity(&ha_target::Ha));
}

/// Panic with the gate's message, or require at least one probe cell.
fn gate_passed(cells: Result<usize, GateError>) {
    assert!(cells.unwrap_or_else(|e| panic!("{e}")) > 0);
}

/// `scale`'s probe regions give identical digests and cell texts run
/// on one worker (unsharded) and sharded over 2 and 8.
#[test]
fn sharded_execution_matches_unsharded_digests() {
    gate_passed(harness::thread_identity(
        &griphon_bench::scale_target::Scale,
    ));
}

/// Fleet telemetry is pure observation: `slo`'s probe cells give the
/// same state digests with telemetry on and off.
#[test]
fn telemetry_is_observationally_passive() {
    gate_passed(harness::observer_identity(&griphon_bench::slo_target::Slo));
}

/// Tail sampling and the per-region rollup are pure functions of the
/// ingested spans: `slo`'s cell digests and exposition texts are
/// identical for 1, 2 and 8 workers.
#[test]
fn fleet_telemetry_is_thread_independent() {
    gate_passed(harness::thread_identity(&griphon_bench::slo_target::Slo));
}

/// The measurement plane is pure observation: `measure`'s probe cells
/// give the same state digests with probing on and off.
#[test]
fn measurement_is_observationally_passive() {
    gate_passed(harness::observer_identity(
        &griphon_bench::measure_target::Measure,
    ));
}

/// Probing, estimation and the estimate exposition are pure functions
/// of the seeds: `measure`'s cell digests and texts are identical for
/// 1, 2 and 8 workers.
#[test]
fn measurement_plane_is_thread_independent() {
    gate_passed(harness::thread_identity(
        &griphon_bench::measure_target::Measure,
    ));
}

/// The serve grid is pure scheduling: its probe cells' digests and
/// report rows are identical for 1, 2 and 8 workers.
#[test]
fn serve_grid_is_thread_independent() {
    gate_passed(harness::thread_identity(
        &griphon_bench::serve_target::Serve,
    ));
}
