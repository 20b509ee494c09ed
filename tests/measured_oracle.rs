//! `MeasuredBodPolicy::run` against the loop it replaced.
//!
//! The estimation-aware policy runs on the shared BoD driver, ticking
//! every decision point because its prober must advance every tick. Its
//! orders, upgrades, downgrades and releases reach the controller, and
//! its score feeds every `repro measure` row, so the driver must leave
//! all of them bit-identical to the policy's old fixed-tick loop, kept
//! in `tests/support/reference_policies.rs` as the oracle. Each case
//! runs twin controllers, one per implementation, and compares the
//! outcome, the lateness, the three feedback counters, the score's bits,
//! the probe sample count and the controller's state digest.
//!
//! Tier-1 runs random job sets over stationary, square-wave and diurnal
//! cross traffic in all three modes; the `#[ignore]`d grid runs the five
//! `repro measure` scenarios in all three modes
//! (`cargo test --release --test measured_oracle -- --ignored`).

#[path = "support/reference_policies.rs"]
mod reference;

use cloud::{BulkJob, DataCenterId, JobId, MeasuredBodPolicy, MeasuredMode, MeasuredRun};
use griphon::controller::{Controller, ControllerConfig};
use griphon::{CrossTraffic, ProbeConfig, ProbePath};
use griphon_bench::measure_target::point_seed;
use photonic::PhotonicNetwork;
use proptest::prelude::*;
use simcore::{DataRate, DataSize, SimDuration, SimTime};

const MODES: [MeasuredMode; 3] = [
    MeasuredMode::Fixed,
    MeasuredMode::Estimated,
    MeasuredMode::Oracle,
];

/// One policy run's inputs.
struct Cell {
    name: &'static str,
    seed: u64,
    mode: MeasuredMode,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    cross: CrossTraffic,
    noise_ns: f64,
    observability: bool,
}

/// Run `cell` on a fresh controller, through the product driver or the
/// reference loop; returns the run and the controller's state digest.
fn run(cell: &Cell, reference: bool) -> (MeasuredRun, u32) {
    let (net, ids) = PhotonicNetwork::testbed(8);
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            seed: cell.seed,
            ..ControllerConfig::quiet()
        },
    );
    let csp = ctl.tenants.register("csp", DataRate::from_gbps(400));
    let policy = MeasuredBodPolicy {
        mode: cell.mode,
        ..MeasuredBodPolicy::default()
    };
    let path = ProbePath {
        name: cell.name,
        capacity: DataRate::from_gbps(40),
        cross: cell.cross.clone(),
    };
    let cfg = ProbeConfig {
        noise_ns: cell.noise_ns,
        ..ProbeConfig::default()
    };
    let tick = SimDuration::from_secs(60);
    let jobs = cell.jobs.clone();
    let out = if reference {
        reference::measured_bod(
            &policy,
            &mut ctl,
            csp,
            ids.i,
            ids.iv,
            jobs,
            cell.horizon,
            tick,
            path,
            cfg,
            cell.seed,
            cell.observability,
        )
    } else {
        policy.run(
            &mut ctl,
            csp,
            ids.i,
            ids.iv,
            jobs,
            cell.horizon,
            tick,
            path,
            cfg,
            cell.seed,
            cell.observability,
        )
    };
    (out, ctl.state_digest_crc())
}

/// Driver ≡ reference on every compared observable.
fn assert_matches_reference(cell: &Cell) {
    let (new, new_digest) = run(cell, false);
    let (old, old_digest) = run(cell, true);
    let at = format!("{} / {:?}", cell.name, cell.mode);
    assert_eq!(new.outcome, old.outcome, "{at}: outcome");
    assert_eq!(
        new.late_job_hours.to_bits(),
        old.late_job_hours.to_bits(),
        "{at}: late job-hours"
    );
    assert_eq!(
        new.under_delivery_ticks, old.under_delivery_ticks,
        "{at}: under-delivery ticks"
    );
    assert_eq!(new.upgrades, old.upgrades, "{at}: upgrades");
    assert_eq!(new.downgrades, old.downgrades, "{at}: downgrades");
    assert_eq!(new.score.to_bits(), old.score.to_bits(), "{at}: score");
    assert_eq!(
        new.measure.samples.len(),
        old.measure.samples.len(),
        "{at}: probe samples"
    );
    assert_eq!(new_digest, old_digest, "{at}: controller state digest");
}

/// (size TB, created minutes) → job list.
fn jobs_from(spec: &[(u64, u64)]) -> Vec<BulkJob> {
    spec.iter()
        .enumerate()
        .map(|(i, &(tb, created_min))| BulkJob {
            id: JobId::new(i as u32),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_terabytes(tb),
            created: SimTime::from_secs(created_min * 60),
            deadline: None,
        })
        .collect()
}

/// Cross traffic of kind `kind % 3` (stationary, square, diurnal) with
/// its level and timing drawn from `level_g` and `period_min`.
fn cross_from(kind: u8, seed: u64, level_g: u64, period_min: u64, h: SimTime) -> CrossTraffic {
    match kind % 3 {
        0 => CrossTraffic::stationary(
            seed,
            DataRate::from_gbps(level_g),
            0.1,
            SimDuration::from_secs(60),
            h,
        ),
        1 => CrossTraffic::square(
            DataRate::from_gbps(level_g / 4),
            DataRate::from_gbps(level_g),
            SimDuration::from_mins(period_min),
            h,
        ),
        _ => CrossTraffic::diurnal(
            seed,
            DataRate::from_gbps(level_g / 2),
            DataRate::from_gbps(level_g / 3),
            SimDuration::from_mins(period_min * 4),
            SimDuration::from_secs(120),
            h,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random job sets, cross traffic and seeds, in every mode: the
    /// driver must reproduce the reference loop exactly.
    #[test]
    fn measured_driver_matches_reference_loop(
        spec in prop::collection::vec((1u64..30, 0u64..300), 0..5),
        kind in any::<u8>(),
        seed in any::<u64>(),
        level_g in 4u64..38,
        period_min in 10u64..120,
        horizon_h in 1u64..7,
        observability in any::<bool>(),
    ) {
        let horizon = SimDuration::from_hours(horizon_h);
        for mode in MODES {
            assert_matches_reference(&Cell {
                name: "prop",
                seed,
                mode,
                jobs: jobs_from(&spec),
                horizon,
                cross: cross_from(kind, seed, level_g, period_min, SimTime::ZERO + horizon),
                noise_ns: 200.0,
                observability,
            });
        }
    }
}

/// The five `repro measure` scenarios (their definitions in
/// `griphon_bench::measure_target`, restated) in all three modes.
#[test]
#[ignore = "release-only grid; run with --ignored"]
fn measure_scenarios_match_reference_loop() {
    let horizon = SimDuration::from_hours(8);
    let h = SimTime::ZERO + horizon;
    let stationary = || {
        CrossTraffic::stationary(
            17,
            DataRate::from_gbps(20),
            0.1,
            SimDuration::from_secs(60),
            h,
        )
    };
    let scenarios: [(&'static str, f64, CrossTraffic); 5] = [
        ("stationary", 200.0, stationary()),
        ("stationary-noisy", 2000.0, stationary()),
        (
            "bursty",
            200.0,
            CrossTraffic::stationary(
                23,
                DataRate::from_gbps(16),
                0.1,
                SimDuration::from_secs(60),
                h,
            )
            .with_bursts(
                29,
                DataRate::from_gbps(8),
                SimDuration::from_secs(120),
                SimDuration::from_secs(300),
                h,
            ),
        ),
        (
            "adversarial-square",
            200.0,
            CrossTraffic::square(
                DataRate::from_gbps(4),
                DataRate::from_gbps(36),
                SimDuration::from_mins(45),
                h,
            ),
        ),
        (
            "diurnal",
            200.0,
            CrossTraffic::diurnal(
                31,
                DataRate::from_gbps(18),
                DataRate::from_gbps(12),
                SimDuration::from_hours(6),
                SimDuration::from_secs(120),
                h,
            ),
        ),
    ];
    for (name, noise_ns, cross) in scenarios {
        for mode in MODES {
            for observability in [false, true] {
                assert_matches_reference(&Cell {
                    name,
                    seed: point_seed(name),
                    mode,
                    jobs: jobs_from(&[(30, 0), (8, 180)]),
                    horizon,
                    cross: cross.clone(),
                    noise_ns,
                    observability,
                });
            }
        }
    }
}
