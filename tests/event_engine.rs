//! The event-driven drivers against their fixed-tick oracles.
//!
//! The contract (DESIGN.md §8): with decisions restricted to tick
//! boundaries, every policy's event-driven `run` must produce a
//! `PolicyOutcome` byte-identical to ticking every decision, for *any*
//! job set, rate profile, tick and horizon — including profiles whose
//! breakpoints are not tick-aligned (the engine snaps them to the grid
//! exactly as the tick loop samples them). The oracles live in
//! `tests/support/reference_policies.rs`, written over the public API
//! with their own copies of every sizing and order rule, so they share
//! no decision code with the drivers.
//!
//! Each property runs its fixed cases first, then random workloads
//! through both engines, and requires exact equality; the
//! controller-backed policies also require the twin controllers to land
//! in identical states. `fig6_and_fig7_cells_match_the_tick_oracle`
//! rebuilds every cell of the two figures the same way and pins each
//! rebuilt row to `tests/golden/policies.txt`.

#[path = "support/reference_policies.rs"]
mod reference;

use std::fmt::Debug;

use proptest::prelude::*;

use cloud::scheduler::{
    BodPolicy, DeadlineBodPolicy, MultiPairBod, PolicyOutcome, StaticLinePolicy, StoreForwardPolicy,
};
use cloud::{
    BulkJob, CostModel, DataCenterId, JobId, RateProfile, WorkloadConfig, WorkloadGenerator,
};
use griphon::controller::Controller;
use griphon::CustomerId;
use griphon_bench::experiments::quiet_testbed;
use griphon_bench::table;
use photonic::TestbedIds;
use simcore::{DataRate, DataSize, SimDuration, SimTime};

/// (size GB, created s, optional deadline offset s) → job list.
fn jobs_from(spec: &[(u64, u64, Option<u64>)]) -> Vec<BulkJob> {
    spec.iter()
        .enumerate()
        .map(|(i, (gb, created_s, deadline_off))| {
            let created = SimTime::from_secs(*created_s);
            BulkJob {
                id: JobId::new(i as u32),
                from: DataCenterId::new(0),
                to: DataCenterId::new(1),
                size: DataSize::from_gigabytes(*gb),
                created,
                deadline: deadline_off.map(|d| created + SimDuration::from_secs(d)),
            }
        })
        .collect()
}

/// A hand-picked job: `tb` terabytes created at `created_s`, due at the
/// absolute `deadline_s` if any.
fn tb_job(id: u32, tb: u64, created_s: u64, deadline_s: Option<u64>) -> BulkJob {
    BulkJob {
        id: JobId::new(id),
        from: DataCenterId::new(0),
        to: DataCenterId::new(1),
        size: DataSize::from_terabytes(tb),
        created: SimTime::from_secs(created_s),
        deadline: deadline_s.map(SimTime::from_secs),
    }
}

/// (time s, gbps) steps → profile. Breakpoints are *not* tick-aligned in
/// general — the engine must snap them exactly as the oracle samples.
fn profile_from(steps: &[(u64, u64)]) -> RateProfile {
    RateProfile::from_steps(
        steps
            .iter()
            .map(|(s, g)| (SimTime::from_secs(*s), DataRate::from_gbps(*g)))
            .collect(),
    )
}

/// A stepped diurnal-ish profile whose breakpoints sit on (or off) the
/// 60 s grid, to stress the grid-snapping logic.
fn stepped_profile() -> RateProfile {
    profile_from(&[(0, 1), (95, 7), (3600, 3), (5403, 0), (9000, 9)])
}

fn job_spec() -> impl Strategy<Value = Vec<(u64, u64, Option<u64>)>> {
    prop::collection::vec(
        (
            1u64..3_000,
            0u64..120_000,
            prop::option::of(600u64..150_000),
        ),
        0..25,
    )
}

fn profile_spec() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200_000, 0u64..30), 0..12)
}

/// Assert the two controllers of a twin run are indistinguishable.
fn assert_controllers_equal(a: &mut Controller, b: &mut Controller) {
    assert_eq!(a.now(), b.now(), "controller clocks diverged");
    assert_eq!(
        a.events_processed(),
        b.events_processed(),
        "controller event counts diverged"
    );
    assert_eq!(a.trace.dump(), b.trace.dump(), "controller traces diverged");
}

/// Run a controller-backed policy on twin quiet testbeds with `ots`
/// transponders per pool — the driver on one (`oracle == false`), the
/// oracle on the other — and require equal outcomes and controllers.
/// Returns the driver's outcome.
fn assert_twins<T: PartialEq + Debug>(
    ots: usize,
    run: impl Fn(&mut Controller, CustomerId, &TestbedIds, bool) -> T,
) -> T {
    let go = |oracle| {
        let (mut ctl, ids) = quiet_testbed(ots);
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        let out = run(&mut ctl, csp, &ids, oracle);
        (out, ctl)
    };
    let (event, mut ctl_e) = go(false);
    let (oracle, mut ctl_t) = go(true);
    assert_eq!(event, oracle);
    assert_controllers_equal(&mut ctl_e, &mut ctl_t);
    event
}

/// Static line: driver ≡ oracle.
fn check_static(
    p: StaticLinePolicy,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
    profile: &RateProfile,
) {
    let event = p.run(jobs.clone(), horizon, tick, profile);
    let oracle = reference::static_line(&p, jobs, horizon, tick, &|t| profile.rate_at(t));
    assert_eq!(event, oracle);
}

/// Store-and-forward: driver ≡ oracle.
fn check_store_forward(
    p: StoreForwardPolicy,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
    profile: &RateProfile,
) {
    let event = p.run(jobs.clone(), horizon, tick, profile);
    let oracle = reference::store_forward(&p, jobs, horizon, tick, &|t| profile.rate_at(t));
    assert_eq!(event, oracle);
}

/// One-pair BoD from PoP I to PoP IV: driver ≡ oracle on twin testbeds.
fn check_bod(
    p: BodPolicy,
    ots: usize,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
) {
    assert_twins(ots, |ctl, csp, ids, oracle| {
        let jobs = jobs.clone();
        if oracle {
            reference::bod(&p, ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
        } else {
            p.run(ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
        }
    });
}

/// Deadline BoD from PoP I to PoP IV: driver ≡ oracle on twin testbeds.
fn check_deadline(
    p: DeadlineBodPolicy,
    ots: usize,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
) {
    assert_twins(ots, |ctl, csp, ids, oracle| {
        let jobs = jobs.clone();
        if oracle {
            reference::deadline_bod(&p, ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
        } else {
            p.run(ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
        }
    });
}

/// Multi-pair BoD over I→IV, I→III and III→IV (one job list each, up to
/// three): driver ≡ oracle on twin testbeds.
fn check_multi_pair(
    m: MultiPairBod,
    ots: usize,
    jobs: Vec<Vec<BulkJob>>,
    horizon: SimDuration,
    tick: SimDuration,
) {
    assert_twins(ots, |ctl, csp, ids, oracle| {
        let ends = [(ids.i, ids.iv), (ids.i, ids.iii), (ids.iii, ids.iv)];
        let pairs: Vec<_> = jobs
            .iter()
            .zip(ends)
            .map(|(jobs, (a, b))| (a, b, jobs.clone()))
            .collect();
        if oracle {
            reference::multi_pair_bod(&m, ctl, csp, pairs, horizon, tick)
        } else {
            m.run(ctl, csp, pairs, horizon, tick)
        }
    });
}

// Each test below keeps its random cases in an inner function of the
// same name, so they draw the inputs they always drew.

/// Static line: event engine ≡ tick oracle on arbitrary workloads,
/// line rates, ticks, horizons and (unaligned) profiles.
#[test]
fn static_line_event_matches_tick_oracle() {
    check_static(
        StaticLinePolicy {
            line: DataRate::from_gbps(10),
        },
        vec![
            tb_job(0, 2, 0, None),
            tb_job(1, 1, 500, None),
            tb_job(2, 3, 7000, None),
            tb_job(3, 1, 7000, None),
        ],
        SimDuration::from_hours(9),
        SimDuration::from_secs(60),
        &stepped_profile(),
    );
    proptest! {
        fn static_line_event_matches_tick_oracle(
            spec in job_spec(),
            steps in profile_spec(),
            line_gbps in 1u64..60,
            tick_s in 5u64..180,
            horizon_h in 1u64..60,
        ) {
            check_static(
                StaticLinePolicy { line: DataRate::from_gbps(line_gbps) },
                jobs_from(&spec),
                SimDuration::from_hours(horizon_h),
                SimDuration::from_secs(tick_s),
                &profile_from(&steps),
            );
        }
    }
    static_line_event_matches_tick_oracle();
}

/// Store-and-forward: the relay phase shifts exercise breakpoints
/// seen through shifted clocks; equality must still be exact.
#[test]
fn store_forward_event_matches_tick_oracle() {
    check_store_forward(
        StoreForwardPolicy {
            line: DataRate::from_gbps(10),
            relays: 2,
            relay_phase_hours: 0.7,
        },
        vec![
            tb_job(0, 2, 0, None),
            tb_job(1, 4, 4000, None),
            tb_job(2, 1, 12000, None),
        ],
        SimDuration::from_hours(12),
        SimDuration::from_secs(60),
        &stepped_profile(),
    );
    proptest! {
        fn store_forward_event_matches_tick_oracle(
            spec in job_spec(),
            steps in profile_spec(),
            line_gbps in 1u64..40,
            tick_s in 5u64..180,
            horizon_h in 1u64..48,
            relays in 0usize..3,
            phase_tenths in 1u64..120,
        ) {
            check_store_forward(
                StoreForwardPolicy {
                    line: DataRate::from_gbps(line_gbps),
                    relays,
                    relay_phase_hours: phase_tenths as f64 / 10.0,
                },
                jobs_from(&spec),
                SimDuration::from_hours(horizon_h),
                SimDuration::from_secs(tick_s),
                &profile_from(&steps),
            );
        }
    }
    store_forward_event_matches_tick_oracle();
}

/// BoD with a live controller: twin controllers, one per engine,
/// must produce identical outcomes *and* identical controller state
/// (clock, event count, full trace).
#[test]
fn bod_event_matches_tick_oracle() {
    check_bod(
        BodPolicy {
            max_rate: DataRate::from_gbps(20),
            drain_target: SimDuration::from_mins(30),
            idle_release: SimDuration::from_mins(5),
        },
        8,
        vec![
            tb_job(0, 2, 0, None),
            tb_job(1, 1, 9000, None),
            tb_job(2, 4, 9030, None),
        ],
        SimDuration::from_hours(8),
        SimDuration::from_secs(30),
    );
    // 2 250 GB over a 30-minute drain wants exactly one wavelength: once
    // it is ordered, the target equals what is committed, and no second
    // order may follow until the target exceeds it.
    check_bod(
        BodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_mins(30),
            idle_release: SimDuration::from_mins(5),
        },
        8,
        jobs_from(&[(2_250, 0, None)]),
        SimDuration::from_hours(4),
        SimDuration::from_secs(60),
    );
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn bod_event_matches_tick_oracle(
            spec in job_spec(),
            drain_mins in 10u64..180,
            idle_mins in 1u64..60,
            max_gbps in 1u64..5,
        ) {
            check_bod(
                BodPolicy {
                    max_rate: DataRate::from_gbps(max_gbps * 10),
                    drain_target: SimDuration::from_mins(drain_mins),
                    idle_release: SimDuration::from_mins(idle_mins),
                },
                10,
                jobs_from(&spec),
                SimDuration::from_hours(24),
                SimDuration::from_secs(60),
            );
        }
    }
    bod_event_matches_tick_oracle();
}

/// Deadline-aware BoD: the binary search over inert decision ticks
/// must never change what the tick loop would have ordered.
#[test]
fn deadline_bod_event_matches_tick_oracle() {
    let (h, tick) = (SimDuration::from_hours(12), SimDuration::from_secs(60));
    let jobs = vec![
        tb_job(0, 2, 0, Some(4 * 3600)),
        tb_job(1, 1, 1000, None),
        tb_job(2, 5, 7200, Some(9 * 3600)),
    ];
    check_deadline(DeadlineBodPolicy::default(), 8, jobs, h, tick);
    // No background work under a zero background drain: the required
    // rate must not become 0/0 = NaN, which would never order.
    let zero_drain = DeadlineBodPolicy {
        background_drain: SimDuration::ZERO,
        ..DeadlineBodPolicy::default()
    };
    let jobs = vec![tb_job(0, 4, 0, Some(3 * 3600))];
    check_deadline(zero_drain, 8, jobs, SimDuration::from_hours(4), tick);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn deadline_bod_event_matches_tick_oracle(
            spec in job_spec(),
            margin_mins in 1u64..30,
            drain_h in 1u64..8,
        ) {
            check_deadline(
                DeadlineBodPolicy {
                    provisioning_margin: SimDuration::from_mins(margin_mins),
                    background_drain: SimDuration::from_hours(drain_h),
                    ..DeadlineBodPolicy::default()
                },
                10,
                jobs_from(&spec),
                SimDuration::from_hours(24),
                SimDuration::from_secs(60),
            );
        }
    }
    deadline_bod_event_matches_tick_oracle();
}

/// Multi-pair BoD: one to three pairs contend for one carrier, and
/// every pair's decision tick must land where the oracle's does.
#[test]
fn multi_pair_bod_event_matches_tick_oracle() {
    let mk = |id, tb, created_s| tb_job(id, tb, created_s, None);
    check_multi_pair(
        MultiPairBod {
            policy: BodPolicy {
                max_rate: DataRate::from_gbps(20),
                drain_target: SimDuration::from_mins(30),
                idle_release: SimDuration::from_mins(5),
            },
        },
        6,
        vec![
            vec![mk(0, 4, 0), mk(3, 2, 14000)],
            vec![mk(1, 2, 600)],
            vec![mk(2, 6, 3000)],
        ],
        SimDuration::from_hours(8),
        SimDuration::from_secs(60),
    );
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn multi_pair_bod_event_matches_tick_oracle(
            specs in prop::collection::vec(job_spec(), 1..4),
            drain_mins in 10u64..180,
            idle_mins in 1u64..60,
            max_gbps in 1u64..5,
        ) {
            check_multi_pair(
                MultiPairBod {
                    policy: BodPolicy {
                        max_rate: DataRate::from_gbps(max_gbps * 10),
                        drain_target: SimDuration::from_mins(drain_mins),
                        idle_release: SimDuration::from_mins(idle_mins),
                    },
                },
                10,
                specs.iter().map(|spec| jobs_from(spec)).collect(),
                SimDuration::from_hours(24),
                SimDuration::from_secs(60),
            );
        }
    }
    multi_pair_bod_event_matches_tick_oracle();
}

/// Every cell of Fig. 6 (seed 611) and Fig. 7 (seed `700 + mins` per
/// load), rebuilt with the figures' own configs: the drivers see the
/// sampled interactive profile, the oracles the raw diurnal function
/// (so a wrong sampling window fails), and the rows they render must be
/// the committed ones — a parameter drifting in `experiments.rs` fails
/// here or in `tests/policy_golden.rs`.
#[test]
fn fig6_and_fig7_cells_match_the_tick_oracle() {
    let golden = include_str!("golden/policies.txt");
    let horizon = SimDuration::from_hours(24 * 7);
    let tick = SimDuration::from_secs(60);
    let hours = horizon.as_secs_f64() / 3600.0;
    let gen_ref = WorkloadGenerator::new(WorkloadConfig::default(), 0);
    let diurnal = |t: SimTime| gen_ref.interactive_rate(t);
    let interactive = RateProfile::sampled(
        diurnal,
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
    // One week of jobs through all three policies, driver ≡ oracle.
    let cell = |bulk_interarrival, bulk_max, seed| {
        let cfg = WorkloadConfig {
            bulk_interarrival,
            bulk_max,
            ..WorkloadConfig::default()
        };
        let jobs = WorkloadGenerator::new(cfg, seed).bulk_jobs(
            DataCenterId::new(0),
            DataCenterId::new(1),
            horizon,
        );
        let o_static = static_line.run(jobs.clone(), horizon, tick, &interactive);
        let r_static = reference::static_line(&static_line, jobs.clone(), horizon, tick, &diurnal);
        assert_eq!(o_static, r_static, "static line, seed {seed}");
        let o_snf = snf.run(jobs.clone(), horizon, tick, &interactive);
        let r_snf = reference::store_forward(&snf, jobs.clone(), horizon, tick, &diurnal);
        assert_eq!(o_snf, r_snf, "store-and-forward, seed {seed}");
        let o_bod = assert_twins(10, |ctl, csp, ids, oracle| {
            let jobs = jobs.clone();
            if oracle {
                reference::bod(&bod, ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
            } else {
                bod.run(ctl, csp, ids.i, ids.iv, jobs, horizon, tick)
            }
        });
        (jobs.len(), [o_static, o_snf, o_bod])
    };
    let assert_committed = |figure: &str, rendered: String| {
        for row in rendered.lines() {
            assert!(
                golden.lines().any(|line| line == row),
                "{figure}: rebuilt row not in tests/golden/policies.txt:\n{row}"
            );
        }
        assert!(golden.contains(&rendered), "{figure}: rows out of order");
    };
    let cost = CostModel::default();

    let (n, outcomes) = cell(
        SimDuration::from_hours(4),
        DataSize::from_terabytes(50),
        611,
    );
    let names = [
        ("static 40G line", false),
        ("store-and-forward", false),
        ("GRIPhoN BoD (≤40G)", true),
    ];
    let rows: Vec<Vec<String>> = names
        .into_iter()
        .zip(&outcomes)
        .map(|((name, is_bod), o)| {
            vec![
                name.to_string(),
                format!("{}/{n}", o.log.completed),
                format!("{:.2} h", o.log.mean_completion_secs / 3600.0),
                format!("{:.2} h", o.log.p95_completion_secs / 3600.0),
                format!("{:.0} Gbps·h", o.gbps_hours),
                format!("{:.0}", cost.outcome_cost(o, hours, is_bod)),
            ]
        })
        .collect();
    let headers = ["policy", "done", "mean compl", "p95 compl", "held", "cost"];
    assert_committed("Fig. 6", table::render(&headers, &rows));

    let rows: Vec<Vec<String>> = [720u64, 360, 180, 90, 45]
        .into_iter()
        .map(|mins| {
            let (n, [s, f, b]) = cell(
                SimDuration::from_mins(mins),
                DataSize::from_terabytes(40),
                700 + mins,
            );
            vec![
                if mins % 60 == 0 {
                    format!("{} h", mins / 60)
                } else {
                    format!("{mins} min")
                },
                n.to_string(),
                format!("{:.0}", cost.outcome_cost(&s, hours, false)),
                format!("{:.0}", cost.outcome_cost(&f, hours, false)),
                format!("{:.0}", cost.outcome_cost(&b, hours, true)),
                format!("{}/{n}", b.log.completed),
            ]
        })
        .collect();
    let headers = [
        "interarrival",
        "jobs",
        "static 40G",
        "store-fwd",
        "BoD",
        "BoD done",
    ];
    assert_committed("Fig. 7", table::render(&headers, &rows));
}

/// One full-mesh multi-pair run under the event engine.
fn multi_pair_run() -> (Vec<PolicyOutcome>, String, u64) {
    let horizon = SimDuration::from_hours(30);
    let tick = SimDuration::from_secs(60);
    let (mut ctl, ids) = quiet_testbed(10);
    let csp = ctl.tenants.register("t", DataRate::from_gbps(400));
    let mk = |base: u32, pair: u64| {
        jobs_from(&[
            (900 + 40 * pair, 1_000 * pair, None),
            (2_400, 20_000 + 777 * pair, Some(90_000)),
            (60, 45_000 + 300 * pair, None),
            (1_500, 70_000, None),
        ])
        .into_iter()
        .enumerate()
        .map(|(i, mut j)| {
            j.id = JobId::new(base + i as u32);
            j
        })
        .collect::<Vec<_>>()
    };
    let pairs = vec![
        (ids.i, ids.iv, mk(0, 1)),
        (ids.i, ids.iii, mk(10, 2)),
        (ids.iii, ids.iv, mk(20, 3)),
    ];
    let outcomes = MultiPairBod {
        policy: BodPolicy {
            max_rate: DataRate::from_gbps(30),
            drain_target: SimDuration::from_hours(1),
            idle_release: SimDuration::from_mins(10),
        },
    }
    .run(&mut ctl, csp, pairs, horizon, tick);
    (outcomes, ctl.trace.dump(), ctl.events_processed())
}

/// The event engine is deterministic run to run: same inputs, fresh
/// controller, byte-identical outcomes, trace and event count.
#[test]
fn multi_pair_event_engine_is_deterministic() {
    let (o1, trace1, n1) = multi_pair_run();
    let (o2, trace2, n2) = multi_pair_run();
    assert_eq!(o1, o2);
    assert_eq!(trace1, trace2);
    assert_eq!(n1, n2);
}
