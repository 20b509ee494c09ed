//! The event-driven workload engine against its tick oracle.
//!
//! The contract (DESIGN.md §8): with decisions restricted to tick
//! boundaries, every policy's event-driven `run` must produce a
//! `PolicyOutcome` byte-identical to the retained fixed-tick loop
//! (`run_tick_reference`), for *any* job set, rate profile, tick and
//! horizon — including profiles whose breakpoints are not tick-aligned
//! (the engine snaps them to the grid exactly as the tick loop samples
//! them). These properties drive random workloads through both engines
//! and require exact equality; the controller-backed policies also
//! require the twin controllers to land in identical states.

use proptest::prelude::*;

use cloud::scheduler::{
    BodPolicy, DeadlineBodPolicy, MultiPairBod, PolicyOutcome, StaticLinePolicy, StoreForwardPolicy,
};
use cloud::{BulkJob, DataCenterId, JobId, RateProfile};
use griphon::controller::Controller;
use griphon_bench::experiments::quiet_testbed;
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

proptest! {
    /// Static line: event engine ≡ tick oracle on arbitrary workloads,
    /// line rates, ticks, horizons and (unaligned) profiles.
    #[test]
    fn static_line_event_matches_tick_oracle(
        spec in job_spec(),
        steps in profile_spec(),
        line_gbps in 1u64..60,
        tick_s in 5u64..180,
        horizon_h in 1u64..60,
    ) {
        let jobs = jobs_from(&spec);
        let profile = profile_from(&steps);
        let horizon = SimDuration::from_hours(horizon_h);
        let tick = SimDuration::from_secs(tick_s);
        let policy = StaticLinePolicy { line: DataRate::from_gbps(line_gbps) };
        let event = policy.run(jobs.clone(), horizon, tick, &profile);
        let oracle =
            policy.run_tick_reference(jobs, horizon, tick, &|t| profile.rate_at(t));
        prop_assert_eq!(event, oracle);
    }

    /// Store-and-forward: the relay phase shifts exercise breakpoints
    /// seen through shifted clocks; equality must still be exact.
    #[test]
    fn store_forward_event_matches_tick_oracle(
        spec in job_spec(),
        steps in profile_spec(),
        line_gbps in 1u64..40,
        tick_s in 5u64..180,
        horizon_h in 1u64..48,
        relays in 0usize..3,
        phase_tenths in 1u64..120,
    ) {
        let jobs = jobs_from(&spec);
        let profile = profile_from(&steps);
        let horizon = SimDuration::from_hours(horizon_h);
        let tick = SimDuration::from_secs(tick_s);
        let policy = StoreForwardPolicy {
            line: DataRate::from_gbps(line_gbps),
            relays,
            relay_phase_hours: phase_tenths as f64 / 10.0,
        };
        let event = policy.run(jobs.clone(), horizon, tick, &profile);
        let oracle =
            policy.run_tick_reference(jobs, horizon, tick, &|t| profile.rate_at(t));
        prop_assert_eq!(event, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// BoD with a live controller: twin controllers, one per engine,
    /// must produce identical outcomes *and* identical controller state
    /// (clock, event count, full trace).
    #[test]
    fn bod_event_matches_tick_oracle(
        spec in job_spec(),
        drain_mins in 10u64..180,
        idle_mins in 1u64..60,
        max_gbps in 1u64..5,
    ) {
        let jobs = jobs_from(&spec);
        let horizon = SimDuration::from_hours(24);
        let tick = SimDuration::from_secs(60);
        let policy = BodPolicy {
            max_rate: DataRate::from_gbps(max_gbps * 10),
            drain_target: SimDuration::from_mins(drain_mins),
            idle_release: SimDuration::from_mins(idle_mins),
        };
        let (mut ctl_e, ids_e) = quiet_testbed(10);
        let csp_e = ctl_e.tenants.register("t", DataRate::from_gbps(400));
        let event =
            policy.run(&mut ctl_e, csp_e, ids_e.i, ids_e.iv, jobs.clone(), horizon, tick);
        let (mut ctl_t, ids_t) = quiet_testbed(10);
        let csp_t = ctl_t.tenants.register("t", DataRate::from_gbps(400));
        let oracle = policy
            .run_tick_reference(&mut ctl_t, csp_t, ids_t.i, ids_t.iv, jobs, horizon, tick);
        prop_assert_eq!(event, oracle);
        assert_controllers_equal(&mut ctl_e, &mut ctl_t);
    }

    /// Deadline-aware BoD: the binary search over inert decision ticks
    /// must never change what the tick loop would have ordered.
    #[test]
    fn deadline_bod_event_matches_tick_oracle(
        spec in job_spec(),
        margin_mins in 1u64..30,
        drain_h in 1u64..8,
    ) {
        let jobs = jobs_from(&spec);
        let horizon = SimDuration::from_hours(24);
        let tick = SimDuration::from_secs(60);
        let policy = DeadlineBodPolicy {
            provisioning_margin: SimDuration::from_mins(margin_mins),
            background_drain: SimDuration::from_hours(drain_h),
            ..DeadlineBodPolicy::default()
        };
        let (mut ctl_e, ids_e) = quiet_testbed(10);
        let csp_e = ctl_e.tenants.register("t", DataRate::from_gbps(400));
        let event =
            policy.run(&mut ctl_e, csp_e, ids_e.i, ids_e.iv, jobs.clone(), horizon, tick);
        let (mut ctl_t, ids_t) = quiet_testbed(10);
        let csp_t = ctl_t.tenants.register("t", DataRate::from_gbps(400));
        let oracle = policy
            .run_tick_reference(&mut ctl_t, csp_t, ids_t.i, ids_t.iv, jobs, horizon, tick);
        prop_assert_eq!(event, oracle);
        assert_controllers_equal(&mut ctl_e, &mut ctl_t);
    }

    /// Multi-pair BoD: one to three pairs contend for one carrier, and
    /// every pair's decision tick must land where the oracle's does.
    #[test]
    fn multi_pair_bod_event_matches_tick_oracle(
        specs in prop::collection::vec(job_spec(), 1..4),
        drain_mins in 10u64..180,
        idle_mins in 1u64..60,
        max_gbps in 1u64..5,
    ) {
        let horizon = SimDuration::from_hours(24);
        let tick = SimDuration::from_secs(60);
        let runner = MultiPairBod {
            policy: BodPolicy {
                max_rate: DataRate::from_gbps(max_gbps * 10),
                drain_target: SimDuration::from_mins(drain_mins),
                idle_release: SimDuration::from_mins(idle_mins),
            },
        };
        let twin = || {
            let (mut ctl, ids) = quiet_testbed(10);
            let csp = ctl.tenants.register("t", DataRate::from_gbps(400));
            let ends = [(ids.i, ids.iv), (ids.i, ids.iii), (ids.iii, ids.iv)];
            let pairs: Vec<_> = specs
                .iter()
                .zip(ends)
                .map(|(spec, (a, b))| (a, b, jobs_from(spec)))
                .collect();
            (ctl, csp, pairs)
        };
        let (mut ctl_e, csp_e, pairs_e) = twin();
        let event = runner.run(&mut ctl_e, csp_e, pairs_e, horizon, tick);
        let (mut ctl_t, csp_t, pairs_t) = twin();
        let oracle = runner.run_tick_reference(&mut ctl_t, csp_t, pairs_t, horizon, tick);
        prop_assert_eq!(event, oracle);
        assert_controllers_equal(&mut ctl_e, &mut ctl_t);
    }
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
