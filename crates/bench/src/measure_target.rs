//! `repro measure` — the measurement plane
//! (`BENCH_measure.json` + `measure_exposition.txt`).
//!
//! Sweeps estimation error against policy regret across cross-traffic
//! regimes on a 40 G shared path (`DESIGN.md` §15):
//!
//! - **stationary** — jittered-but-stable competing load, the regime
//!   probe-gap estimation is exact in;
//! - **stationary-noisy** — the same load with 10× receive-timestamp
//!   noise, the estimator's robustness case;
//! - **bursty** — TCP-like on/off injections layered on the base load;
//! - **adversarial-square** — a square wave built to alias against the
//!   probing cadence, the worst case for a lagging EWMA;
//! - **diurnal** — a slow sinusoidal drift, the paper's inter-data-center
//!   day/night cycle.
//!
//! Each scenario runs [`MeasuredBodPolicy`] in all three sizing modes —
//! `Fixed` (the blind baseline), `Estimated` (the measurement feedback
//! loop), `Oracle` (perfect knowledge, the regret reference). Each
//! scenario is a [`crate::harness`] point, each mode a cell
//! whose observer is the measurement plane: the harness runs it off,
//! then on, and requires a byte-identical controller
//! `state_digest_crc()` (measurement is pure observation) and zero span
//! drops. The target gates the rest: the same score and outcome on and
//! off, exemplars that resolve into the tail sampler's retained probe
//! traces (asserted inside `Prober::finish`), no probe lost at the
//! bottleneck, and — in the stationary scenario — the estimation-aware
//! plan beating the fixed-size plan on regret.
//!
//! `SCALE_SWEEP=reduced` runs the three-scenario CI subset; the
//! scenario definitions themselves never change with the sweep, so the
//! golden exposition (`tests/golden/measure_exposition.txt`) is a pure
//! function of the seeds.

use cloud::{BulkJob, DataCenterId, JobId, MeasuredBodPolicy, MeasuredMode, MeasuredRun};
use griphon::controller::{Controller, ControllerConfig};
use griphon::{AbSample, CrossTraffic, ProbeConfig, ProbePath};
use photonic::PhotonicNetwork;
use serde::Serialize;
use simcore::{Crc32c, DataRate, DataSize, SimDuration, SimTime};

use crate::harness::{
    ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, PointRun, Runs, Sweep,
};

/// Shared-path bottleneck capacity.
const CAPACITY_GBPS: u64 = 40;
/// Policy horizon. Fixed across sweeps so the golden bytes never move.
const HORIZON_HOURS: u64 = 8;
/// Decision-tick granularity.
const TICK_SECS: u64 = 60;
/// Receive-timestamp noise σ for the standard scenarios (ns).
const NOISE_NS: f64 = 200.0;

/// One cross-traffic regime the sweep drives.
pub struct Scenario {
    /// Row label, path label, and seed source.
    name: &'static str,
    /// Receive-timestamp noise σ (ns) for this row.
    noise_ns: f64,
    /// Cross-traffic builder, handed the horizon.
    build: fn(SimTime) -> CrossTraffic,
}

fn cross_stationary(h: SimTime) -> CrossTraffic {
    CrossTraffic::stationary(
        17,
        DataRate::from_gbps(20),
        0.1,
        SimDuration::from_secs(60),
        h,
    )
}

fn cross_bursty(h: SimTime) -> CrossTraffic {
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
    )
}

fn cross_square(h: SimTime) -> CrossTraffic {
    CrossTraffic::square(
        DataRate::from_gbps(4),
        DataRate::from_gbps(36),
        SimDuration::from_mins(45),
        h,
    )
}

fn cross_diurnal(h: SimTime) -> CrossTraffic {
    CrossTraffic::diurnal(
        31,
        DataRate::from_gbps(18),
        DataRate::from_gbps(12),
        SimDuration::from_hours(6),
        SimDuration::from_secs(120),
        h,
    )
}

/// The default sweep: every regime.
const FULL_SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "stationary",
        noise_ns: NOISE_NS,
        build: cross_stationary,
    },
    Scenario {
        name: "stationary-noisy",
        noise_ns: 10.0 * NOISE_NS,
        build: cross_stationary,
    },
    Scenario {
        name: "bursty",
        noise_ns: NOISE_NS,
        build: cross_bursty,
    },
    Scenario {
        name: "adversarial-square",
        noise_ns: NOISE_NS,
        build: cross_square,
    },
    Scenario {
        name: "diurnal",
        noise_ns: NOISE_NS,
        build: cross_diurnal,
    },
];

/// The `SCALE_SWEEP=reduced` subset CI runs on every push: the exact
/// regime, the adversarial regime, and the drifting regime.
const REDUCED_NAMES: &[&str] = &["stationary", "adversarial-square", "diurnal"];

/// Deterministic per-scenario seed (FNV-1a over the name) — shared with
/// `tests/measured_oracle.rs`, identical for the on and off runs of a cell.
pub fn point_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pair's bulk jobs: a big transfer at t = 0 and a re-ramp mid-run,
/// so the sizing loop both grows and sheds capacity.
fn jobs() -> Vec<BulkJob> {
    let job = |id: u32, tb: u64, created_s: u64| BulkJob {
        id: JobId::new(id),
        from: DataCenterId::new(0),
        to: DataCenterId::new(1),
        size: DataSize::from_terabytes(tb),
        created: SimTime::from_secs(created_s),
        deadline: None,
    };
    vec![job(0, 30, 0), job(1, 8, 3 * 3600)]
}

/// Run one `(scenario, mode, observability)` cell. Pure function of its
/// arguments; the digest must not depend on `observability` — that is
/// the harness's on/off gate.
fn run_cell(s: &Scenario, mode: MeasuredMode, observability: bool) -> (u32, MeasuredRun) {
    let seed = point_seed(s.name);
    let horizon = SimDuration::from_hours(HORIZON_HOURS);
    let (net, ids) = PhotonicNetwork::testbed(8);
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            seed,
            ..ControllerConfig::quiet()
        },
    );
    let csp = ctl
        .tenants
        .register("measure-csp", DataRate::from_gbps(400));
    let path = ProbePath {
        name: s.name,
        capacity: DataRate::from_gbps(CAPACITY_GBPS),
        cross: (s.build)(SimTime::ZERO + horizon),
    };
    let policy = MeasuredBodPolicy {
        mode,
        ..MeasuredBodPolicy::default()
    };
    let run = policy.run(
        &mut ctl,
        csp,
        ids.i,
        ids.iv,
        jobs(),
        horizon,
        SimDuration::from_secs(TICK_SECS),
        path,
        ProbeConfig {
            noise_ns: s.noise_ns,
            ..ProbeConfig::default()
        },
        seed,
        observability,
    );
    (ctl.state_digest_crc(), run)
}

/// One scenario row of the measure report: estimation error on the
/// left, policy regret on the right.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario label.
    pub name: String,
    /// Receive-timestamp noise σ (ns).
    pub noise_ns: f64,
    /// Probe trains the estimated run completed.
    pub trains: u64,
    /// Probes injected across the estimated run.
    pub probes_sent: u64,
    /// Probes dropped at the bottleneck (gated to 0).
    pub probes_dropped: u64,
    /// Mean |raw − true| per train, percent of capacity.
    pub mean_raw_error_pct: f64,
    /// Mean |EWMA − true| per train, percent of capacity.
    pub mean_smooth_error_pct: f64,
    /// Worst |EWMA − true| over the run, percent of capacity.
    pub max_smooth_error_pct: f64,
    /// Score of the fixed-size plan (paid Gbps·h + lateness penalty).
    pub score_fixed: f64,
    /// Score of the estimation-aware plan.
    pub score_estimated: f64,
    /// Score of the perfect-knowledge plan.
    pub score_oracle: f64,
    /// `score_fixed − score_oracle`.
    pub regret_fixed: f64,
    /// `score_estimated − score_oracle`.
    pub regret_estimated: f64,
    /// Wavelengths the under-delivery trigger ordered (estimated run).
    pub upgrades: u64,
    /// Members the surplus trigger shed early (estimated run).
    pub downgrades: u64,
    /// Ticks the path under-delivered vs the estimate (estimated run).
    pub under_delivery_ticks: u64,
    /// Exemplars retained on the estimate histogram (estimated run).
    pub exemplars: usize,
    /// CRC-32C over the scenario's per-cell state digests (identical
    /// on/off — gated).
    pub digest_crc: u32,
}

/// The `BENCH_measure.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct MeasureReport {
    /// Shared-path capacity (Gbps).
    pub capacity_gbps: f64,
    /// Policy horizon (hours).
    pub horizon_hours: u64,
    /// Decision-tick granularity (seconds).
    pub tick_secs: u64,
    /// One row per cross-traffic regime.
    pub scenarios: Vec<ScenarioRow>,
}

/// The sizing modes, one cell each.
const MODES: &[MeasuredMode] = &[
    MeasuredMode::Fixed,
    MeasuredMode::Estimated,
    MeasuredMode::Oracle,
];

fn mode_name(m: MeasuredMode) -> &'static str {
    match m {
        MeasuredMode::Fixed => "fixed",
        MeasuredMode::Estimated => "estimated",
        MeasuredMode::Oracle => "oracle",
    }
}

/// `repro measure`: one point per cross-traffic regime, one cell per
/// sizing mode; the observer is the measurement plane.
pub struct Measure;

impl Experiment for Measure {
    const NAME: &'static str = "measure";
    const IDENTITY: Identity = Identity::Observer;
    const SWEEPS: bool = true;
    type Point = &'static Scenario;
    type Cell = MeasuredMode;
    /// The controller's state digest and the policy run.
    type Out = (u32, MeasuredRun);
    type Report = MeasureReport;

    fn points(&self, sweep: Sweep) -> Vec<&'static Scenario> {
        FULL_SCENARIOS
            .iter()
            .filter(|s| sweep == Sweep::Full || REDUCED_NAMES.contains(&s.name))
            .collect()
    }

    fn cells(&self, _: &&'static Scenario) -> Vec<MeasuredMode> {
        MODES.to_vec()
    }

    fn label(&self, s: &&'static Scenario, mode: &MeasuredMode) -> String {
        format!("{}/{}", s.name, mode_name(*mode))
    }

    /// One `(scenario, mode)` cell with the given observability. Its
    /// digest covers the controller state, the score and the outcome, so
    /// the harness's on/off gate holds all three. Gates zero probe drops
    /// at the bottleneck and, observed, a surviving exemplar.
    fn run(
        &self,
        s: &&'static Scenario,
        &mode: &MeasuredMode,
        observability: bool,
    ) -> Result<CellRun<Self::Out>, String> {
        let (state, run) = run_cell(s, mode, observability);
        let m = &run.measure;
        ensure!(
            m.probes_dropped == 0,
            "{} probes were dropped at the bottleneck",
            m.probes_dropped
        );
        ensure!(
            !observability || m.trains == 0 || m.exemplars >= 1,
            "no exemplar survived on the estimate histogram"
        );
        let mut crc = Crc32c::new();
        crc.update(&state.to_le_bytes());
        crc.update(&run.score.to_bits().to_le_bytes());
        crc.update(format!("{:?}", run.outcome).as_bytes());
        Ok(CellRun {
            digest: crc.finish(),
            text: m.families.expose(),
            drops: m.span_dropped,
            out: (state, run),
        })
    }

    fn finish(&self, _: &Ctx, runs: Runs<Self>) -> Result<Finished<MeasureReport>, GateError> {
        let mut out = String::new();
        let mut rows = Vec::new();
        let mut exposition = String::new();
        for r in &runs {
            let (row, estimated) = scenario_row(r);
            out.push_str(&format!(
                "[{:<18}] err raw {:.2}% smooth {:.2}% of {CAPACITY_GBPS} G | \
                 regret fixed {:+.1} est {:+.1} | up {} down {} | \
                 {} trains / {} probes | digest crc 0x{:08x}\n",
                row.name,
                row.mean_raw_error_pct,
                row.mean_smooth_error_pct,
                row.regret_fixed,
                row.regret_estimated,
                row.upgrades,
                row.downgrades,
                row.trains,
                row.probes_sent,
                row.digest_crc,
            ));
            if rows.is_empty() {
                // The golden: the stationary scenario's estimated-mode
                // metric families (estimate and error histograms with
                // exemplars, probe counters, sampler gauges).
                exposition = format!(
                    "# measurement plane: stationary shared path, estimated mode\n{estimated}"
                );
            }
            rows.push(row);
        }
        // The paper's pitch in one line: sizing from the estimate must
        // beat sizing blind where estimation is exact.
        let stationary = rows
            .iter()
            .find(|r| r.name == "stationary")
            .expect("every sweep contains the stationary scenario");
        if stationary.regret_estimated >= stationary.regret_fixed {
            let detail = format!(
                "estimation-aware BoD lost to fixed sizing on regret: {:+.2} vs {:+.2}",
                stationary.regret_estimated, stationary.regret_fixed
            );
            return Err(GateError::new(Self::NAME, "stationary", detail));
        }
        out.push_str(&format!("probe drops: 0 across {} scenarios\n", rows.len()));
        let report = MeasureReport {
            capacity_gbps: CAPACITY_GBPS as f64,
            horizon_hours: HORIZON_HOURS,
            tick_secs: TICK_SECS,
            scenarios: rows,
        };
        Ok(Finished {
            report,
            summary: out,
            files: vec![(EXPOSITION_FILE, exposition.clone())],
            goldens: vec![("measure_exposition.txt", exposition)],
        })
    }
}

/// The exposition file written beside `BENCH_measure.json`.
const EXPOSITION_FILE: &str = "measure_exposition.txt";

/// Fold a scenario's mode runs into a report row; returns the row and
/// the estimated run's exposition.
fn scenario_row(
    r: &PointRun<&'static Scenario, MeasuredMode, (u32, MeasuredRun)>,
) -> (ScenarioRow, String) {
    let s = r.point;
    let mut crc = Crc32c::new();
    for off in &r.reference {
        crc.update(&off.out.0.to_le_bytes());
    }
    let digest_crc = crc.finish();
    let run_of = |m: MeasuredMode| {
        let i = MODES.iter().position(|&x| x == m).expect("every mode runs");
        &r.main[i].out.1
    };
    let est = run_of(MeasuredMode::Estimated);
    let score_of = |m: MeasuredMode| run_of(m).score;
    // |estimate − true| per train, Gbps.
    let dev = |f: fn(&AbSample) -> f64| {
        est.measure
            .samples
            .iter()
            .map(move |p| (f(p) - p.true_gbps).abs())
    };
    let (n, cap) = (
        est.measure.samples.len().max(1) as f64,
        CAPACITY_GBPS as f64,
    );
    let (fixed, estimated, oracle) = (
        score_of(MeasuredMode::Fixed),
        score_of(MeasuredMode::Estimated),
        score_of(MeasuredMode::Oracle),
    );
    let row = ScenarioRow {
        name: s.name.to_string(),
        noise_ns: s.noise_ns,
        trains: est.measure.trains,
        probes_sent: est.measure.probes_sent,
        probes_dropped: est.measure.probes_dropped,
        mean_raw_error_pct: dev(|p| p.raw_gbps).sum::<f64>() / n / cap * 100.0,
        mean_smooth_error_pct: dev(|p| p.smooth_gbps).sum::<f64>() / n / cap * 100.0,
        max_smooth_error_pct: dev(|p| p.smooth_gbps)
            .map(|e| e / cap * 100.0)
            .fold(0.0f64, f64::max),
        score_fixed: fixed,
        score_estimated: estimated,
        score_oracle: oracle,
        regret_fixed: fixed - oracle,
        regret_estimated: estimated - oracle,
        upgrades: est.upgrades,
        downgrades: est.downgrades,
        under_delivery_ticks: est.under_delivery_ticks,
        exemplars: est.measure.exemplars,
        digest_crc,
    };
    (row, est.measure.families.expose())
}
