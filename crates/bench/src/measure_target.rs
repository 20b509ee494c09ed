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
//! loop), `Oracle` (perfect knowledge, the regret reference) — twice:
//! observability off, then on. Per `(scenario, mode)` the controller
//! `state_digest_crc()` must be byte-identical on/off (measurement is
//! pure observation), every estimate histogram's exemplars must resolve
//! into the tail sampler's retained probe traces (asserted inside
//! `Prober::finish`), the bounded span recorder must never drop, and no
//! probe may be lost at the bottleneck — the CI grep gates pin all
//! three. In the stationary scenario the estimation-aware plan must
//! beat the fixed-size plan on regret.
//!
//! `SCALE_SWEEP=reduced` runs the three-scenario CI subset; the
//! scenario definitions themselves never change with the sweep, so the
//! golden exposition (`tests/golden/measure_exposition.txt`) is a pure
//! function of the seeds.

use cloud::{BulkJob, DataCenterId, JobId, MeasuredBodPolicy, MeasuredMode, MeasuredRun};
use griphon::controller::{Controller, ControllerConfig};
use griphon::{CrossTraffic, ProbeConfig, ProbePath};
use photonic::{EmsProfile, EqualizationModel, PhotonicNetwork};
use serde::Serialize;
use simcore::{Crc32c, DataRate, DataSize, SimDuration, SimTime};

use crate::experiments::{parallel_cells_with, repro_threads};

/// Shared-path bottleneck capacity.
const CAPACITY_GBPS: u64 = 40;
/// Policy horizon. Fixed across sweeps so the golden bytes never move.
const HORIZON_HOURS: u64 = 8;
/// Decision-tick granularity.
const TICK_SECS: u64 = 60;
/// Receive-timestamp noise σ for the standard scenarios (ns).
const NOISE_NS: f64 = 200.0;

/// One cross-traffic regime the sweep drives.
struct Scenario {
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
/// the test hooks, identical for the on and off runs of a cell.
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
/// the per-cell identity assert.
fn run_cell(s: &Scenario, mode: MeasuredMode, observability: bool) -> (u32, MeasuredRun) {
    let seed = point_seed(s.name);
    let horizon = SimDuration::from_hours(HORIZON_HOURS);
    let (net, ids) = PhotonicNetwork::testbed(8);
    let mut ctl = Controller::new(
        net,
        ControllerConfig {
            seed,
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
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
    /// CRC-32C over the scenario's per-cell digests (identical
    /// on/off — asserted).
    pub digest_crc: u32,
}

/// The `BENCH_measure.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct MeasureReport {
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report identifier.
    pub benchmark: String,
    /// Sweep profile (`full` or `reduced`).
    pub sweep: String,
    /// Worker threads used for the cell fan-out.
    pub threads: usize,
    /// Shared-path capacity (Gbps).
    pub capacity_gbps: f64,
    /// Policy horizon (hours).
    pub horizon_hours: u64,
    /// Decision-tick granularity (seconds).
    pub tick_secs: u64,
    /// One row per cross-traffic regime.
    pub scenarios: Vec<ScenarioRow>,
}

/// All six cells of one scenario, run in the given order:
/// `(mode, observability)` for every mode, off first.
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

/// Run a scenario's full mode × observability grid and fold it into a
/// report row, asserting the per-cell on/off digest identity, the zero
/// probe-drop gate, and the recorder's no-drop invariant.
fn run_scenario(s: &Scenario, threads: usize, out: &mut String) -> (ScenarioRow, String) {
    let grid: Vec<(MeasuredMode, bool)> = MODES
        .iter()
        .flat_map(|&m| [(m, false), (m, true)])
        .collect();
    let runs = parallel_cells_with(threads, grid, |(mode, obs)| run_cell(s, mode, obs));

    let mut crc = Crc32c::new();
    let mut by_mode: Vec<(&'static str, &MeasuredRun)> = Vec::new();
    for (pair, chunk) in MODES.iter().zip(runs.chunks(2)) {
        let (digest_off, off) = &chunk[0];
        let (digest_on, on) = &chunk[1];
        assert_eq!(
            digest_off,
            digest_on,
            "{}/{}: measurement observability changed controller state",
            s.name,
            mode_name(*pair)
        );
        assert_eq!(
            on.score.to_bits(),
            off.score.to_bits(),
            "{}/{}: observability changed the policy score",
            s.name,
            mode_name(*pair)
        );
        assert_eq!(on.outcome, off.outcome);
        assert_eq!(
            on.measure.span_dropped, 0,
            "{}: span recorder dropped",
            s.name
        );
        assert_eq!(
            on.measure.probes_dropped + off.measure.probes_dropped,
            0,
            "{}/{}: probes were dropped at the bottleneck",
            s.name,
            mode_name(*pair)
        );
        assert!(
            on.measure.trains == 0 || on.measure.exemplars >= 1,
            "{}/{}: no exemplar survived on the estimate histogram",
            s.name,
            mode_name(*pair)
        );
        crc.update(&digest_off.to_le_bytes());
        by_mode.push((mode_name(*pair), on));
    }
    let digest_crc = crc.finish();

    let est = by_mode
        .iter()
        .find(|(n, _)| *n == "estimated")
        .expect("grid contains the estimated mode")
        .1;
    let score_of = |name: &str| {
        by_mode
            .iter()
            .find(|(n, _)| *n == name)
            .expect("grid covers every mode")
            .1
            .score
    };
    let cap = CAPACITY_GBPS as f64;
    let n = est.measure.samples.len().max(1) as f64;
    let mean_raw = est
        .measure
        .samples
        .iter()
        .map(|p| (p.raw_gbps - p.true_gbps).abs())
        .sum::<f64>()
        / n
        / cap
        * 100.0;
    let mean_smooth = est
        .measure
        .samples
        .iter()
        .map(|p| (p.smooth_gbps - p.true_gbps).abs())
        .sum::<f64>()
        / n
        / cap
        * 100.0;
    let max_smooth = est
        .measure
        .samples
        .iter()
        .map(|p| (p.smooth_gbps - p.true_gbps).abs() / cap * 100.0)
        .fold(0.0f64, f64::max);

    let row = ScenarioRow {
        name: s.name.to_string(),
        noise_ns: s.noise_ns,
        trains: est.measure.trains,
        probes_sent: est.measure.probes_sent,
        probes_dropped: est.measure.probes_dropped,
        mean_raw_error_pct: mean_raw,
        mean_smooth_error_pct: mean_smooth,
        max_smooth_error_pct: max_smooth,
        score_fixed: score_of("fixed"),
        score_estimated: score_of("estimated"),
        score_oracle: score_of("oracle"),
        regret_fixed: score_of("fixed") - score_of("oracle"),
        regret_estimated: score_of("estimated") - score_of("oracle"),
        upgrades: est.upgrades,
        downgrades: est.downgrades,
        under_delivery_ticks: est.under_delivery_ticks,
        exemplars: est.measure.exemplars,
        digest_crc,
    };
    out.push_str(&format!(
        "[{:<18}] err raw {:.2}% smooth {:.2}% of {CAPACITY_GBPS} G | \
         regret fixed {:+.1} est {:+.1} | up {} down {} | \
         {} trains / {} probes | \
         measurement on/off digests: identical (crc 0x{:08x})\n",
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
    (row, est.measure.families.expose())
}

/// Per-cell digests for the stationary mode grid, observability on or
/// off — the on/off byte-identity hook for `tests/determinism.rs`.
pub fn measure_digests(threads: usize, observability: bool) -> Vec<u32> {
    let s = &FULL_SCENARIOS[0];
    let grid: Vec<MeasuredMode> = MODES.to_vec();
    parallel_cells_with(threads, grid, |mode| run_cell(s, mode, observability).0)
}

/// Per-cell digests plus the estimated run's exposition for the
/// stationary scenario — the thread-determinism hook: the pair must be
/// identical for any worker count.
pub fn measure_fingerprint(threads: usize) -> (Vec<u32>, String) {
    let s = &FULL_SCENARIOS[0];
    let grid: Vec<MeasuredMode> = MODES.to_vec();
    let runs = parallel_cells_with(threads, grid, |mode| run_cell(s, mode, true));
    let digests = runs.iter().map(|(d, _)| *d).collect();
    let exposition = runs
        .iter()
        .zip(MODES)
        .find(|(_, m)| matches!(m, MeasuredMode::Estimated))
        .expect("grid contains the estimated mode")
        .0
         .1
        .measure
        .families
        .expose();
    (digests, exposition)
}

/// The deterministic exposition the golden file pins: the stationary
/// scenario's estimated-mode metric families (estimate and error
/// histograms with exemplars, probe counters, sampler gauges). No wall
/// clock anywhere, so the bytes are a pure function of the seeds.
fn compose_exposition(stationary: &str) -> String {
    format!("# measurement plane: stationary shared path, estimated mode\n{stationary}")
}

/// Recompute the golden exposition from scratch — the hook
/// `tests/measure_golden.rs` compares against
/// `tests/golden/measure_exposition.txt`.
pub fn golden_exposition() -> String {
    let (_, run) = run_cell(&FULL_SCENARIOS[0], MeasuredMode::Estimated, true);
    compose_exposition(&run.measure.families.expose())
}

/// Run the sweep, write `BENCH_measure.json` and the exposition, and
/// return the summary text.
pub fn emit(bench_path: &str, exposition_path: &str) -> String {
    let reduced = std::env::var("SCALE_SWEEP").as_deref() == Ok("reduced");
    let sweep: Vec<&Scenario> = FULL_SCENARIOS
        .iter()
        .filter(|s| !reduced || REDUCED_NAMES.contains(&s.name))
        .collect();
    let threads = repro_threads();
    let mut out = String::new();
    let mut expositions = Vec::new();
    let rows: Vec<ScenarioRow> = sweep
        .iter()
        .map(|s| {
            let (row, exp) = run_scenario(s, threads, &mut out);
            expositions.push(exp);
            row
        })
        .collect();

    // The paper's pitch in one line: sizing from the estimate must beat
    // sizing blind where estimation is exact.
    let stationary = rows
        .iter()
        .find(|r| r.name == "stationary")
        .expect("every sweep contains the stationary scenario");
    assert!(
        stationary.regret_estimated < stationary.regret_fixed,
        "estimation-aware BoD lost to fixed sizing on regret: {:+.2} vs {:+.2}",
        stationary.regret_estimated,
        stationary.regret_fixed,
    );
    let dropped: u64 = rows.iter().map(|r| r.probes_dropped).sum();
    assert_eq!(dropped, 0, "the sweep dropped probes at the bottleneck");
    out.push_str(&format!(
        "probe drops: {dropped} across {} scenarios\n",
        rows.len()
    ));

    // The estimation pipeline must not care how cells are packed onto
    // workers: identical digests and exposition bytes for 1/2/8
    // threads on the stationary grid.
    let base = measure_fingerprint(1);
    for th in [2usize, 8] {
        assert_eq!(
            measure_fingerprint(th),
            base,
            "measurement plane diverged at {th} threads"
        );
    }
    out.push_str("measurement plane deterministic across 1/2/8 threads: identical\n");

    let exposition = compose_exposition(&expositions[0]);
    std::fs::write(exposition_path, &exposition).expect("write measure exposition");

    let report = MeasureReport {
        header: crate::BenchHeader::new("measure", if reduced { "reduced" } else { "full" }),
        benchmark: "measure".into(),
        sweep: if reduced { "reduced" } else { "full" }.into(),
        threads,
        capacity_gbps: CAPACITY_GBPS as f64,
        horizon_hours: HORIZON_HOURS,
        tick_secs: TICK_SECS,
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(bench_path, &json).expect("write BENCH_measure.json");
    format!("wrote {bench_path} + {exposition_path}\n{out}")
}
