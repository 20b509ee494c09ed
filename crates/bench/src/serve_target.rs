//! `repro serve` — the northbound service plane under million-tenant
//! load (`BENCH_serve.json`).
//!
//! Sweeps fleet size × offered-load multiplier (10k → 100k → 1M tenants
//! by default, `SCALE_SWEEP=reduced` drops the 1M row for CI; 0.5× →
//! 1× → 4× the service capacity at every size), driving each grid cell
//! through the full [`northbound::ApiServer`] edge pipeline: token
//! authentication, per-tenant token buckets, bounded per-tier admission
//! queues with typed 429/503 rejections, hierarchical quota charging,
//! and priority drains batched into `Controller::journal_batch` with a
//! WAL attached — the durability boundary at the API edge.
//!
//! Each grid cell is a [`crate::harness`] cell. Three
//! properties are gated at every one:
//!
//! - **server-on/off digest identity** — replaying the admitted-intent
//!   stream against a bare controller yields a byte-identical
//!   `state_digest_crc`: the service plane leaves zero residue in
//!   controller state.
//! - **zero telemetry drops** — span recorder and controller trace ring
//!   never silently saturate, even at 1M × 4×.
//! - **bounded queues** — per-tier high-water marks never exceed the
//!   configured capacities; overload sheds with 503s instead of
//!   growing memory.
//!
//! A fairness pair (the 100k × 1× cell and one more cell with an abuser
//! overlay) gates the
//! limiter isolates an abusive flooder without collateral damage: the
//! well-behaved fleet keeps ≥ 97% of its admissions and the abuser is
//! almost entirely rate-limited.
//!
//! All latencies in the report are **sim time** (arrival → hand-off),
//! so the reduced grid plus the fairness pair is a pure function of the
//! embedded config, golden-filed as `tests/golden/serve_bench.json`;
//! only the `host_intents_per_sec` column is host wall clock.

use griphon::WalConfig;
use northbound::{
    build_testbed, generate_fleet, replay_admitted, AbuserConfig, ApiServer, FleetConfig,
    ServeOutcome, ServerConfig, TenantDirectory,
};
use serde::Serialize;
use simcore::metrics::LatencyRecorder;

use crate::harness::{
    self, ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, Runs, Sweep,
};

/// Fleet sizes of the default sweep.
const FULL_FLEETS: &[u64] = &[10_000, 100_000, 1_000_000];
/// The `SCALE_SWEEP=reduced` fleet sizes CI runs on every push (also
/// the golden grid).
const REDUCED_FLEETS: &[u64] = &[10_000, 100_000];
/// Offered-load multipliers over the drain capacity.
const LOADS: &[f64] = &[0.5, 1.0, 4.0];
/// Aggregate arrival rate at 1× load, requests/sec. The default server
/// drains 10 intents per 100 ms tick, so 1× saturates the hand-off
/// path exactly and 4× forces sustained shedding.
const BASE_RATE_PER_SEC: f64 = 100.0;
/// Plant size the server fronts (the paper testbed scale — the service
/// plane's scaling axis is tenants, not ROADMs; `repro scale` owns the
/// plant axis).
const ROADMS: usize = 14;
/// The fairness scenario: 100k tenants at 1×, with a free-tier tenant
/// flooding at half the aggregate base rate.
const FAIRNESS_FLEET: u64 = 100_000;
const ABUSER_TENANT: u64 = 4_242;
const ABUSER_RATE_PER_SEC: f64 = 50.0;
/// Well-behaved admissions retained with the abuser active, as a
/// fraction of the abuser-off run.
const MIN_FAIRNESS_RETENTION: f64 = 0.97;

fn cell_seed(tenants: u64, load: f64) -> u64 {
    0x5E12_7E00u64 ^ tenants.rotate_left(17) ^ (load * 16.0) as u64
}

fn fleet_config(tenants: u64, load: f64) -> FleetConfig {
    FleetConfig {
        tenants,
        seed: cell_seed(tenants, load),
        base_rate_per_sec: BASE_RATE_PER_SEC * load,
        ..FleetConfig::default()
    }
}

/// Sim-time latency percentiles for one tier, nanoseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TierLatency {
    /// Median admission latency.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

/// Per-tier counters of one grid cell, drain-priority order
/// (premium, standard, free).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TierRow {
    /// Tier label.
    pub tier: &'static str,
    /// Authenticated requests offered to this tier.
    pub offered: u64,
    /// Intents handed off to the controller.
    pub admitted: u64,
    /// 429s (token bucket).
    pub rate_limited: u64,
    /// 403s (quota).
    pub quota_exhausted: u64,
    /// 503s (queue full).
    pub shed: u64,
    /// Still queued at the horizon.
    pub queued_at_horizon: u64,
    /// Shed fraction of offered.
    pub shed_rate: f64,
    /// Deepest the tier queue ever got.
    pub queue_high_water: usize,
    /// Admission latency percentiles (zeros when nothing was admitted).
    pub latency: TierLatency,
}

/// One cell of the fleet × load grid.
#[derive(Debug, Clone, Serialize)]
pub struct ServePoint {
    /// Fleet size.
    pub tenants: u64,
    /// Offered-load multiplier.
    pub load: f64,
    /// Requests offered to the server.
    pub offered: u64,
    /// 401s (forged tokens).
    pub unauthorized: u64,
    /// Intents handed off across tiers.
    pub admitted: u64,
    /// Sustained admission rate in sim time, intents/sec.
    pub sim_intents_per_sec: f64,
    /// Per-tier breakdown.
    pub tiers: [TierRow; 3],
    /// Queue-depth samples: `(sim ns, [premium, standard, free])`.
    pub queue_depth_series: Vec<(u64, [usize; 3])>,
    /// Tenants that actually touched the quota ledger.
    pub active_tenants: usize,
    /// `api.admit` roots seen by the tail sampler.
    pub sampler_roots_seen: u64,
    /// Roots retained by the sampler.
    pub sampler_roots_kept: u64,
    /// Exemplars linked across the latency histograms (every one
    /// asserted to resolve to a retained trace).
    pub exemplars: usize,
    /// Controller `state_digest_crc` of the server-on run.
    pub server_on_digest_crc: u32,
    /// Digest of the replayed admitted-intent stream (always equal —
    /// divergence aborts the run).
    pub replay_digest_crc: u32,
    /// Telemetry drops across both runs (must be 0).
    pub telemetry_dropped: u64,
}

/// The fairness pair: same cell with and without the abuser overlay.
#[derive(Debug, Clone, Serialize)]
pub struct FairnessReport {
    /// Fleet size of the scenario.
    pub tenants: u64,
    /// The flooding tenant.
    pub abuser_tenant: u64,
    /// Flood rate, requests/sec.
    pub abuser_rate_per_sec: f64,
    /// Requests the abuser offered.
    pub abuser_offered: u64,
    /// Of those, how many were admitted (the limiter's leakage).
    pub abuser_admitted: u64,
    /// How many were rate-limited at the bucket.
    pub abuser_rate_limited: u64,
    /// Well-behaved admissions with the abuser active.
    pub well_admitted_with_abuser: u64,
    /// Well-behaved admissions in the abuser-off run.
    pub well_admitted_without_abuser: u64,
    /// `with / without` (the fairness gate holds it ≥ 0.97).
    pub retention: f64,
}

/// The golden-filed document: the reduced grid plus the fairness pair,
/// all sim time — a pure function of the embedded config.
#[derive(Debug, Clone, Serialize)]
pub struct ServeGolden {
    /// One cell per reduced-grid point.
    pub points: Vec<ServePoint>,
    /// The abuser-isolation scenario.
    pub fairness: FairnessReport,
}

/// The `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// One cell per grid point.
    pub points: Vec<ServePoint>,
    /// Host-wall-clock submit throughput per point, intents offered/sec
    /// (the only non-deterministic column, kept out of the golden).
    pub host_intents_per_sec: Vec<f64>,
    /// The abuser-isolation scenario.
    pub fairness: FairnessReport,
}

/// One cell: fleet size, offered-load multiplier, abuser overlay on.
type ServeCell = (u64, f64, bool);

/// What a cell hands to the report beside its grid row.
pub struct ServeOut {
    point: ServePoint,
    host_secs: f64,
    /// Admissions of tenants other than the abuser.
    well_admitted: u64,
}

/// Run one cell end to end: generate the fleet, run the server (WAL
/// attached), replay the admitted stream on a bare controller, and gate
/// the edge's invariants. Pure function of the cell but for `host_secs`.
fn run_cell(&(tenants, load, abuser): &ServeCell) -> Result<CellRun<ServeOut>, String> {
    let t0 = std::time::Instant::now();
    let mut cfg = fleet_config(tenants, load);
    cfg.abuser = abuser.then_some(AbuserConfig {
        tenant: ABUSER_TENANT,
        rate_per_sec: ABUSER_RATE_PER_SEC,
    });
    let dir = TenantDirectory::new(cfg.tenants, cfg.seed);
    let requests = generate_fleet(&cfg, &dir);
    let mut bed = build_testbed(ROADMS, cfg.pairs, cfg.seed);
    // The WAL is attached on the server-on run so every drain batch is
    // one real group commit; the journal is not part of the digest, so
    // identity with the bare replay still must hold.
    bed.ctl.enable_journal(WalConfig::default());
    let mut server = ApiServer::new(bed, dir, ServerConfig::default());
    server.run(&requests, cfg.horizon);
    let outcome = server.finish();
    ensure!(
        outcome.offered == requests.len() as u64,
        "request accounting leak: {} offered of {} requests",
        outcome.offered,
        requests.len()
    );
    ensure!(
        outcome.controller_refusals == 0,
        "the edge admitted {} intents the controller refused",
        outcome.controller_refusals
    );
    let replay = replay_admitted(
        build_testbed(ROADMS, cfg.pairs, cfg.seed),
        &outcome.admitted,
        cfg.horizon,
    );
    ensure!(
        outcome.digest_crc == replay,
        "server-on vs replay digests differ: {:#010x} vs {replay:#010x}",
        outcome.digest_crc
    );
    let caps = ServerConfig::default().queue_capacity;
    for (hw, cap) in outcome.queue_high_water.iter().zip(caps) {
        ensure!(*hw <= cap, "queue high water {hw} exceeded capacity {cap}");
    }
    let well_admitted = outcome.admitted.iter().filter(|a| !a.abusive).count() as u64;
    let point = build_point(tenants, load, &outcome, replay);
    Ok(CellRun {
        digest: outcome.digest_crc,
        text: harness::json(&point),
        drops: outcome.span_dropped + outcome.trace_dropped,
        out: ServeOut {
            point,
            host_secs: t0.elapsed().as_secs_f64(),
            well_admitted,
        },
    })
}

fn tier_latency(samples: &[u64]) -> TierLatency {
    let mut rec = LatencyRecorder::new();
    for &ns in samples {
        rec.record_ns(ns);
    }
    TierLatency {
        p50_ns: rec.p50_ns(),
        p95_ns: rec.p95_ns(),
        p99_ns: rec.p99_ns(),
    }
}

fn build_point(tenants: u64, load: f64, outcome: &ServeOutcome, off_digest: u32) -> ServePoint {
    let labels = ["premium", "standard", "free"];
    let tiers: [TierRow; 3] = std::array::from_fn(|i| {
        let offered = outcome.admitted_per_tier[i]
            + outcome.rate_limited_per_tier[i]
            + outcome.quota_per_tier[i]
            + outcome.shed_per_tier[i]
            + outcome.final_depth[i] as u64;
        TierRow {
            tier: labels[i],
            offered,
            admitted: outcome.admitted_per_tier[i],
            rate_limited: outcome.rate_limited_per_tier[i],
            quota_exhausted: outcome.quota_per_tier[i],
            shed: outcome.shed_per_tier[i],
            queued_at_horizon: outcome.final_depth[i] as u64,
            shed_rate: if offered == 0 {
                0.0
            } else {
                outcome.shed_per_tier[i] as f64 / offered as f64
            },
            queue_high_water: outcome.queue_high_water[i],
            latency: tier_latency(&outcome.latencies_ns[i]),
        }
    });
    let admitted: u64 = outcome.admitted_per_tier.iter().sum();
    let horizon_secs = FleetConfig::default().horizon.as_secs_f64();
    ServePoint {
        tenants,
        load,
        offered: outcome.offered,
        unauthorized: outcome.unauthorized,
        admitted,
        sim_intents_per_sec: admitted as f64 / horizon_secs,
        tiers,
        queue_depth_series: outcome
            .depth_series
            .iter()
            .map(|(t, d)| (t.as_nanos(), *d))
            .collect(),
        active_tenants: outcome.active_tenants,
        sampler_roots_seen: outcome.sampler.roots_seen,
        sampler_roots_kept: outcome.sampler.roots_kept,
        exemplars: outcome.exemplars,
        server_on_digest_crc: outcome.digest_crc,
        replay_digest_crc: off_digest,
        telemetry_dropped: 0,
    }
}

fn point_summary(p: &ServePoint) -> String {
    format!(
        "[{:>9} tenants x {:>3}x] offered {:>5} admitted {:>4} | p99 prem/std/free {} / {} / {} ms | \
         shed {:>4} | queue hw {}/{}/{} | digest crc 0x{:08x}\n",
        p.tenants,
        p.load,
        p.offered,
        p.admitted,
        p.tiers[0].latency.p99_ns / 1_000_000,
        p.tiers[1].latency.p99_ns / 1_000_000,
        p.tiers[2].latency.p99_ns / 1_000_000,
        p.tiers.iter().map(|t| t.shed).sum::<u64>(),
        p.tiers[0].queue_high_water,
        p.tiers[1].queue_high_water,
        p.tiers[2].queue_high_water,
        p.server_on_digest_crc,
    )
}

/// The fairness pair — the 100k × 1× grid cell and the same cell with
/// the abuser — and its gate.
fn fairness(without: &ServeOut, with: &ServeOut) -> Result<FairnessReport, String> {
    // The abuser is free-tier: everything it gets past its own token
    // bucket is a leak bounded by burst + refill over the horizon.
    let retention = with.well_admitted as f64 / without.well_admitted.max(1) as f64;
    ensure!(
        retention >= MIN_FAIRNESS_RETENTION,
        "abuser caused collateral damage: well-behaved admissions fell to \
             {retention:.3} of the abuser-off run (floor {MIN_FAIRNESS_RETENTION})"
    );
    let abusive_admitted = with.point.admitted - with.well_admitted;
    ensure!(
        abusive_admitted <= 16,
        "the limiter leaked {abusive_admitted} abusive admissions"
    );
    Ok(FairnessReport {
        tenants: FAIRNESS_FLEET,
        abuser_tenant: ABUSER_TENANT,
        abuser_rate_per_sec: ABUSER_RATE_PER_SEC,
        abuser_offered: (ABUSER_RATE_PER_SEC * FleetConfig::default().horizon.as_secs_f64()) as u64,
        abuser_admitted: abusive_admitted,
        abuser_rate_limited: with.point.tiers[2]
            .rate_limited
            .saturating_sub(without.point.tiers[2].rate_limited),
        well_admitted_with_abuser: with.well_admitted,
        well_admitted_without_abuser: without.well_admitted,
        retention,
    })
}

/// `repro serve`: one point, the fleet × load grid plus the abuser
/// cell; no observer — the server-on vs replay identity is a cell gate.
pub struct Serve;

impl Experiment for Serve {
    const NAME: &'static str = "serve";
    const BENCHMARK: &'static str = "serve_sweep";
    const IDENTITY: Identity = Identity::Threads;
    const SWEEPS: bool = true;
    type Point = Vec<ServeCell>;
    type Cell = ServeCell;
    type Out = ServeOut;
    type Report = ServeReport;

    fn points(&self, sweep: Sweep) -> Vec<Vec<ServeCell>> {
        let fleets = match sweep {
            Sweep::Full => FULL_FLEETS,
            Sweep::Reduced => REDUCED_FLEETS,
        };
        let mut cells: Vec<ServeCell> = fleets
            .iter()
            .flat_map(|&t| LOADS.iter().map(move |&l| (t, l, false)))
            .collect();
        cells.push((FAIRNESS_FLEET, 1.0, true));
        vec![cells]
    }

    fn probe(&self) -> Vec<ServeCell> {
        vec![(10_000, 0.5, false), (10_000, 4.0, false)]
    }

    fn cells(&self, point: &Vec<ServeCell>) -> Vec<ServeCell> {
        point.clone()
    }

    fn label(&self, _: &Vec<ServeCell>, &(tenants, load, abuser): &ServeCell) -> String {
        let overlay = if abuser { " + abuser" } else { "" };
        format!("{tenants} tenants x {load}{overlay}")
    }

    fn run(
        &self,
        _: &Vec<ServeCell>,
        cell: &ServeCell,
        _: bool,
    ) -> Result<CellRun<ServeOut>, String> {
        run_cell(cell)
    }

    fn finish(&self, _: &Ctx, runs: Runs<Self>) -> Result<Finished<ServeReport>, GateError> {
        // The abuser cell runs last (`points`); its baseline is the grid's
        // fairness-fleet cell at 1x.
        let run = runs.into_iter().next().expect("one point");
        let baseline = run
            .cells
            .iter()
            .position(|c| *c == (FAIRNESS_FLEET, 1.0, false));
        let mut grid: Vec<ServeOut> = run.main.into_iter().map(|c| c.out).collect();
        let abuser = grid.pop().expect("the grid carries the abuser cell");
        let baseline = baseline.expect("the grid carries the fairness fleet at 1x");
        let fairness = fairness(&grid[baseline], &abuser)
            .map_err(|e| GateError::new(Self::NAME, "fairness pair", e))?;
        let mut out: String = grid.iter().map(|o| point_summary(&o.point)).collect();
        out.push_str(&format!(
            "fairness [{} tenants, abuser {}@{}r/s]: well-behaved retained {:.1}% \
             (floor {:.0}%), abuser admitted {} of {} offered\n",
            fairness.tenants,
            fairness.abuser_tenant,
            fairness.abuser_rate_per_sec,
            fairness.retention * 100.0,
            MIN_FAIRNESS_RETENTION * 100.0,
            fairness.abuser_admitted,
            fairness.abuser_offered,
        ));
        let host_intents_per_sec = grid
            .iter()
            .map(|o| o.point.offered as f64 / o.host_secs.max(1e-9))
            .collect();
        let points: Vec<ServePoint> = grid.into_iter().map(|o| o.point).collect();
        let golden = ServeGolden {
            points: points.clone(),
            fairness: fairness.clone(),
        };
        let report = ServeReport {
            points,
            host_intents_per_sec,
            fairness,
        };
        Ok(Finished {
            report,
            summary: out,
            files: Vec::new(),
            goldens: vec![("serve_bench.json", harness::json(&golden) + "\n")],
        })
    }
}
