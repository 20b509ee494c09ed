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
//! Three properties are asserted unconditionally at every cell, and
//! printed as the lines CI greps:
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
//! A separate fairness pair (100k × 1×, abuser on vs off) asserts the
//! limiter isolates an abusive flooder without collateral damage: the
//! well-behaved fleet keeps ≥ 97% of its admissions and the abuser is
//! almost entirely rate-limited.
//!
//! All latencies in the report are **sim time** (arrival → hand-off),
//! so `build()` is a pure function of the embedded config and is
//! golden-filed by `tests/serve_golden.rs`; only the intents/sec column
//! in the summary text is host wall clock.

use griphon::WalConfig;
use northbound::{
    build_testbed, generate_fleet, replay_admitted, AbuserConfig, ApiServer, FleetConfig,
    ServeOutcome, ServerConfig, TenantDirectory,
};
use serde::Serialize;
use simcore::metrics::LatencyRecorder;

use crate::experiments::{parallel_cells_with, repro_threads};

/// Fleet sizes of the default sweep.
const FULL_FLEETS: &[u64] = &[10_000, 100_000, 1_000_000];
/// The `SCALE_SWEEP=reduced` fleet sizes CI runs on every push (also
/// the golden grid — `build()` always uses this one).
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
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report identifier.
    pub benchmark: String,
    /// Sweep profile (`full` or `reduced`).
    pub sweep: String,
    /// Worker threads the grid was fanned across.
    pub threads: usize,
    /// One cell per grid point.
    pub points: Vec<ServePoint>,
    /// Host-wall-clock submit throughput per point, intents offered/sec
    /// (the only non-deterministic column, kept out of the golden).
    pub host_intents_per_sec: Vec<f64>,
    /// The abuser-isolation scenario.
    pub fairness: FairnessReport,
}

/// Run one grid cell end to end: generate the fleet, run the server
/// (WAL attached), replay the admitted stream, and assert the
/// invariants. Pure function of `(tenants, load, abuser)`.
fn run_cell(tenants: u64, load: f64, abuser: Option<AbuserConfig>) -> ServeOutcome {
    let mut cfg = fleet_config(tenants, load);
    cfg.abuser = abuser;
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
    assert_eq!(
        outcome.offered,
        requests.len() as u64,
        "request accounting leak at {tenants}×{load}"
    );
    assert_eq!(
        outcome.controller_refusals, 0,
        "the edge admitted an intent the controller refused at {tenants}×{load}"
    );
    outcome
}

/// Replay `outcome`'s admitted stream on a bare testbed and return the
/// server-off digest.
fn replay_digest(tenants: u64, load: f64, outcome: &ServeOutcome) -> u32 {
    let cfg = fleet_config(tenants, load);
    let bed = build_testbed(ROADMS, cfg.pairs, cfg.seed);
    replay_admitted(bed, &outcome.admitted, cfg.horizon)
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
    assert_eq!(
        outcome.digest_crc, off_digest,
        "server-on vs replay digests diverged at {tenants} tenants × {load}x"
    );
    let dropped = outcome.span_dropped + outcome.trace_dropped;
    assert_eq!(
        dropped, 0,
        "telemetry silently saturated at {tenants} tenants × {load}x"
    );
    let caps = ServerConfig::default().queue_capacity;
    for (hw, cap) in outcome.queue_high_water.iter().zip(caps) {
        assert!(
            *hw <= cap,
            "queue high water {hw} exceeded capacity {cap} at {tenants}×{load}"
        );
    }
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
        telemetry_dropped: dropped,
    }
}

fn run_point(tenants: u64, load: f64) -> ServePoint {
    let outcome = run_cell(tenants, load, None);
    let off = replay_digest(tenants, load, &outcome);
    build_point(tenants, load, &outcome, off)
}

fn point_summary(p: &ServePoint) -> String {
    format!
        ("[{:>9} tenants x {:>3}x] offered {:>5} admitted {:>4} | p99 prem/std/free {} / {} / {} ms | \
         shed {:>4} | queues bounded (hw {}/{}/{}) | telemetry drops: 0 | \
         server-on vs replay digests: identical (crc 0x{:08x})\n",
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

/// Run the fairness pair and gate abuser isolation.
fn run_fairness() -> FairnessReport {
    let abuser = AbuserConfig {
        tenant: ABUSER_TENANT,
        rate_per_sec: ABUSER_RATE_PER_SEC,
    };
    let load = 1.0;
    let without = run_cell(FAIRNESS_FLEET, load, None);
    let with = run_cell(FAIRNESS_FLEET, load, Some(abuser));

    let well = |o: &ServeOutcome| o.admitted.iter().filter(|a| !a.abusive).count() as u64;
    let well_with = well(&with);
    let well_without = well(&without);
    let abuser_admitted = with.admitted.len() as u64 - well_with;
    // The abuser is free-tier: everything it gets past its own token
    // bucket is a leak bounded by burst + refill over the horizon.
    let retention = well_with as f64 / well_without.max(1) as f64;
    assert!(
        retention >= MIN_FAIRNESS_RETENTION,
        "abuser caused collateral damage: well-behaved admissions fell to \
         {retention:.3} of the abuser-off run (floor {MIN_FAIRNESS_RETENTION})"
    );
    let abuser_offered =
        (ABUSER_RATE_PER_SEC * FleetConfig::default().horizon.as_secs_f64()) as u64;
    assert!(
        abuser_admitted <= 16,
        "the limiter leaked {abuser_admitted} abusive admissions"
    );
    FairnessReport {
        tenants: FAIRNESS_FLEET,
        abuser_tenant: ABUSER_TENANT,
        abuser_rate_per_sec: ABUSER_RATE_PER_SEC,
        abuser_offered,
        abuser_admitted,
        abuser_rate_limited: with.rate_limited_per_tier[2]
            .saturating_sub(without.rate_limited_per_tier[2]),
        well_admitted_with_abuser: well_with,
        well_admitted_without_abuser: well_without,
        retention,
    }
}

/// Server-on digests for a small grid driven with `threads` workers —
/// the hook `tests/determinism.rs` uses to assert digest identity
/// across `REPRO_THREADS` ∈ {1, 2, 8}.
pub fn serve_fingerprint(threads: usize) -> Vec<u32> {
    let grid: Vec<(u64, f64)> = vec![(10_000, 0.5), (10_000, 4.0)];
    parallel_cells_with(threads, grid, |(tenants, load)| {
        run_cell(tenants, load, None).digest_crc
    })
}

/// Recompute the golden document from scratch — always the reduced
/// grid, independent of `SCALE_SWEEP`; `tests/serve_golden.rs` compares
/// it against `tests/golden/serve_bench.json`.
pub fn build() -> ServeGolden {
    let grid: Vec<(u64, f64)> = REDUCED_FLEETS
        .iter()
        .flat_map(|&t| LOADS.iter().map(move |&l| (t, l)))
        .collect();
    let points = parallel_cells_with(repro_threads(), grid, |(t, l)| run_point(t, l));
    ServeGolden {
        points,
        fairness: run_fairness(),
    }
}

/// Run the sweep, write `BENCH_serve.json`, and return the summary text.
pub fn emit(path: &str) -> String {
    let reduced = std::env::var("SCALE_SWEEP").as_deref() == Ok("reduced");
    let fleets = if reduced { REDUCED_FLEETS } else { FULL_FLEETS };
    let threads = repro_threads();
    let grid: Vec<(u64, f64)> = fleets
        .iter()
        .flat_map(|&t| LOADS.iter().map(move |&l| (t, l)))
        .collect();
    let timed = parallel_cells_with(threads, grid, |(t, l)| {
        let t0 = std::time::Instant::now();
        let point = run_point(t, l);
        (point, t0.elapsed().as_secs_f64())
    });
    let mut out = String::new();
    let mut points = Vec::with_capacity(timed.len());
    let mut host = Vec::with_capacity(timed.len());
    for (point, secs) in timed {
        out.push_str(&point_summary(&point));
        host.push(point.offered as f64 / secs.max(1e-9));
        points.push(point);
    }
    let fairness = run_fairness();
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

    let report = ServeReport {
        header: crate::BenchHeader::new("serve", if reduced { "reduced" } else { "full" }),
        benchmark: "serve_sweep".into(),
        sweep: if reduced { "reduced" } else { "full" }.into(),
        threads,
        points,
        host_intents_per_sec: host,
        fairness,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    format!("wrote {path}\n{out}")
}
