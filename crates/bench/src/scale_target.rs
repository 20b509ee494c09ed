//! `repro scale` — the continental-scale sweep (`BENCH_scale.json`).
//!
//! Sweeps generated plants from paper scale to continental scale
//! (14 → 100 → 300 → 600 ROADMs; `SCALE_SWEEP=reduced` runs
//! 14 → 100 → 200 for CI). Each point is a [`crate::harness`]
//! point whose cells are its regions; the harness drives every point
//! twice through the same cells:
//!
//! - **unsharded** — all cells executed on one thread;
//! - **sharded** — the same cells fanned across `REPRO_THREADS` workers.
//!
//! Each cell owns a full controller over the shared plant (region map
//! installed, admission group-committed in waves through
//! `journal_batch`) and returns its `state_digest_crc()`, so the two
//! runs must produce **byte-identical digests for every cell** — the
//! harness's shard gate, at every sweep point.
//!
//! Per point the report records per-intent setup-latency p50/p95/p99
//! (host wall clock around `request_wavelength`, measured on the
//! unsharded run so core contention cannot skew percentiles),
//! intents/sec for both runs, route-cache hit/miss/eviction counters,
//! and the estimated memory footprint. The target's own gate holds p99
//! at the largest point within 10× the smallest point — the evidence that
//! region-restricted search, the u128 masks, the per-node equipment
//! indices and the bounded route cache keep the hot path sub-linear in
//! plant size.

use griphon::rwa::RegionMap;
use griphon::{Controller, ControllerConfig};
use photonic::{generate, GeneratedPlant, GeneratorConfig, LineRate, RoadmId};
use serde::Serialize;
use simcore::metrics::LatencyRecorder;
use simcore::{DataRate, SimRng};

use crate::harness::{
    CellRun, Ctx, Experiment, Finished, GateError, Identity, PointRun, Runs, Sweep,
};

/// The default sweep: paper scale to continental scale.
const FULL_SWEEP: &[usize] = &[14, 100, 300, 600];
/// The `SCALE_SWEEP=reduced` sweep CI runs on every push.
const REDUCED_SWEEP: &[usize] = &[14, 100, 200];

/// Hot endpoint pairs per workload cell. Carrier traffic is skewed —
/// most demand connects a few popular PoPs — and the repeat rate is what
/// exercises the route cache at every scale.
const HOT_PAIRS: usize = 8;
/// Admission waves per cell and intents per wave: 30 × 32 = 960 intents
/// per cell, so the ≤ `HOT_PAIRS` cold misses stay under the p99 index.
const WAVES: usize = 30;
const WAVE_INTENTS: usize = 32;

/// One sweep point of the scale report.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Plant size in ROADMs.
    pub roadms: usize,
    /// Fiber links in the plant.
    pub fibers: usize,
    /// Amplified spans in the plant.
    pub spans: usize,
    /// Channels per degree.
    pub channels: u16,
    /// Regions (== workload cells == backbone hubs).
    pub regions: usize,
    /// Intents admitted per run (all cells).
    pub intents: usize,
    /// Intents that were admitted and provisioned.
    pub accepted: usize,
    /// Per-intent setup latency, host ns (unsharded run).
    pub setup_p50_ns: u64,
    /// 95th percentile, host ns.
    pub setup_p95_ns: u64,
    /// 99th percentile, host ns.
    pub setup_p99_ns: u64,
    /// Intent throughput of the unsharded (1-thread) run.
    pub unsharded_intents_per_sec: f64,
    /// Intent throughput of the sharded run.
    pub sharded_intents_per_sec: f64,
    /// Worker threads used by the sharded run.
    pub shard_threads: usize,
    /// Route-cache hits summed over cells (unsharded run).
    pub cache_hits: u64,
    /// Route-cache misses summed over cells.
    pub cache_misses: u64,
    /// Route-cache evictions summed over cells.
    pub cache_evictions: u64,
    /// Cache hit rate in [0, 1].
    pub cache_hit_rate: f64,
    /// Live route-cache entries summed over cells at run end.
    pub cache_entries: usize,
    /// Route-cache capacity summed over cells.
    pub cache_capacity: usize,
    /// Trace-ring events dropped across cells (must be 0 — silent
    /// saturation fails the run).
    pub trace_dropped: u64,
    /// Spans dropped by the recorders across cells (must be 0).
    pub span_dropped: u64,
    /// Estimated controller heap footprint in bytes (one cell).
    pub memory_bytes: u64,
    /// CRC-32C over the concatenated per-cell digests.
    pub combined_digest_crc: u32,
    /// Sharded and unsharded per-cell digests were byte-identical
    /// (always true — divergence aborts the run).
    pub sharded_identical: bool,
}

/// The `BENCH_scale.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    /// One entry per plant size.
    pub points: Vec<ScalePoint>,
    /// p99(largest) / p99(smallest).
    pub p99_ratio_vs_smallest: f64,
    /// The gate the ratio must stay under.
    pub max_allowed_p99_ratio: f64,
}

/// One workload cell: a region's intent list, driven against the cell's
/// own controller over the (shared, cloned) plant.
pub struct Cell {
    pub(crate) region: usize,
    pub(crate) intents: Vec<(RoadmId, RoadmId)>,
}

/// What a cell run returns beside its digest: its latency samples and
/// the cache/footprint counters the report aggregates.
pub struct CellOutcome {
    latencies_ns: Vec<u64>,
    accepted: usize,
    cache: griphon::RouteCacheStats,
    memory_bytes: u64,
}

/// Deterministic per-region intent lists: `hot_pairs` endpoint pairs
/// (three quarters intra-region, the rest crossing to a deterministic
/// peer region), repeated to `intents` intents. `repro slo` drives the
/// same shape, lighter.
pub(crate) fn hot_pair_cells(
    plant: &GeneratedPlant,
    seed: u64,
    hot_pairs: usize,
    intents: usize,
) -> Vec<Cell> {
    let regions = plant.interior.len();
    (0..regions)
        .map(|r| {
            let mut rng = SimRng::new(seed).fork(r as u64 + 1);
            let mine = &plant.interior[r];
            let peer = &plant.interior[(r + 1) % regions];
            let mut pairs: Vec<(RoadmId, RoadmId)> = Vec::with_capacity(hot_pairs);
            for p in 0..hot_pairs {
                let a = *rng.choose(mine);
                let b = if p % 4 == 3 {
                    *rng.choose(peer)
                } else {
                    *rng.choose(mine)
                };
                if a == b {
                    // Degenerate draw on tiny regions: pair with the
                    // region gateway instead.
                    pairs.push((a, plant.gateways[r]));
                } else {
                    pairs.push((a, b));
                }
            }
            let intents = (0..intents).map(|i| pairs[i % hot_pairs]).collect();
            Cell { region: r, intents }
        })
        .collect()
}

/// Drive one region cell on a fresh controller over the plant (region
/// map installed, `tenant` registered, spans on when asked): admission
/// waves of `wave_intents` intents, each group-committed through
/// `journal_batch`, run, torn down and run again, with `after_wave`
/// called after every wave. Returns the controller, the intents
/// admitted and the host time of every request. A pure function of
/// `(plant, cell)` but for the timings — thread placement cannot change
/// it, which is what the harness's identity gates verify.
pub(crate) fn drive_cell(
    p: &Plant,
    cell: &Cell,
    tenant: &str,
    wave_intents: usize,
    spans: bool,
    mut after_wave: impl FnMut(&mut Controller),
) -> (Controller, usize, LatencyRecorder) {
    let cfg = ControllerConfig {
        seed: p.seed ^ (cell.region as u64) << 32,
        ..ControllerConfig::quiet()
    };
    let mut ctl = Controller::new(p.plant.net.clone(), cfg);
    ctl.install_region_map(RegionMap::new(p.plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    let customer = ctl.register_tenant(tenant, DataRate::from_gbps(1_000_000));
    ctl.spans.set_enabled(spans);
    let mut recorder = LatencyRecorder::new();
    let mut accepted = 0usize;
    for wave in cell.intents.chunks(wave_intents) {
        // Admission is one group-committed burst: with a WAL attached
        // this is one flush per wave; without one it still exercises the
        // same batching surface.
        let (ids, _) = ctl.journal_batch(|c| {
            let mut ids = Vec::with_capacity(wave.len());
            for &(a, b) in wave {
                let t0 = std::time::Instant::now();
                let r = c.request_wavelength(customer, a, b, LineRate::Gbps10);
                recorder.record_ns(t0.elapsed().as_nanos() as u64);
                if let Ok(id) = r {
                    ids.push(id);
                }
            }
            ids
        });
        accepted += ids.len();
        ctl.run_until_idle();
        let (_, _) = ctl.journal_batch(|c| {
            for id in &ids {
                let _ = c.request_teardown(*id);
            }
        });
        ctl.run_until_idle();
        after_wave(&mut ctl);
    }
    (ctl, accepted, recorder)
}

/// Run one cell and gather what the report aggregates.
fn run_cell(p: &Plant, cell: &Cell) -> CellRun<CellOutcome> {
    let (ctl, accepted, recorder) = drive_cell(p, cell, "scale", WAVE_INTENTS, false, |_| {});
    let mut memory = ctl.memory_footprint();
    let cache = ctl.route_cache_stats();
    memory.add(
        "route cache",
        (cache.entries * 512) as u64, // rough per-entry estimate
    );
    CellRun {
        digest: ctl.state_digest_crc(),
        text: String::new(),
        drops: ctl.trace.dropped() + ctl.spans.dropped(),
        out: CellOutcome {
            latencies_ns: recorder.samples_ns().to_vec(),
            accepted,
            cache,
            memory_bytes: memory.total(),
        },
    }
}

/// One sweep point: a generated plant and its seed.
pub struct Plant {
    pub(crate) seed: u64,
    pub(crate) plant: GeneratedPlant,
}

/// The plant of `target` ROADMs (8 OTs a node) generated from `seed`.
pub(crate) fn plant(target: usize, seed: u64) -> Plant {
    let cfg = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(target, seed)
    };
    Plant {
        seed,
        plant: generate(&cfg),
    }
}

/// The plants of `sweep`, each generated from `seed(target)`: the
/// plant-size axis `repro scale` and `repro slo` share.
pub(crate) fn plants(sweep: Sweep, seed: fn(usize) -> u64) -> Vec<Plant> {
    let sizes = match sweep {
        Sweep::Full => FULL_SWEEP,
        Sweep::Reduced => REDUCED_SWEEP,
    };
    sizes.iter().map(|&t| plant(t, seed(t))).collect()
}

/// A region cell's name in gate failures.
pub(crate) fn region_label(p: &Plant, cell: &Cell) -> String {
    format!(
        "{} roadms / region {}",
        p.plant.net.roadm_count(),
        cell.region
    )
}

fn point_seed(target: usize) -> u64 {
    0xC0FF_EE00u64 + target as u64
}

/// The gate on p99(largest) / p99(smallest).
const MAX_RATIO: f64 = 10.0;

/// `repro scale`: one point per plant size, one cell per region; the
/// harness runs every point on one worker and sharded.
pub struct Scale;

impl Experiment for Scale {
    const NAME: &'static str = "scale";
    const BENCHMARK: &'static str = "scale_sweep";
    const IDENTITY: Identity = Identity::Shard;
    const SWEEPS: bool = true;
    type Point = Plant;
    type Cell = Cell;
    type Out = CellOutcome;
    type Report = ScaleReport;

    fn points(&self, sweep: Sweep) -> Vec<Plant> {
        plants(sweep, point_seed)
    }

    fn probe(&self) -> Plant {
        plant(100, point_seed(100))
    }

    fn cells(&self, p: &Plant) -> Vec<Cell> {
        hot_pair_cells(&p.plant, p.seed, HOT_PAIRS, WAVES * WAVE_INTENTS)
    }

    fn label(&self, p: &Plant, cell: &Cell) -> String {
        region_label(p, cell)
    }

    fn run(&self, p: &Plant, cell: &Cell, _: bool) -> Result<CellRun<CellOutcome>, String> {
        Ok(run_cell(p, cell))
    }

    fn finish(&self, ctx: &Ctx, runs: Runs<Self>) -> Result<Finished<ScaleReport>, GateError> {
        let mut out = String::new();
        let points: Vec<ScalePoint> = runs
            .iter()
            .map(|r| point(r, ctx.threads, &mut out))
            .collect();
        let first = points.first().expect("sweep is non-empty");
        let last = points.last().expect("sweep is non-empty");
        let ratio = last.setup_p99_ns as f64 / first.setup_p99_ns.max(1) as f64;
        out.push_str(&format!(
            "p99 scaling {} vs {} roadms: {ratio:.2}x (limit {MAX_RATIO:.0}x)\n",
            last.roadms, first.roadms
        ));
        if ratio > MAX_RATIO {
            let detail = format!(
                "p99 setup latency grew {ratio:.2}x from {} to {} ROADMs (limit {MAX_RATIO}x) — \
                 the hot paths are no longer sub-linear in plant size",
                first.roadms, last.roadms
            );
            return Err(GateError::new(
                Self::NAME,
                format!("{} roadms", last.roadms),
                detail,
            ));
        }
        let report = ScaleReport {
            points,
            p99_ratio_vs_smallest: ratio,
            max_allowed_p99_ratio: MAX_RATIO,
        };
        Ok(Finished {
            report,
            summary: out,
            files: Vec::new(),
            goldens: Vec::new(),
        })
    }
}

/// Fold one point's unsharded (reference) and sharded (main) runs into
/// its report row; latency percentiles come from the unsharded run so
/// core contention cannot skew them.
fn point(r: &PointRun<Plant, Cell, CellOutcome>, threads: usize, out: &mut String) -> ScalePoint {
    let net = &r.point.plant.net;
    let unsharded: Vec<&CellOutcome> = r.reference.iter().map(|c| &c.out).collect();
    let intents = r.cells.iter().map(|c| c.intents.len()).sum::<usize>();
    let mut crc = simcore::Crc32c::new();
    let mut all = LatencyRecorder::new();
    for c in &r.reference {
        crc.update(&c.digest.to_le_bytes());
        for &ns in &c.out.latencies_ns {
            all.record_ns(ns);
        }
    }
    let combined = crc.finish();
    let sum = |f: fn(&CellOutcome) -> u64| unsharded.iter().map(|o| f(o)).sum::<u64>();
    let (cache_hits, cache_misses) = (sum(|o| o.cache.hits), sum(|o| o.cache.misses));
    let point = ScalePoint {
        roadms: net.roadm_count(),
        fibers: net.fiber_count(),
        spans: net.span_count(),
        channels: net.grid.channels,
        regions: r.point.plant.interior.len(),
        intents,
        accepted: sum(|o| o.accepted as u64) as usize,
        setup_p50_ns: all.p50_ns(),
        setup_p95_ns: all.p95_ns(),
        setup_p99_ns: all.p99_ns(),
        unsharded_intents_per_sec: intents as f64 / r.reference_secs.max(1e-9),
        sharded_intents_per_sec: intents as f64 / r.main_secs.max(1e-9),
        shard_threads: threads,
        cache_hits,
        cache_misses,
        cache_evictions: sum(|o| o.cache.evictions),
        cache_hit_rate: if cache_hits + cache_misses == 0 {
            0.0
        } else {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        },
        cache_entries: sum(|o| o.cache.entries as u64) as usize,
        cache_capacity: sum(|o| o.cache.capacity as u64) as usize,
        trace_dropped: 0,
        span_dropped: 0,
        memory_bytes: unsharded.iter().map(|o| o.memory_bytes).max().unwrap_or(0),
        combined_digest_crc: combined,
        sharded_identical: true,
    };
    out.push_str(&format!(
        "[{:>3} roadms] {} fibers / {} spans / {} regions | p50 {} µs p99 {} µs | \
         {:.0}→{:.0} intents/s ({} threads) | cache {:.0}% hit | {:.1} MiB | \
         digest crc 0x{:08x}\n",
        point.roadms,
        point.fibers,
        point.spans,
        point.regions,
        point.setup_p50_ns / 1_000,
        point.setup_p99_ns / 1_000,
        point.unsharded_intents_per_sec,
        point.sharded_intents_per_sec,
        threads,
        point.cache_hit_rate * 100.0,
        point.memory_bytes as f64 / (1024.0 * 1024.0),
        combined,
    ));
    point
}
