//! `repro scale` — the continental-scale sweep (`BENCH_scale.json`).
//!
//! Sweeps generated plants from paper scale to continental scale
//! (14 → 100 → 300 → 600 ROADMs by default; `SCALE_SWEEP=reduced` runs
//! 14 → 100 → 200 for CI), driving every point twice through the same
//! per-region workload cells:
//!
//! - **unsharded** — all cells executed on one thread;
//! - **sharded** — the same cells fanned across
//!   [`repro_threads`](crate::experiments::repro_threads) workers.
//!
//! Each cell owns a full controller over the shared plant (region map
//! installed, admission group-committed in waves through
//! `journal_batch`) and returns its `state_digest_crc()`, so the merge
//! is deterministic and the two runs must produce **byte-identical
//! digests for every cell** — asserted unconditionally at every sweep
//! point, and printed as the `digests: identical` lines CI greps.
//!
//! Per point the report records per-intent setup-latency p50/p95/p99
//! (host wall clock around `request_wavelength`, measured on the
//! unsharded run so core contention cannot skew percentiles),
//! intents/sec for both runs, route-cache hit/miss/eviction counters,
//! and the estimated memory footprint. The final gate asserts p99 at the
//! largest point stays within 10× the smallest point — the evidence that
//! region-restricted search, the u128 masks, the per-node equipment
//! indices and the bounded route cache keep the hot path sub-linear in
//! plant size.

use griphon::rwa::RegionMap;
use griphon::{Controller, ControllerConfig};
use photonic::{generate, GeneratedPlant, GeneratorConfig, LineRate, RoadmId};
use serde::Serialize;
use simcore::metrics::LatencyRecorder;
use simcore::{DataRate, SimRng};

use crate::experiments::{parallel_cells_with, repro_threads};

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
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report identifier.
    pub benchmark: String,
    /// Sweep profile (`full` or `reduced`).
    pub sweep: String,
    /// Worker threads used for sharded runs.
    pub threads: usize,
    /// One entry per plant size.
    pub points: Vec<ScalePoint>,
    /// p99(largest) / p99(smallest).
    pub p99_ratio_vs_smallest: f64,
    /// The gate the ratio must stay under.
    pub max_allowed_p99_ratio: f64,
}

/// One workload cell: a region's intent list, driven against the cell's
/// own controller over the (shared, cloned) plant.
struct Cell {
    region: usize,
    intents: Vec<(RoadmId, RoadmId)>,
}

/// What a cell run returns: the digest, its latency samples, and the
/// cache/footprint counters the report aggregates.
struct CellOutcome {
    digest: u32,
    latencies_ns: Vec<u64>,
    accepted: usize,
    cache: griphon::RouteCacheStats,
    memory_bytes: u64,
    trace_dropped: u64,
    span_dropped: u64,
}

/// Deterministic per-region intent lists: `HOT_PAIRS` endpoint pairs
/// (three quarters intra-region, the rest crossing to a deterministic
/// peer region), repeated across `WAVES` admission waves.
fn build_cells(plant: &GeneratedPlant, seed: u64) -> Vec<Cell> {
    let regions = plant.interior.len();
    (0..regions)
        .map(|r| {
            let mut rng = SimRng::new(seed).fork(r as u64 + 1);
            let mine = &plant.interior[r];
            let peer = &plant.interior[(r + 1) % regions];
            let mut pairs: Vec<(RoadmId, RoadmId)> = Vec::with_capacity(HOT_PAIRS);
            for p in 0..HOT_PAIRS {
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
            let intents = (0..WAVES * WAVE_INTENTS)
                .map(|i| pairs[i % HOT_PAIRS])
                .collect();
            Cell { region: r, intents }
        })
        .collect()
}

/// Run one cell to completion and return its outcome. Pure function of
/// `(plant, cell, seed)` — thread placement cannot change it, which is
/// exactly what the sharded-vs-unsharded digest assert verifies.
fn run_cell(plant: &GeneratedPlant, cell: &Cell, seed: u64) -> CellOutcome {
    let cfg = ControllerConfig {
        seed: seed ^ (cell.region as u64) << 32,
        ems: photonic::EmsProfile::calibrated_deterministic(),
        equalization: photonic::EqualizationModel::calibrated_deterministic(),
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::new(plant.net.clone(), cfg);
    ctl.install_region_map(RegionMap::new(plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    let customer = ctl.register_tenant("scale", DataRate::from_gbps(1_000_000));
    let mut recorder = LatencyRecorder::new();
    let mut accepted = 0usize;
    for wave in cell.intents.chunks(WAVE_INTENTS) {
        // Admission is one group-committed burst (PR 6 path): with a WAL
        // attached this is one flush per wave; without one it still
        // exercises the same batching surface.
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
    }
    let mut memory = ctl.memory_footprint();
    let cache = ctl.route_cache_stats();
    memory.add(
        "route cache",
        (cache.entries * 512) as u64, // rough per-entry estimate
    );
    CellOutcome {
        digest: ctl.state_digest_crc(),
        latencies_ns: recorder.samples_ns().to_vec(),
        accepted,
        cache,
        memory_bytes: memory.total(),
        trace_dropped: ctl.trace.dropped(),
        span_dropped: ctl.spans.dropped(),
    }
}

/// Digest identity between two per-cell outcome sets, and the combined
/// CRC the report publishes.
fn digests_identical(unsharded: &[u32], sharded: &[u32]) -> (bool, u32) {
    let mut crc = simcore::Crc32c::new();
    for d in unsharded {
        crc.update(&d.to_le_bytes());
    }
    (unsharded == sharded, crc.finish())
}

/// Run one sweep point; panics if sharded and unsharded digests differ.
fn run_point(target: usize, threads: usize, out: &mut String) -> ScalePoint {
    let seed = 0xC0FF_EE00u64 + target as u64;
    let cfg = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(target, seed)
    };
    let plant = generate(&cfg);
    let cells = build_cells(&plant, seed);
    let intents = cells.iter().map(|c| c.intents.len()).sum::<usize>();

    let t0 = std::time::Instant::now();
    let unsharded = parallel_cells_with(1, cells.iter().collect(), |c| run_cell(&plant, c, seed));
    let unsharded_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let sharded = parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed)
    });
    let sharded_secs = t1.elapsed().as_secs_f64();

    let du: Vec<u32> = unsharded.iter().map(|o| o.digest).collect();
    let ds: Vec<u32> = sharded.iter().map(|o| o.digest).collect();
    let (identical, combined) = digests_identical(&du, &ds);
    assert!(
        identical,
        "sharded vs unsharded digests diverged at {target} ROADMs: {du:x?} vs {ds:x?}"
    );

    let mut all = LatencyRecorder::new();
    for o in &unsharded {
        for &ns in &o.latencies_ns {
            all.record_ns(ns);
        }
    }
    let cache_hits: u64 = unsharded.iter().map(|o| o.cache.hits).sum();
    let cache_misses: u64 = unsharded.iter().map(|o| o.cache.misses).sum();
    let cache_evictions: u64 = unsharded.iter().map(|o| o.cache.evictions).sum();
    let cache_entries: usize = unsharded.iter().map(|o| o.cache.entries).sum();
    let cache_capacity: usize = unsharded.iter().map(|o| o.cache.capacity).sum();
    let accepted: usize = unsharded.iter().map(|o| o.accepted).sum();
    let trace_dropped: u64 = unsharded.iter().map(|o| o.trace_dropped).sum::<u64>()
        + sharded.iter().map(|o| o.trace_dropped).sum::<u64>();
    let span_dropped: u64 = unsharded.iter().map(|o| o.span_dropped).sum::<u64>()
        + sharded.iter().map(|o| o.span_dropped).sum::<u64>();
    assert_eq!(
        (trace_dropped, span_dropped),
        (0, 0),
        "telemetry silently saturated at {target} ROADMs: \
         {trace_dropped} trace events / {span_dropped} spans dropped"
    );
    let point = ScalePoint {
        roadms: plant.net.roadm_count(),
        fibers: plant.net.fiber_count(),
        spans: plant.net.span_count(),
        channels: plant.net.grid.channels,
        regions: plant.interior.len(),
        intents,
        accepted,
        setup_p50_ns: all.p50_ns(),
        setup_p95_ns: all.p95_ns(),
        setup_p99_ns: all.p99_ns(),
        unsharded_intents_per_sec: intents as f64 / unsharded_secs.max(1e-9),
        sharded_intents_per_sec: intents as f64 / sharded_secs.max(1e-9),
        shard_threads: threads,
        cache_hits,
        cache_misses,
        cache_evictions,
        cache_hit_rate: if cache_hits + cache_misses == 0 {
            0.0
        } else {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        },
        cache_entries,
        cache_capacity,
        trace_dropped,
        span_dropped,
        memory_bytes: unsharded.iter().map(|o| o.memory_bytes).max().unwrap_or(0),
        combined_digest_crc: combined,
        sharded_identical: identical,
    };
    out.push_str(&format!(
        "[{:>3} roadms] {} fibers / {} spans / {} regions | p50 {} µs p99 {} µs | \
         {:.0}→{:.0} intents/s ({} threads) | cache {:.0}% hit | {:.1} MiB | \
         telemetry drops: 0 | sharded vs unsharded digests: identical (crc 0x{:08x})\n",
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

/// The per-cell digests for a generated plant at `target` ROADMs driven
/// with `threads` workers — the hook `tests/determinism.rs` uses to
/// assert digest identity across `REPRO_THREADS` ∈ {1, 2, 8} without
/// touching environment variables.
pub fn shard_digests(target: usize, seed: u64, threads: usize) -> Vec<u32> {
    let plant = generate(&GeneratorConfig::with_target_roadms(target, seed));
    let cells = build_cells(&plant, seed);
    parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed).digest
    })
}

/// Run the sweep, write `BENCH_scale.json`, and return the summary text.
pub fn emit(path: &str) -> String {
    let reduced = std::env::var("SCALE_SWEEP").as_deref() == Ok("reduced");
    let sweep = if reduced { REDUCED_SWEEP } else { FULL_SWEEP };
    let threads = repro_threads();
    let mut out = String::new();
    let points: Vec<ScalePoint> = sweep
        .iter()
        .map(|&t| run_point(t, threads, &mut out))
        .collect();

    let first = points.first().expect("sweep is non-empty");
    let last = points.last().expect("sweep is non-empty");
    let ratio = last.setup_p99_ns as f64 / first.setup_p99_ns.max(1) as f64;
    const MAX_RATIO: f64 = 10.0;
    out.push_str(&format!(
        "p99 scaling {} vs {} roadms: {ratio:.2}x (limit {MAX_RATIO:.0}x)\n",
        last.roadms, first.roadms
    ));
    assert!(
        ratio <= MAX_RATIO,
        "p99 setup latency grew {ratio:.2}x from {} to {} ROADMs (limit {MAX_RATIO}x) — \
         the hot paths are no longer sub-linear in plant size",
        first.roadms,
        last.roadms
    );

    let report = ScaleReport {
        header: crate::BenchHeader::new("scale", if reduced { "reduced" } else { "full" }),
        benchmark: "scale_sweep".into(),
        sweep: if reduced { "reduced" } else { "full" }.into(),
        threads,
        points,
        p99_ratio_vs_smallest: ratio,
        max_allowed_p99_ratio: MAX_RATIO,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    format!("wrote {path}\n{out}")
}
