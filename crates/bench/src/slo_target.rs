//! `repro slo` — the fleet observability plane
//! (`BENCH_slo.json` + `slo_exposition.txt`).
//!
//! Drives the same generated-plant sweep as `repro scale`
//! (14 → 100 → 300 → 600 ROADMs; `SCALE_SWEEP=reduced` runs
//! 14 → 100 → 200), but with the full telemetry stack engaged per cell:
//!
//! - spans on, every `conn.setup` root scored against the setup SLO and
//!   run through a [`TailSampler`] (slowest-N + every SLO violator per
//!   window) so the bounded recorder never silently saturates;
//! - a per-cell `FamilyRegistry` with an exemplar-carrying setup-latency
//!   histogram (exemplar `span_id`s must resolve into the sampler's
//!   retained trace set — asserted per cell);
//! - route-cache counters exported into the cell registry, so the fleet
//!   exposition carries them per region;
//! - every cell absorbed into one [`TelemetryRollup`] keyed by region,
//!   and a fleet [`SloEngine`] evaluated into per-region error budgets.
//!
//! Every point runs telemetry-off first and asserts per-cell
//! `state_digest_crc()` equality with the telemetry-on run — observing
//! the fleet must not change it. The wall-clock delta between the two
//! runs is the measured telemetry overhead (reported, never golden).
//!
//! The NSFNET fault week (`repro noc`'s scenario) then feeds the
//! availability and restoration SLOs: per-connection outage intervals
//! are reconstructed exactly at scenario barriers (outages open and
//! close only inside scenario events, so `outage_total` deltas between
//! barriers recover the precise intervals), sampled into per-tenant
//! per-minute availability events, and scanned for multi-window
//! burn-rate alerts. Each alert is handed to the NOC for fault
//! attribution — the page fired during the Lincoln–Champaign cut must
//! attribute to the fiber, closing the alert → root-cause loop.

use std::collections::{BTreeMap, BTreeSet};

use griphon::rwa::RegionMap;
use griphon::{Controller, ControllerConfig, RootCause, SloEngine, SloSpec, TelemetryRollup};
use photonic::{generate, GeneratedPlant, GeneratorConfig, LineRate, RoadmId};
use serde::Serialize;
use simcore::metrics::FamilyRegistry;
use simcore::{
    DataRate, SimDuration, SimRng, SimTime, TailSampleConfig, TailSampleStats, TailSampler,
};

use crate::experiments::{parallel_cells_with, repro_threads};
use crate::noc_target::BACKBONE_WEEK_FAULTS;
use crate::scenario::{self, ScenarioSpec};

/// The default sweep: paper scale to continental scale.
const FULL_SWEEP: &[usize] = &[14, 100, 300, 600];
/// The `SCALE_SWEEP=reduced` sweep CI runs on every push.
const REDUCED_SWEEP: &[usize] = &[14, 100, 200];

/// Hot endpoint pairs / waves / intents per wave. Lighter than the
/// scale sweep (the point here is the telemetry plane, not raw
/// throughput), but the same shape: skewed hot pairs, one quarter
/// crossing regions, admitted in group-committed waves.
const HOT_PAIRS: usize = 4;
const WAVES: usize = 6;
const WAVE_INTENTS: usize = 16;

/// Exemplars retained per setup-latency histogram, and non-violator
/// traces retained per sampler window.
const EXEMPLAR_CAPACITY: usize = 4;
const KEEP_SLOWEST: usize = 4;

/// Setup-latency SLO threshold. Table 2 puts the worst measured 3-hop
/// GMPLS setup at 70.94 s; continental cross-region paths add gateway
/// hops on top, so the fleet objective is "99% of setups under 100 s"
/// and the tail above it is exactly what the sampler must retain.
const SETUP_THRESHOLD_SECS: f64 = 100.0;

/// The sweep's fleet SLO catalogue (per-region scopes).
fn fleet_specs() -> Vec<SloSpec> {
    vec![SloSpec {
        name: "setup_latency",
        objective: 0.99,
        threshold_secs: SETUP_THRESHOLD_SECS,
    }]
}

/// The fault week's SLO catalogue: connection availability per tenant
/// (sla.rs's four-nines objective, minute-sampled) and restoration
/// onset within the NOC's 120 s detect→restore budget.
fn week_specs() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "availability",
            objective: 0.9999,
            threshold_secs: 0.0,
        },
        SloSpec {
            name: "restoration_start",
            objective: 0.99,
            threshold_secs: 120.0,
        },
    ]
}

/// Deterministic per-point seed, shared with the test hooks.
pub fn point_seed(target: usize) -> u64 {
    0x510C_0DE0u64 + target as u64
}

/// One workload cell: a region's intent list.
struct Cell {
    region: usize,
    intents: Vec<(RoadmId, RoadmId)>,
}

/// What a telemetry-on cell run carries back to the rollup.
struct CellTelemetry {
    families: FamilyRegistry,
    /// `(end, duration)` of every completed `conn.setup` root, in
    /// drain order.
    setups: Vec<(SimTime, SimDuration)>,
    sampler: TailSampleStats,
    exemplars: usize,
    span_dropped: u64,
}

/// One cell run: the digest always, the telemetry only when enabled.
struct CellRun {
    digest: u32,
    telemetry: Option<CellTelemetry>,
}

/// Same skewed hot-pair construction as the scale sweep, fewer intents.
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

/// Run one cell with or without telemetry. Pure function of
/// `(plant, cell, seed, telemetry)`; the digest must not depend on the
/// `telemetry` flag — that is the point's on/off identity assert.
fn run_cell(plant: &GeneratedPlant, cell: &Cell, seed: u64, telemetry: bool) -> CellRun {
    let cell_seed = seed ^ (cell.region as u64) << 32;
    let cfg = ControllerConfig {
        seed: cell_seed,
        ems: photonic::EmsProfile::calibrated_deterministic(),
        equalization: photonic::EqualizationModel::calibrated_deterministic(),
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::new(plant.net.clone(), cfg);
    ctl.install_region_map(RegionMap::new(plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    let customer = ctl.register_tenant("slo", DataRate::from_gbps(1_000_000));
    if telemetry {
        ctl.spans.set_enabled(true);
    }
    let mut sampler = TailSampler::new(TailSampleConfig {
        window: SimDuration::from_mins(5),
        keep_slowest: KEEP_SLOWEST,
        slow_threshold: Some(SimDuration::from_secs_f64(SETUP_THRESHOLD_SECS)),
    });
    let mut setups: Vec<(SimTime, SimDuration)> = Vec::new();
    for wave in cell.intents.chunks(WAVE_INTENTS) {
        let (ids, _) = ctl.journal_batch(|c| {
            let mut ids = Vec::with_capacity(wave.len());
            for &(a, b) in wave {
                if let Ok(id) = c.request_wavelength(customer, a, b, LineRate::Gbps10) {
                    ids.push(id);
                }
            }
            ids
        });
        ctl.run_until_idle();
        let (_, _) = ctl.journal_batch(|c| {
            for id in &ids {
                let _ = c.request_teardown(*id);
            }
        });
        ctl.run_until_idle();
        if telemetry {
            // Periodic drain, exactly the fleet-agent cadence: score
            // roots against the SLO, then let the tail sampler decide
            // which whole traces survive.
            let batch = ctl.spans.take_spans();
            for s in &batch {
                if s.parent.is_none() && s.name == "conn.setup" {
                    if let (Some(end), Some(d)) = (s.end, s.duration()) {
                        setups.push((end, d));
                    }
                }
            }
            sampler.ingest(&batch);
        }
    }
    let digest = ctl.state_digest_crc();
    let telemetry = telemetry.then(|| {
        let span_dropped = ctl.spans.dropped();
        let mut families = FamilyRegistry::new();
        {
            let h = families.histogram("slo_setup_seconds", &[]);
            h.enable_exemplars(cell_seed, EXEMPLAR_CAPACITY);
            for &(_, d) in &setups {
                h.record(d.as_secs_f64());
            }
        }
        let stats = sampler.stats();
        let kept: BTreeSet<u64> = sampler.kept_root_ids().into_iter().collect();
        let spans = sampler.into_spans();
        {
            // Link exemplars only from traces the sampler retained, so
            // every exemplar's span_id resolves to a kept trace.
            let h = families.histogram("slo_setup_seconds", &[]);
            for s in spans
                .iter()
                .filter(|s| s.parent.is_none() && s.name == "conn.setup")
            {
                if let Some(d) = s.duration() {
                    h.link_exemplar(d.as_secs_f64(), s.id.index() as u64, &[]);
                }
            }
        }
        let exemplar_ids: Vec<u64> = families
            .get_histogram("slo_setup_seconds", &[])
            .expect("histogram was just created")
            .exemplars()
            .iter()
            .map(|e| e.span_id)
            .collect();
        for id in &exemplar_ids {
            assert!(
                kept.contains(id),
                "exemplar span_id {id} does not resolve to a sampled trace"
            );
        }
        families
            .counter("slo_setups_total", &[])
            .add(setups.len() as u64);
        families
            .gauge("slo_sampler_roots_seen", &[])
            .set(stats.roots_seen as f64);
        families
            .gauge("slo_sampler_roots_kept", &[])
            .set(stats.roots_kept as f64);
        ctl.export_route_cache_metrics(&mut families);
        CellTelemetry {
            families,
            setups,
            sampler: stats,
            exemplars: exemplar_ids.len(),
            span_dropped,
        }
    });
    CellRun { digest, telemetry }
}

/// Fold one telemetry-on outcome set into the fleet view: the rollup
/// (cells relabelled by region, route cache and sampler gauges
/// included) plus an SLO engine fed every region's setup stream, with
/// the engine's budget/burn gauges absorbed back into the rollup.
fn fleet_of(cells: &[Cell], on: &[CellRun]) -> (TelemetryRollup, SloEngine, SimTime) {
    let mut rollup = TelemetryRollup::new();
    let mut engine = SloEngine::new(fleet_specs());
    let mut sim_end = SimTime::ZERO;
    for (cell, run) in cells.iter().zip(on) {
        let tel = run
            .telemetry
            .as_ref()
            .expect("fleet_of consumes telemetry-on outcomes");
        let region = format!("region{}", cell.region);
        rollup.absorb(&region, &tel.families);
        let mut stream = tel.setups.clone();
        stream.sort();
        for (end, d) in stream {
            engine.observe_latency("setup_latency", &region, end, d);
            sim_end = sim_end.max(end);
        }
    }
    let mut slo_reg = FamilyRegistry::new();
    engine.export(sim_end, &mut slo_reg);
    rollup.absorb_global(&slo_reg);
    (rollup, engine, sim_end)
}

/// One sweep point of the SLO report.
#[derive(Debug, Clone, Serialize)]
pub struct SloPoint {
    /// Plant size in ROADMs.
    pub roadms: usize,
    /// Regions (== workload cells).
    pub regions: usize,
    /// Completed setups scored against the SLO.
    pub setups: u64,
    /// Setups over the threshold.
    pub bad_setups: u64,
    /// Smallest per-region error-budget fraction remaining.
    pub worst_budget_remaining: f64,
    /// Exemplars retained across all region histograms.
    pub exemplars: usize,
    /// Root spans seen by the tail samplers.
    pub sampler_roots_seen: u64,
    /// Root traces retained.
    pub sampler_roots_kept: u64,
    /// SLO-violating traces retained (always kept).
    pub sampler_violators_kept: u64,
    /// Spans seen across samplers.
    pub sampler_spans_seen: u64,
    /// Spans retained across samplers.
    pub sampler_spans_kept: u64,
    /// Wall-clock seconds of the telemetry-off run.
    pub off_secs: f64,
    /// Wall-clock seconds of the telemetry-on run.
    pub on_secs: f64,
    /// Measured telemetry overhead, percent of the off run.
    pub overhead_pct: f64,
    /// CRC-32C over the per-cell digests (identical on/off — asserted).
    pub digest_crc: u32,
}

/// The fault-week block of the SLO report.
#[derive(Debug, Clone, Serialize)]
pub struct WeekSummary {
    /// Minutes sampled per tenant availability stream.
    pub minutes: u64,
    /// Page-severity burn alerts raised.
    pub page_alerts: usize,
    /// Ticket-severity burn alerts raised.
    pub ticket_alerts: usize,
    /// Alerts the NOC attributed to an open fault domain.
    pub attributed_alerts: usize,
    /// Aggregate availability across tenants' connections.
    pub availability: f64,
    /// The same, as nines.
    pub availability_nines: String,
    /// Restoration-onset events scored.
    pub restoration_events: u64,
    /// Error budgets per `(slo, scope)` stream at week end.
    pub budgets: Vec<BudgetRow>,
}

/// One `(slo, scope)` budget row.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetRow {
    /// The objective's name.
    pub slo: String,
    /// The stream's scope label.
    pub scope: String,
    /// Observations ingested.
    pub events: u64,
    /// Observations that were bad.
    pub bad: u64,
    /// Fraction of the error budget unspent (negative = overspent).
    pub budget_remaining: f64,
}

/// The `BENCH_slo.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report identifier.
    pub benchmark: String,
    /// Sweep profile (`full` or `reduced`).
    pub sweep: String,
    /// Worker threads used for the cell fan-out.
    pub threads: usize,
    /// The SLO catalogue (name, objective, threshold seconds).
    pub specs: Vec<(String, f64, f64)>,
    /// One entry per plant size.
    pub points: Vec<SloPoint>,
    /// The NSFNET fault-week evaluation.
    pub week: WeekSummary,
}

/// Run one sweep point; panics if telemetry changes any cell digest.
fn run_point(target: usize, threads: usize, out: &mut String) -> (SloPoint, String) {
    let seed = point_seed(target);
    let cfg = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(target, seed)
    };
    let plant = generate(&cfg);
    let cells = build_cells(&plant, seed);

    let t0 = std::time::Instant::now();
    let off = parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed, false)
    });
    let off_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let on = parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed, true)
    });
    let on_secs = t1.elapsed().as_secs_f64();

    let d_off: Vec<u32> = off.iter().map(|r| r.digest).collect();
    let d_on: Vec<u32> = on.iter().map(|r| r.digest).collect();
    assert_eq!(
        d_off, d_on,
        "telemetry changed controller outcomes at {target} ROADMs"
    );
    let mut crc = simcore::Crc32c::new();
    for d in &d_off {
        crc.update(&d.to_le_bytes());
    }
    let digest_crc = crc.finish();
    for run in &on {
        let tel = run.telemetry.as_ref().expect("telemetry-on run");
        assert_eq!(
            tel.span_dropped, 0,
            "span recorder silently saturated at {target} ROADMs"
        );
    }

    let (rollup, engine, sim_end) = fleet_of(&cells, &on);
    let statuses = engine.evaluate(sim_end);
    let setups: u64 = statuses.iter().map(|s| s.events).sum();
    let bad_setups: u64 = statuses.iter().map(|s| s.bad).sum();
    let worst_budget = statuses
        .iter()
        .map(|s| s.budget_remaining)
        .fold(1.0f64, f64::min);
    fn tel(r: &CellRun) -> &CellTelemetry {
        r.telemetry.as_ref().expect("on run")
    }
    let exemplars: usize = on.iter().map(|r| tel(r).exemplars).sum();
    let sum =
        |f: fn(&TailSampleStats) -> u64| -> u64 { on.iter().map(|r| f(&tel(r).sampler)).sum() };
    let overhead_pct = if off_secs > 0.0 {
        100.0 * (on_secs - off_secs) / off_secs
    } else {
        0.0
    };
    let point = SloPoint {
        roadms: plant.net.roadm_count(),
        regions: cells.len(),
        setups,
        bad_setups,
        worst_budget_remaining: worst_budget,
        exemplars,
        sampler_roots_seen: sum(|s| s.roots_seen),
        sampler_roots_kept: sum(|s| s.roots_kept),
        sampler_violators_kept: sum(|s| s.violators_kept),
        sampler_spans_seen: sum(|s| s.spans_seen),
        sampler_spans_kept: sum(|s| s.spans_kept),
        off_secs,
        on_secs,
        overhead_pct,
        digest_crc,
    };
    out.push_str(&format!(
        "[{:>3} roadms] {} regions | {} setups, {} over {:.0}s | worst budget {:+.2} | \
         {} exemplars | sampler kept {}/{} roots | overhead {:+.1}% | \
         telemetry on/off digests: identical (crc 0x{:08x})\n",
        point.roadms,
        point.regions,
        point.setups,
        point.bad_setups,
        SETUP_THRESHOLD_SECS,
        point.worst_budget_remaining,
        point.exemplars,
        point.sampler_roots_kept,
        point.sampler_roots_seen,
        point.overhead_pct,
        point.digest_crc,
    ));
    (point, rollup.expose())
}

/// Per-cell digests plus the fleet exposition for one point — the hook
/// `tests/determinism.rs` and the thread-determinism gate use: the pair
/// must be identical for any worker count.
pub fn fleet_fingerprint(target: usize, seed: u64, threads: usize) -> (Vec<u32>, String) {
    let cfg = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(target, seed)
    };
    let plant = generate(&cfg);
    let cells = build_cells(&plant, seed);
    let on = parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed, true)
    });
    let digests = on.iter().map(|r| r.digest).collect();
    let (rollup, _, _) = fleet_of(&cells, &on);
    (digests, rollup.expose())
}

/// Per-cell digests with telemetry on or off — the on/off byte-identity
/// hook for `tests/determinism.rs`.
pub fn telemetry_digests(target: usize, seed: u64, threads: usize, telemetry: bool) -> Vec<u32> {
    let cfg = GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(target, seed)
    };
    let plant = generate(&cfg);
    let cells = build_cells(&plant, seed);
    parallel_cells_with(threads, cells.iter().collect(), |c| {
        run_cell(&plant, c, seed, telemetry).digest
    })
}

/// Exact per-connection outage intervals, reconstructed at scenario
/// barriers. Outages open and close only inside scenario events (fault
/// injection, repair, maintenance, protection switches), and `drive`
/// invokes the barrier after every event — so between consecutive
/// barriers at most one interval closes per connection, and the
/// `outage_total` delta dates it exactly.
#[derive(Default)]
struct OutageTrack {
    last_total: SimDuration,
    open: Option<SimTime>,
    intervals: Vec<(SimTime, SimTime)>,
}

/// Drive the NSFNET fault week and evaluate the week SLO catalogue.
/// Returns the week's global registry (SLA gauges + SLO gauges + alert
/// counters), the summary block, and the human-readable alert lines.
fn run_week() -> (FamilyRegistry, WeekSummary, String) {
    let mut spec: ScenarioSpec =
        serde_json::from_str(BACKBONE_WEEK_FAULTS).expect("week scenario parses");
    spec.noc_scrape_secs = Some(crate::noc_target::SCRAPE_SECS);
    let mut ctl = scenario::genesis(&spec);
    let mut tracks: BTreeMap<griphon::ConnectionId, OutageTrack> = BTreeMap::new();
    {
        let mut barrier = |ctl: &mut Controller| {
            for c in ctl.connections() {
                let tr = tracks.entry(c.id).or_default();
                if c.outage_total > tr.last_total {
                    let delta = c.outage_total - tr.last_total;
                    let start = tr
                        .open
                        .take()
                        .expect("an outage closed that no barrier saw open");
                    tr.intervals.push((start, start + delta));
                    tr.last_total = c.outage_total;
                }
                if let Some(s) = c.outage_since {
                    tr.open = Some(s);
                }
            }
        };
        scenario::drive(&spec, &mut ctl, &mut barrier).expect("week scenario runs");
    }
    let week_end = ctl.now();
    for tr in tracks.values_mut() {
        if let Some(s) = tr.open.take() {
            tr.intervals.push((s, week_end));
        }
    }

    // Per-tenant minute-sampled availability: a minute is bad when any
    // of the tenant's connections was dark at any instant inside it.
    let tenants: Vec<(griphon::CustomerId, String)> =
        ctl.tenants.iter().map(|t| (t.id, t.name.clone())).collect();
    let owner: BTreeMap<griphon::ConnectionId, griphon::CustomerId> =
        ctl.connections().map(|c| (c.id, c.customer)).collect();
    let minutes = week_end.as_nanos() / SimDuration::from_mins(1).as_nanos();
    let mut engine = SloEngine::new(week_specs());
    for (cid, name) in &tenants {
        let outages: Vec<&(SimTime, SimTime)> = tracks
            .iter()
            .filter(|(conn, _)| owner.get(conn) == Some(cid))
            .flat_map(|(_, tr)| tr.intervals.iter())
            .collect();
        for m in 1..=minutes {
            let lo = SimTime::from_secs((m - 1) * 60);
            let hi = SimTime::from_secs(m * 60);
            let bad = outages.iter().any(|&&(a, b)| a < hi && b > lo);
            engine.observe("availability", name, hi, !bad);
        }
    }

    // Restoration onset against the NOC's 120 s detect→restore budget.
    let mut restorations: Vec<(SimTime, SimDuration)> = ctl
        .noc
        .domains()
        .filter_map(|(_, d)| {
            d.restoration_started_at
                .map(|rs| (rs, rs.saturating_since(d.injected_at)))
        })
        .collect();
    restorations.sort();
    let restoration_events = restorations.len() as u64;
    for (at, lat) in restorations {
        engine.observe_latency("restoration_start", "noc", at, lat);
    }

    // Scan for burn alerts at scrape cadence and close the loop: every
    // alert goes to the NOC for fault attribution.
    let alerts = engine.scan_alerts(SimDuration::from_secs(60), week_end);
    let mut global = FamilyRegistry::new();
    let mut text = String::new();
    let mut attributed = 0usize;
    for a in &alerts {
        let cause = ctl.noc.on_slo_alert(a.slo, a.severity, a.at);
        let label = match cause {
            Some(RootCause::FiberCut(_)) => "fiber_cut",
            Some(RootCause::OtFault(_)) => "ot_fault",
            None => "unknown",
        };
        if cause.is_some() {
            attributed += 1;
        }
        global
            .counter(
                "slo_alerts_total",
                &[("cause", label), ("severity", a.severity), ("slo", a.slo)],
            )
            .incr();
        text.push_str(&format!(
            "[{}] {} alert: {}/{} burning {:.0}x/{:.0}x -> {}\n",
            a.at,
            a.severity,
            a.slo,
            a.scope,
            a.short_burn,
            a.long_burn,
            cause.map_or_else(|| "unattributed".to_string(), |c| c.to_string()),
        ));
    }
    let pages = alerts.iter().filter(|a| a.severity == "page").count();
    let tickets = alerts.len() - pages;
    assert!(pages >= 1, "the week's fiber cuts must page: {alerts:?}");
    assert_eq!(
        attributed,
        alerts.len(),
        "every week alert must attribute to an open fault domain"
    );

    // SLA gauges per tenant, SLO gauges per stream — the week half of
    // the fleet exposition.
    let mut availability = 1.0f64;
    for (cid, name) in &tenants {
        let report = ctl.sla_report(*cid);
        availability = availability.min(report.aggregate);
        report.export(name, &mut global);
    }
    assert!(
        availability > 0.999 && availability < 1.0,
        "two ~66 s restorations over a week should land just under \
         four nines, got {availability}"
    );
    engine.export(week_end, &mut global);

    let budgets = engine
        .evaluate(week_end)
        .into_iter()
        .map(|s| BudgetRow {
            slo: s.slo.to_string(),
            scope: s.scope,
            events: s.events,
            bad: s.bad,
            budget_remaining: s.budget_remaining,
        })
        .collect();
    let week = WeekSummary {
        minutes,
        page_alerts: pages,
        ticket_alerts: tickets,
        attributed_alerts: attributed,
        availability,
        availability_nines: griphon::nines(availability),
        restoration_events,
        budgets,
    };
    text.push_str(&format!(
        "week: {} page / {} ticket alerts, {}/{} attributed | availability {:.6} ({})\n",
        pages,
        tickets,
        attributed,
        alerts.len(),
        availability,
        week.availability_nines,
    ));
    (global, week, text)
}

/// The deterministic exposition text the golden file pins: the smallest
/// sweep point's fleet rollup plus the fault week's registry. No wall
/// clock anywhere, so the bytes are a pure function of the seeds.
fn compose_exposition(point14: &str, week: &str) -> String {
    format!(
        "# fleet rollup: 14-roadm sweep point\n{point14}\
         # fleet rollup: nsfnet fault week\n{week}"
    )
}

/// Recompute the golden exposition from scratch — the hook
/// `tests/slo_golden.rs` compares against `tests/golden/slo_exposition.txt`.
pub fn golden_exposition() -> String {
    let (_, point14) = fleet_fingerprint(14, point_seed(14), repro_threads());
    let (week_reg, _, _) = run_week();
    compose_exposition(&point14, &week_reg.expose())
}

/// Run the sweep + week, write `BENCH_slo.json` and the exposition, and
/// return the summary text.
pub fn emit(bench_path: &str, exposition_path: &str) -> String {
    let reduced = std::env::var("SCALE_SWEEP").as_deref() == Ok("reduced");
    let sweep = if reduced { REDUCED_SWEEP } else { FULL_SWEEP };
    let threads = repro_threads();
    let mut out = String::new();
    let mut expositions = Vec::new();
    let points: Vec<SloPoint> = sweep
        .iter()
        .map(|&t| {
            let (p, exp) = run_point(t, threads, &mut out);
            expositions.push(exp);
            p
        })
        .collect();

    // The sampler/rollup pipeline must not care how cells are packed
    // onto workers: same digests, byte-identical exposition for 1/2/8
    // threads at the probe point.
    let probe = sweep[1];
    let base = fleet_fingerprint(probe, point_seed(probe), 1);
    for th in [2usize, 8] {
        assert_eq!(
            fleet_fingerprint(probe, point_seed(probe), th),
            base,
            "fleet telemetry diverged at {th} threads"
        );
    }
    out.push_str(&format!(
        "sampler + rollup at {probe} roadms deterministic across 1/2/8 threads: identical\n"
    ));

    let (week_reg, week, week_text) = run_week();
    out.push_str(&week_text);

    let exposition = compose_exposition(&expositions[0], &week_reg.expose());
    std::fs::write(exposition_path, &exposition).expect("write slo exposition");

    let report = SloReport {
        header: crate::BenchHeader::new("slo", if reduced { "reduced" } else { "full" }),
        benchmark: "slo".into(),
        sweep: if reduced { "reduced" } else { "full" }.into(),
        threads,
        specs: fleet_specs()
            .iter()
            .chain(week_specs().iter())
            .map(|s| (s.name.to_string(), s.objective, s.threshold_secs))
            .collect(),
        points,
        week,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(bench_path, &json).expect("write BENCH_slo.json");
    format!("wrote {bench_path} and {exposition_path}\n{out}")
}
