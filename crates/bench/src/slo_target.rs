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
//!   retained trace set — gated per cell);
//! - route-cache counters exported into the cell registry, so the fleet
//!   exposition carries them per region;
//! - every cell absorbed into one [`TelemetryRollup`] keyed by region,
//!   and a fleet [`SloEngine`] evaluated into per-region error budgets.
//!
//! Each point is a [`crate::harness`] point whose cells are its
//! regions and whose observer is the telemetry stack: the harness runs
//! every point telemetry-off first and requires per-cell
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

use griphon::{Controller, RootCause, SloEngine, SloSpec, TelemetryRollup};
use serde::Serialize;
use simcore::metrics::FamilyRegistry;
use simcore::{SimDuration, SimTime, TailSampleConfig, TailSampleStats, TailSampler};

use crate::harness::{
    ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, PointRun, Runs, Sweep,
};
use crate::noc_target::BACKBONE_WEEK_FAULTS;
use crate::scale_target::{drive_cell, hot_pair_cells, plant, plants, region_label, Cell, Plant};
use crate::scenario::{self, ScenarioSpec};

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

fn point_seed(target: usize) -> u64 {
    0x510C_0DE0u64 + target as u64
}

/// What a telemetry-on cell run carries back to the rollup.
pub struct CellTelemetry {
    families: FamilyRegistry,
    /// `(end, duration)` of every completed `conn.setup` root, in
    /// drain order.
    setups: Vec<(SimTime, SimDuration)>,
    sampler: TailSampleStats,
    exemplars: usize,
}

/// Run one cell with or without telemetry. Pure function of
/// `(plant, cell, seed, telemetry)`; the digest must not depend on the
/// `telemetry` flag — that is the harness's on/off identity gate.
fn run_cell(
    plant: &Plant,
    cell: &Cell,
    telemetry: bool,
) -> Result<CellRun<Option<CellTelemetry>>, String> {
    let mut sampler = TailSampler::new(TailSampleConfig {
        window: SimDuration::from_mins(5),
        keep_slowest: KEEP_SLOWEST,
        slow_threshold: Some(SimDuration::from_secs_f64(SETUP_THRESHOLD_SECS)),
    });
    let mut setups: Vec<(SimTime, SimDuration)> = Vec::new();
    let (ctl, _, _) = drive_cell(plant, cell, "slo", WAVE_INTENTS, telemetry, |ctl| {
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
    });
    let digest = ctl.state_digest_crc();
    let drops = ctl.spans.dropped() + ctl.trace.dropped();
    if !telemetry {
        return Ok(CellRun {
            drops,
            ..CellRun::new(digest, None)
        });
    }
    let mut families = FamilyRegistry::new();
    {
        let h = families.histogram("slo_setup_seconds", &[]);
        h.enable_exemplars(plant.seed ^ (cell.region as u64) << 32, EXEMPLAR_CAPACITY);
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
        ensure!(
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
    Ok(CellRun {
        digest,
        text: families.expose(),
        drops,
        out: Some(CellTelemetry {
            families,
            setups,
            sampler: stats,
            exemplars: exemplar_ids.len(),
        }),
    })
}

/// Fold one telemetry-on run into the fleet view: the rollup (cells
/// relabelled by region, route cache and sampler gauges included) plus
/// an SLO engine fed every region's setup stream, with the engine's
/// budget/burn gauges absorbed back into the rollup.
fn fleet_of(cells: &[Cell], on: &[&CellTelemetry]) -> (TelemetryRollup, SloEngine, SimTime) {
    let mut rollup = TelemetryRollup::new();
    let mut engine = SloEngine::new(fleet_specs());
    let mut sim_end = SimTime::ZERO;
    for (cell, tel) in cells.iter().zip(on) {
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
    /// CRC-32C over the per-cell digests (identical on/off — gated).
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
    /// The SLO catalogue (name, objective, threshold seconds).
    pub specs: Vec<(String, f64, f64)>,
    /// One entry per plant size.
    pub points: Vec<SloPoint>,
    /// The NSFNET fault-week evaluation.
    pub week: WeekSummary,
}

/// `repro slo`: one point per plant size, one cell per region; the
/// observer is the telemetry stack. The fault week runs in `finish`.
pub struct Slo;

impl Experiment for Slo {
    const NAME: &'static str = "slo";
    const IDENTITY: Identity = Identity::Observer;
    const SWEEPS: bool = true;
    type Point = Plant;
    type Cell = Cell;
    type Out = Option<CellTelemetry>;
    type Report = SloReport;

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

    fn run(&self, p: &Plant, cell: &Cell, telemetry: bool) -> Result<CellRun<Self::Out>, String> {
        run_cell(p, cell, telemetry)
    }

    fn finish(&self, _: &Ctx, runs: Runs<Self>) -> Result<Finished<SloReport>, GateError> {
        let mut out = String::new();
        let mut expositions = Vec::new();
        let points: Vec<SloPoint> = runs
            .iter()
            .map(|r| {
                let (p, exposition) = point(r, &mut out);
                expositions.push(exposition);
                p
            })
            .collect();
        let (week_reg, week, week_text) =
            run_week().map_err(|e| GateError::new(Self::NAME, "nsfnet fault week", e))?;
        out.push_str(&week_text);
        let exposition = format!(
            "# fleet rollup: 14-roadm sweep point\n{}\
             # fleet rollup: nsfnet fault week\n{}",
            expositions[0],
            week_reg.expose()
        );
        let report = SloReport {
            specs: fleet_specs()
                .iter()
                .chain(week_specs().iter())
                .map(|s| (s.name.to_string(), s.objective, s.threshold_secs))
                .collect(),
            points,
            week,
        };
        Ok(Finished {
            report,
            summary: out,
            files: vec![(EXPOSITION_FILE, exposition.clone())],
            goldens: vec![("slo_exposition.txt", exposition)],
        })
    }
}

/// The exposition file written beside `BENCH_slo.json`: the smallest
/// sweep point's fleet rollup plus the fault week's registry. No wall
/// clock anywhere, so the bytes are a pure function of the seeds.
const EXPOSITION_FILE: &str = "slo_exposition.txt";

/// Fold one point's runs into its report row and fleet exposition.
fn point(r: &PointRun<Plant, Cell, Option<CellTelemetry>>, out: &mut String) -> (SloPoint, String) {
    let on: Vec<&CellTelemetry> = r
        .main
        .iter()
        .map(|c| c.out.as_ref().expect("telemetry-on run"))
        .collect();
    let mut crc = simcore::Crc32c::new();
    for c in &r.reference {
        crc.update(&c.digest.to_le_bytes());
    }
    let digest_crc = crc.finish();
    let (rollup, engine, sim_end) = fleet_of(&r.cells, &on);
    let statuses = engine.evaluate(sim_end);
    let setups: u64 = statuses.iter().map(|s| s.events).sum();
    let bad_setups: u64 = statuses.iter().map(|s| s.bad).sum();
    let worst_budget = statuses
        .iter()
        .map(|s| s.budget_remaining)
        .fold(1.0f64, f64::min);
    let sum = |f: fn(&TailSampleStats) -> u64| -> u64 { on.iter().map(|t| f(&t.sampler)).sum() };
    let (off_secs, on_secs) = (r.reference_secs, r.main_secs);
    let overhead_pct = if off_secs > 0.0 {
        100.0 * (on_secs - off_secs) / off_secs
    } else {
        0.0
    };
    let point = SloPoint {
        roadms: r.point.plant.net.roadm_count(),
        regions: r.cells.len(),
        setups,
        bad_setups,
        worst_budget_remaining: worst_budget,
        exemplars: on.iter().map(|t| t.exemplars).sum(),
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
         digest crc 0x{:08x}\n",
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
fn run_week() -> Result<(FamilyRegistry, WeekSummary, String), String> {
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
    ensure!(pages >= 1, "the week's fiber cuts must page: {alerts:?}");
    ensure!(
        attributed == alerts.len(),
        "{attributed} of {} week alerts attribute to an open fault domain",
        alerts.len()
    );

    // SLA gauges per tenant, SLO gauges per stream — the week half of
    // the fleet exposition.
    let mut availability = 1.0f64;
    for (cid, name) in &tenants {
        let report = ctl.sla_report(*cid);
        availability = availability.min(report.aggregate);
        report.export(name, &mut global);
    }
    ensure!(
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
    Ok((global, week, text))
}
