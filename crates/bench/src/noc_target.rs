//! `repro noc` — multi-layer telemetry pipeline and cross-layer
//! alarm-correlation NOC (DESIGN.md §10).
//!
//! Replays two fault scenarios with the NOC enabled:
//!
//! 1. `scenarios/testbed_outage.json` — the Fig. 4 testbed with an OTN
//!    trunk and a groomed bundle, hit by the paper's I–IV fiber cut, so
//!    the full four-level cascade fires (per-span LOS → ODU AIS → OT LOS
//!    → client-port down);
//! 2. a multi-fault NSFNET *backbone week*: two staggered fiber cuts
//!    (one severing an OTN trunk and its groomed tributaries, one
//!    hitting a transcontinental wavelength), a maintenance window and a
//!    calendar booking.
//!
//! For each it prints the NOC dashboard and **gates** — not logs —
//! that every secondary alarm was suppressed against a root-cause
//! domain (100 % attribution, zero unattributed), that the detection →
//! localization → restoration-start latency chain matches the detection
//! model, and that no trace or scrape ring dropped anything. It then
//! writes the Prometheus-style exposition of every scraped family to
//! `noc_exposition.txt` and a machine-readable summary to
//! `BENCH_noc.json`; both are golden-filed and byte-identical across
//! runs.
//!
//! Each scenario is one [`crate::harness`] cell whose observer
//! is the NOC: the harness replays it with the NOC off and on and
//! requires the same transcript and state digest.

use serde::Serialize;
use simcore::SimTime;

use crate::harness::{
    self, ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, Runs, Sweep,
};
use crate::scenario::{self, transcript_digest, ScenarioSpec};

/// The paper's testbed outage scenario, embedded so the bench runs from
/// any working directory. Shared with `repro ha`.
pub const TESTBED_OUTAGE: &str = include_str!("../../../scenarios/testbed_outage.json");

/// A week on the NSFNET backbone with two staggered fiber cuts: the
/// Lincoln–Champaign cut severs the OTN trunk (and the groomed 1 G
/// tributaries riding it), the SanDiego–Houston cut hits the
/// PaloAlto–Atlanta wavelength mid-route. Shared with `repro ha`, which
/// replays the same week under a crash schedule.
pub const BACKBONE_WEEK_FAULTS: &str = r#"{
  "topology": { "nsfnet": { "ots_per_node": 8, "regens_per_node": 3 } },
  "deterministic": true,
  "tenants": [
    { "name": "continental-cloud", "quota_gbps": 200 }
  ],
  "otn_switches": ["Lincoln", "Champaign"],
  "trunks": [["Lincoln", "Champaign"]],
  "events": [
    { "at_secs": 0,      "do": { "wavelength": { "tenant": 0, "from": "Seattle", "to": "Princeton", "gbps": 10 } } },
    { "at_secs": 0,      "do": { "wavelength": { "tenant": 0, "from": "PaloAlto", "to": "Atlanta", "gbps": 10 } } },
    { "at_secs": 0,      "do": { "protected_wavelength": { "tenant": 0, "from": "Houston", "to": "AnnArbor", "gbps": 10 } } },
    { "at_secs": 120,    "do": { "bundle": { "tenant": 0, "from": "Lincoln", "to": "Champaign", "gbps": 12 } } },
    { "at_secs": 86400,  "do": { "cut_fiber": { "a": "Lincoln", "b": "Champaign" } } },
    { "at_secs": 86400,  "do": { "repair": { "a": "Lincoln", "b": "Champaign", "after_secs": 36000 } } },
    { "at_secs": 90000,  "do": "report" },
    { "at_secs": 259200, "do": { "cut_fiber": { "a": "SanDiego", "b": "Houston" } } },
    { "at_secs": 259200, "do": { "repair": { "a": "SanDiego", "b": "Houston", "after_secs": 14400 } } },
    { "at_secs": 345600, "do": { "maintenance": { "a": "Pittsburgh", "b": "Ithaca" } } },
    { "at_secs": 349200, "do": { "end_maintenance": { "a": "Pittsburgh", "b": "Ithaca" } } },
    { "at_secs": 432000, "do": { "reserve": { "tenant": 0, "from": "Seattle", "to": "Princeton", "gbps": 10, "start_secs": 450000, "end_secs": 500000 } } },
    { "at_secs": 604800, "do": "report" }
  ]
}"#;

/// Scrape cadence for both scenarios (seconds of sim time).
pub const SCRAPE_SECS: u64 = 60;

/// One root-cause domain in `BENCH_noc.json`.
#[derive(Serialize)]
pub struct DomainSummary {
    /// Human-readable root cause ("fiber3 cut", "ot9 fault").
    pub cause: String,
    /// Fault injection time (sim seconds).
    pub injected_secs: f64,
    /// Injection → first attributed alarm (detection).
    pub detect_secs: Option<f64>,
    /// Injection → root-cause alarm (localization / notification).
    pub localize_secs: Option<f64>,
    /// Injection → first restoration workflow start.
    pub restore_start_secs: Option<f64>,
    /// Secondary alarms suppressed against this root.
    pub suppressed: u64,
}

/// Per-scenario block of the machine-readable report.
#[derive(Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Completed telemetry scrapes.
    pub scrapes: u64,
    /// Root-cause domains opened.
    pub root_causes: u64,
    /// Secondary alarms suppressed (attributed to a root).
    pub suppressed: u64,
    /// Secondary alarms left unattributed (0 in a healthy run).
    pub unattributed: u64,
    /// suppressed / (suppressed + unattributed) × 100.
    pub attribution_pct: f64,
    /// The root-cause domains.
    pub domains: Vec<DomainSummary>,
}

/// The machine-readable report written to `BENCH_noc.json`.
#[derive(Serialize)]
pub struct NocReport {
    /// Scrape cadence driving both scenarios (seconds).
    pub scrape_secs: u64,
    /// One block per replayed scenario.
    pub scenarios: Vec<ScenarioReport>,
    /// The exposition file written alongside.
    pub exposition_file: String,
}

fn secs_since(t: Option<SimTime>, t0: SimTime) -> Option<f64> {
    t.map(|t| t.saturating_since(t0).as_secs_f64())
}

/// A replayed scenario: name, JSON, and the root-cause domains its
/// faults must open.
type Case = (&'static str, &'static str, usize);

/// `repro noc`: one cell per scenario; the observer is the NOC.
pub struct Noc;

impl Experiment for Noc {
    const NAME: &'static str = "noc";
    const IDENTITY: Identity = Identity::Observer;
    type Point = ();
    type Cell = Case;
    /// The scenario's report block and its NOC dashboard.
    type Out = (ScenarioReport, String);
    type Report = NocReport;

    fn points(&self, _: Sweep) -> Vec<()> {
        vec![()]
    }

    fn cells(&self, _: &()) -> Vec<Case> {
        vec![
            ("testbed_outage", TESTBED_OUTAGE, 1),
            ("backbone_week_faults", BACKBONE_WEEK_FAULTS, 2),
        ]
    }

    fn label(&self, _: &(), cell: &Case) -> String {
        cell.0.to_string()
    }

    /// Replay one scenario with the NOC on or off and extract its state;
    /// with the NOC on, check its correlation outcome. Every claim the
    /// dashboard makes is gated here.
    fn run(
        &self,
        _: &(),
        &(name, json, roots): &Case,
        noc: bool,
    ) -> Result<CellRun<Self::Out>, String> {
        let mut spec: ScenarioSpec =
            serde_json::from_str(json).map_err(|e| format!("bad scenario JSON: {e}"))?;
        spec.noc_scrape_secs = noc.then_some(SCRAPE_SECS);
        let (text, ctl) = scenario::run_with(&spec).map_err(|e| format!("scenario failed: {e}"))?;
        let domains = ctl
            .noc
            .domains()
            .map(|(cause, d)| DomainSummary {
                cause: cause.to_string(),
                injected_secs: d.injected_at.saturating_since(SimTime::ZERO).as_secs_f64(),
                detect_secs: secs_since(d.first_alarm_at, d.injected_at),
                localize_secs: secs_since(d.localized_at, d.injected_at),
                restore_start_secs: secs_since(d.restoration_started_at, d.injected_at),
                suppressed: d.suppressed,
            })
            .collect();
        let report = ScenarioReport {
            name: name.to_string(),
            scrapes: ctl.noc.scrapes(),
            root_causes: ctl.noc.domains().count() as u64,
            suppressed: ctl.noc.suppressed_total(),
            unattributed: ctl.noc.unattributed(),
            // check_outcome gates every secondary alarm attributed.
            attribution_pct: 100.0,
            domains,
        };
        if noc {
            check_outcome(&report, roots)?;
        }
        Ok(CellRun {
            digest: transcript_digest(&text, &ctl.state_digest()),
            text: ctl.noc.families().expose(),
            drops: ctl.trace.dropped() + ctl.spans.dropped(),
            out: (report, ctl.noc.dashboard()),
        })
    }

    fn finish(&self, ctx: &Ctx, runs: Runs<Self>) -> Result<Finished<NocReport>, GateError> {
        let p = runs.into_iter().next().expect("one point");
        let mut exposition = String::new();
        let mut scenarios = Vec::new();
        let mut summary = String::from(
            "NOC — multi-layer telemetry + cross-layer alarm correlation\n\
             (every dashboard row is gated: 100 % secondary-alarm attribution,\n \
             latency chain per the detection model, zero ring drops)\n",
        );
        let mut series = 0;
        for (&(name, _, _), run) in p.cells.iter().zip(p.main) {
            let (scenario, dashboard) = run.out;
            exposition.push_str(&format!("# scenario: {name}\n{}", run.text));
            series += run.text.lines().filter(|l| !l.starts_with('#')).count();
            summary.push_str(&format!("\n── {name} ──\n{dashboard}"));
            scenarios.push(scenario);
        }
        // The exposition covers every layer of the stack.
        for family in LAYER_FAMILIES {
            if !exposition.contains(family) {
                let detail = format!("the exposition lacks {family}");
                return Err(GateError::new(Self::NAME, "exposition", detail));
            }
        }
        summary.push_str(&format!(
            "\n{} scenario(s), {} scrapes @ {} s cadence, {} exposed series",
            scenarios.len(),
            scenarios.iter().map(|s| s.scrapes).sum::<u64>(),
            SCRAPE_SECS,
            series,
        ));
        let report = NocReport {
            scrape_secs: SCRAPE_SECS,
            scenarios,
            exposition_file: EXPOSITION_FILE.to_string(),
        };
        let json = harness::report_json::<Self>(ctx, &report);
        Ok(Finished {
            report,
            summary,
            files: vec![(EXPOSITION_FILE, exposition.clone())],
            goldens: vec![("noc_exposition.txt", exposition), ("noc_bench.json", json)],
        })
    }
}

/// One family per layer the NOC scrapes: photonic degrees and power,
/// EMS, OTN fabric and trunks, services, the calendar, detection and
/// correlation.
const LAYER_FAMILIES: [&str; 10] = [
    "noc_degree_lit_lambdas",
    "noc_degree_fragmentation",
    "noc_power_margin_db",
    "noc_ems_queue_depth",
    "noc_otn_fabric_gbps",
    "noc_trunk_fill",
    "noc_connections",
    "noc_reservations",
    "noc_detect_secs",
    "noc_alarms_suppressed_total",
];

/// The exposition file written beside `BENCH_noc.json`.
const EXPOSITION_FILE: &str = "noc_exposition.txt";

/// Check one scenario's correlation outcome.
fn check_outcome(o: &ScenarioReport, expected_roots: usize) -> Result<(), String> {
    ensure!(o.scrapes > 0, "the scrape engine never ran");
    ensure!(
        o.domains.len() == expected_roots,
        "expected {expected_roots} root-cause domain(s), found {}",
        o.domains.len()
    );
    // 100 % secondary-alarm attribution: every symptom suppressed
    // against a root, none left dangling.
    ensure!(
        o.unattributed == 0,
        "{} secondary alarm(s) escaped correlation",
        o.unattributed
    );
    ensure!(
        o.suppressed > 0,
        "the cascade produced no secondary alarms to suppress"
    );
    for d in &o.domains {
        // Detection leads localization: the 50 ms per-span LOS beats the
        // 500 ms span telemetry that names the fiber.
        let (Some(detect), Some(localize)) = (d.detect_secs, d.localize_secs) else {
            return Err(format!("{} never detected or localized", d.cause));
        };
        ensure!(
            (detect - 0.05).abs() < 1e-9 && (localize - 0.5).abs() < 1e-9,
            "{} latency chain {detect}/{localize} disagrees with the detection model",
            d.cause
        );
        ensure!(d.suppressed > 0, "{} suppressed nothing", d.cause);
    }
    // At least one domain must reach restoration (unprotected circuits
    // crossed every injected cut in both scenarios).
    ensure!(
        o.domains.iter().any(|d| d.restore_start_secs.is_some()),
        "no restoration was attributed to any root cause"
    );
    Ok(())
}
