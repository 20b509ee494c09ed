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
//! For each it prints the NOC dashboard and **asserts** — not logs —
//! that every secondary alarm was suppressed against a root-cause
//! domain (100 % attribution, zero unattributed), that the detection →
//! localization → restoration-start latency chain matches the detection
//! model, and that no trace or scrape ring dropped anything. It then
//! writes the Prometheus-style exposition of every scraped family to
//! `noc_exposition.txt` and a machine-readable summary to
//! `BENCH_noc.json`; both are golden-filed and byte-identical across
//! runs.

use serde::Serialize;
use simcore::SimTime;

use crate::scenario::{self, ScenarioSpec};

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

/// One replayed scenario with its NOC state extracted.
pub struct Outcome {
    /// Scenario name (section header in the exposition file).
    pub name: &'static str,
    /// NOC text dashboard (root-cause domains + latency chains).
    pub dashboard: String,
    /// Prometheus-style exposition of every scraped family.
    pub exposition: String,
    /// Per-domain summaries, in deterministic order.
    pub domains: Vec<DomainSummary>,
    /// Completed scrapes.
    pub scrapes: u64,
    /// Secondary alarms suppressed across all domains.
    pub suppressed: u64,
    /// Secondary alarms that resolved to no root (must be 0).
    pub unattributed: u64,
    /// Trace / span ring drop warnings (must be empty).
    pub warnings: Vec<String>,
}

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
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report name, fixed to `noc`.
    pub benchmark: String,
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

/// Replay one scenario JSON with the NOC on and extract its state.
fn run_one(name: &'static str, json: &str) -> Outcome {
    let mut spec: ScenarioSpec =
        serde_json::from_str(json).unwrap_or_else(|e| panic!("{name}: bad scenario JSON: {e}"));
    spec.noc_scrape_secs = Some(SCRAPE_SECS);
    let (_, ctl) =
        scenario::run_with(&spec).unwrap_or_else(|e| panic!("{name}: scenario failed: {e}"));
    let mut warnings = Vec::new();
    if let Some(w) = ctl.trace.drop_warning() {
        warnings.push(format!("{name}: {w}"));
    }
    if let Some(w) = ctl.spans.drop_warning() {
        warnings.push(format!("{name}: {w}"));
    }
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
    Outcome {
        name,
        dashboard: ctl.noc.dashboard(),
        exposition: ctl.noc.families().expose(),
        domains,
        scrapes: ctl.noc.scrapes(),
        suppressed: ctl.noc.suppressed_total(),
        unattributed: ctl.noc.unattributed(),
        warnings,
    }
}

/// Both scenarios, in a fixed deterministic order.
pub fn outcomes() -> Vec<Outcome> {
    vec![
        run_one("testbed_outage", TESTBED_OUTAGE),
        run_one("backbone_week_faults", BACKBONE_WEEK_FAULTS),
    ]
}

/// Check one scenario's correlation outcome. Every claim the dashboard
/// makes is asserted here; `repro noc` aborts rather than print a
/// dashboard the numbers don't back.
fn check_outcome(o: &Outcome, expected_roots: usize) {
    assert!(
        o.warnings.is_empty(),
        "{}: trace/scrape rings dropped data: {:?}",
        o.name,
        o.warnings
    );
    assert!(o.scrapes > 0, "{}: the scrape engine never ran", o.name);
    assert_eq!(
        o.domains.len(),
        expected_roots,
        "{}: expected {expected_roots} root-cause domain(s)",
        o.name
    );
    // 100 % secondary-alarm attribution: every symptom suppressed
    // against a root, none left dangling.
    assert_eq!(
        o.unattributed, 0,
        "{}: {} secondary alarm(s) escaped correlation",
        o.name, o.unattributed
    );
    assert!(
        o.suppressed > 0,
        "{}: the cascade produced no secondary alarms to suppress",
        o.name
    );
    for d in &o.domains {
        // Detection leads localization: the 50 ms per-span LOS beats the
        // 500 ms span telemetry that names the fiber.
        let detect = d
            .detect_secs
            .unwrap_or_else(|| panic!("{}: {} never detected", o.name, d.cause));
        let localize = d
            .localize_secs
            .unwrap_or_else(|| panic!("{}: {} never localized", o.name, d.cause));
        assert!(
            detect <= localize,
            "{}: {} localized before first alarm",
            o.name,
            d.cause
        );
        assert!(
            (detect - 0.05).abs() < 1e-9 && (localize - 0.5).abs() < 1e-9,
            "{}: {} latency chain {detect}/{localize} disagrees with the detection model",
            o.name,
            d.cause
        );
        assert!(
            d.suppressed > 0,
            "{}: {} suppressed nothing",
            o.name,
            d.cause
        );
    }
    // At least one domain must reach restoration (unprotected circuits
    // crossed every injected cut in both scenarios).
    assert!(
        o.domains.iter().any(|d| d.restore_start_secs.is_some()),
        "{}: no restoration was attributed to any root cause",
        o.name
    );
}

/// Run both scenarios, verify correlation, and build the report plus the
/// concatenated exposition text.
pub fn build(outcomes: &[Outcome]) -> (NocReport, String) {
    let expected_roots = [1usize, 2];
    let mut exposition = String::new();
    let mut scenarios = Vec::new();
    for (o, roots) in outcomes.iter().zip(expected_roots) {
        check_outcome(o, roots);
        exposition.push_str(&format!("# scenario: {}\n", o.name));
        exposition.push_str(&o.exposition);
        let denom = o.suppressed + o.unattributed;
        scenarios.push(ScenarioReport {
            name: o.name.to_string(),
            scrapes: o.scrapes,
            root_causes: o.domains.len() as u64,
            suppressed: o.suppressed,
            unattributed: o.unattributed,
            attribution_pct: if denom == 0 {
                100.0
            } else {
                100.0 * o.suppressed as f64 / denom as f64
            },
            domains: o
                .domains
                .iter()
                .map(|d| DomainSummary {
                    cause: d.cause.clone(),
                    injected_secs: d.injected_secs,
                    detect_secs: d.detect_secs,
                    localize_secs: d.localize_secs,
                    restore_start_secs: d.restore_start_secs,
                    suppressed: d.suppressed,
                })
                .collect(),
        });
    }
    for s in &scenarios {
        assert!(
            (s.attribution_pct - 100.0).abs() < f64::EPSILON,
            "{}: attribution below 100 %",
            s.name
        );
    }
    let report = NocReport {
        header: crate::BenchHeader::new("noc", "default"),
        benchmark: "noc".to_string(),
        scrape_secs: SCRAPE_SECS,
        scenarios,
        exposition_file: String::new(),
    };
    (report, exposition)
}

/// Render the human-readable summary: one dashboard per scenario.
fn render(report: &NocReport, outcomes: &[Outcome]) -> String {
    let mut out = String::from(
        "NOC — multi-layer telemetry + cross-layer alarm correlation\n\
         (every dashboard row is asserted: 100 % secondary-alarm attribution,\n\
          latency chain per the detection model, zero ring drops)\n",
    );
    for o in outcomes {
        out.push_str(&format!("\n── {} ──\n", o.name));
        out.push_str(&o.dashboard);
    }
    let series: usize = outcomes
        .iter()
        .map(|o| o.exposition.lines().filter(|l| !l.starts_with('#')).count())
        .sum();
    out.push_str(&format!(
        "\n{} scenario(s), {} scrapes @ {} s cadence, {} exposed series",
        report.scenarios.len(),
        report.scenarios.iter().map(|s| s.scrapes).sum::<u64>(),
        report.scrape_secs,
        series,
    ));
    out
}

/// Run both scenarios, write `BENCH_noc.json` and `noc_exposition.txt`,
/// and return the human-readable summary.
pub fn emit(bench_path: &str, exposition_path: &str) -> String {
    let outcomes = outcomes();
    let (mut report, exposition) = build(&outcomes);
    report.exposition_file = exposition_path.to_string();
    std::fs::write(exposition_path, &exposition).expect("write exposition");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(bench_path, &json).expect("write BENCH_noc.json");
    let mut out = render(&report, &outcomes);
    out.push_str(&format!("\nwrote {bench_path} and {exposition_path}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_scenarios_attribute_every_secondary_alarm() {
        let outcomes = outcomes();
        let (report, exposition) = build(&outcomes);
        assert_eq!(report.scenarios.len(), 2);
        for s in &report.scenarios {
            assert_eq!(s.unattributed, 0, "{}", s.name);
            assert!((s.attribution_pct - 100.0).abs() < f64::EPSILON);
        }
        // The exposition covers every layer of the stack.
        for family in [
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
        ] {
            assert!(exposition.contains(family), "exposition lacks {family}");
        }
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let a = build(&outcomes());
        let b = build(&outcomes());
        assert_eq!(a.1, b.1, "exposition must be deterministic");
        let ja = serde_json::to_string_pretty(&a.0).unwrap();
        let jb = serde_json::to_string_pretty(&b.0).unwrap();
        assert_eq!(ja, jb, "BENCH_noc.json must be deterministic");
    }
}
