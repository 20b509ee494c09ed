//! `repro trace` — span-based control-plane tracing.
//!
//! Drives representative control-plane scenarios with span recording
//! enabled, then:
//!
//! 1. exports every recorded span as a Chrome trace-event JSON file
//!    (loadable in Perfetto / `chrome://tracing`), one process per
//!    scenario, one track per workflow;
//! 2. rolls the spans up into a **mechanistic Table 2**: per-phase setup
//!    latency by hop count, reproduced from the instrumented phases —
//!    not from hard-coded constants — and cross-checked against the
//!    end-to-end latencies the controller itself reports;
//! 3. writes the aggregate as machine-readable `BENCH_trace.json`.
//!
//! The invariant this target enforces is *exact tiling*: a workflow's
//! phase spans partition its root span, so per-phase sums equal the
//! controller's reported end-to-end latency to the nanosecond, and the
//! per-hop-count rows reproduce Table 2's shape (EMS + optical settling
//! dominate; latency grows superlinearly with hop count; setup ≫
//! teardown) from the same draws that drove the simulation.

use std::collections::BTreeMap;

use griphon::controller::{Controller, ControllerConfig};
use photonic::{EmsProfile, EqualizationModel, LineRate, PhotonicNetwork, TestbedIds};
use serde::Serialize;
use simcore::span::{self, RootRollup};
use simcore::{DataRate, SimDuration, Span};

use crate::table;

/// Paper Table 2 means (seconds) at 1/2/3 hops, for the side-by-side
/// column. The breakdown itself is measured, never read from here.
const PAPER_SETUP_SECS: [f64; 3] = [62.48, 65.67, 70.94];

/// One traced scenario: its recorded span stream plus the end-to-end
/// latencies the controller reported through its ordinary bookkeeping,
/// against which the span tree is cross-checked.
pub struct Scenario {
    /// Scenario name (becomes the Chrome-trace process name).
    pub name: &'static str,
    /// Every span the scenario recorded, in creation order.
    pub spans: Vec<Span>,
    /// `(root span name, controller-reported duration)` checks: for each
    /// entry a root span of that name must exist whose phase sum equals
    /// the reported duration exactly.
    pub reported: Vec<(&'static str, SimDuration)>,
    /// Ring-drop warnings surfaced by the scenario's controller.
    pub warnings: Vec<String>,
    /// Spans the bounded recorder refused (0 in a healthy run).
    pub dropped: u64,
}

fn traced_testbed(ots: usize) -> (Controller, TestbedIds) {
    let (net, ids) = PhotonicNetwork::testbed(ots);
    let cfg = ControllerConfig {
        ems: EmsProfile::calibrated_deterministic(),
        equalization: EqualizationModel::calibrated_deterministic(),
        ..ControllerConfig::default()
    };
    let mut ctl = Controller::new(net, cfg);
    ctl.spans.set_enabled(true);
    (ctl, ids)
}

fn drain(ctl: &mut Controller, name: &'static str) -> (Vec<Span>, Vec<String>, u64) {
    let mut warnings = Vec::new();
    if let Some(w) = ctl.spans.drop_warning() {
        warnings.push(format!("{name}: {w}"));
    }
    if let Some(w) = ctl.trace.drop_warning() {
        warnings.push(format!("{name}: {w}"));
    }
    (ctl.spans.take_spans(), warnings, ctl.spans.dropped())
}

/// One wavelength setup + teardown along a pinned `hops`-hop route on
/// the Fig. 4 testbed (routes pinned exactly as the paper pinned paths
/// I–IV, I–III–IV, I–II–III–IV: by removing the shorter alternatives).
pub fn setup_scenario(hops: usize) -> Scenario {
    let name: &'static str = match hops {
        1 => "setup-1hop",
        2 => "setup-2hop",
        3 => "setup-3hop",
        _ => panic!("testbed offers 1-3 hop routes"),
    };
    let (mut ctl, ids) = traced_testbed(4);
    match hops {
        1 => {}
        2 => {
            ctl.net.fiber_mut(ids.f_i_iv).cut_at(0);
        }
        3 => {
            ctl.net.fiber_mut(ids.f_i_iv).cut_at(0);
            ctl.net.fiber_mut(ids.f_i_iii).cut_at(0);
        }
        _ => unreachable!(),
    }
    let csp = ctl.tenants.register("lab", DataRate::from_gbps(100));
    let id = ctl
        .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
        .expect("plannable");
    ctl.run_until_idle();
    let conn = ctl.connection(id).unwrap();
    assert_eq!(conn.wavelength_plan().unwrap().hops(), hops);
    let setup = conn.activated_at.unwrap().since(conn.requested_at);
    let t0 = ctl.now();
    ctl.request_teardown(id).unwrap();
    ctl.run_until_idle();
    let teardown = ctl.now().since(t0);
    let (spans, warnings, dropped) = drain(&mut ctl, name);
    Scenario {
        name,
        spans,
        reported: vec![("conn.setup", setup), ("conn.teardown", teardown)],
        warnings,
        dropped,
    }
}

/// A fiber cut hitting two circuits: serialized restorations whose
/// second root carries genuine EMS queue wait.
pub fn restoration_scenario() -> Scenario {
    let (mut ctl, ids) = traced_testbed(8);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    for _ in 0..2 {
        ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
    }
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.run_until_idle();
    let (spans, warnings, dropped) = drain(&mut ctl, "restoration");
    Scenario {
        name: "restoration",
        spans,
        reported: Vec::new(),
        warnings,
        dropped,
    }
}

/// OTN layer: trunk turn-up, a groomed sub-wavelength circuit, and its
/// electronic teardown — the "seconds, not a minute" contrast.
pub fn otn_scenario() -> Scenario {
    let (mut ctl, ids) = traced_testbed(8);
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .unwrap();
    ctl.run_until_idle();
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    let sub = ctl
        .request_subwavelength(csp, ids.i, ids.iv, otn::ClientSignal::GbE)
        .unwrap();
    let t0 = ctl.now();
    ctl.run_until_idle();
    let sub_setup = ctl.now().since(t0);
    ctl.request_teardown(sub).unwrap();
    ctl.run_until_idle();
    let (spans, warnings, dropped) = drain(&mut ctl, "otn");
    Scenario {
        name: "otn",
        spans,
        reported: vec![("conn.subwl_setup", sub_setup)],
        warnings,
        dropped,
    }
}

/// The cloud scheduler ordering and releasing wavelengths against a
/// bulk-replication backlog: policy decisions as instant spans alongside
/// the setup workflows they trigger.
pub fn policy_scenario() -> Scenario {
    use cloud::scheduler::BodPolicy;
    use cloud::workload::{WorkloadConfig, WorkloadGenerator};

    let horizon = SimDuration::from_hours(24);
    let tick = SimDuration::from_secs(60);
    let cfg = WorkloadConfig {
        bulk_interarrival: SimDuration::from_hours(6),
        bulk_max: simcore::DataSize::from_terabytes(30),
        ..WorkloadConfig::default()
    };
    let mut gen = WorkloadGenerator::new(cfg, 2026);
    let jobs = gen.bulk_jobs(
        cloud::DataCenterId::new(0),
        cloud::DataCenterId::new(1),
        horizon,
    );
    let (mut ctl, ids) = traced_testbed(10);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
    let _ = BodPolicy {
        max_rate: DataRate::from_gbps(40),
        drain_target: SimDuration::from_hours(1),
        idle_release: SimDuration::from_mins(10),
    }
    .run(&mut ctl, csp, ids.i, ids.iv, jobs, horizon, tick);
    // Close any workflow still in flight at the horizon so every span
    // stream the exporter sees is well-formed.
    ctl.run_until_idle();
    let (spans, warnings, dropped) = drain(&mut ctl, "policy");
    Scenario {
        name: "policy",
        spans,
        reported: Vec::new(),
        warnings,
        dropped,
    }
}

/// All scenarios, in a fixed deterministic order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        setup_scenario(1),
        setup_scenario(2),
        setup_scenario(3),
        restoration_scenario(),
        otn_scenario(),
        policy_scenario(),
    ]
}

/// Per-hop-count row of the mechanistic Table 2 regeneration.
#[derive(Serialize)]
pub struct HopRow {
    /// Path length in hops.
    pub hops: u64,
    /// Setup workflows aggregated into this row.
    pub count: u64,
    /// Mean per-phase seconds, keyed by phase span name.
    pub phases_secs: BTreeMap<String, f64>,
    /// Sum of the phase means — equals `total_secs` exactly.
    pub phase_sum_secs: f64,
    /// Mean end-to-end setup seconds from the root spans.
    pub total_secs: f64,
    /// The paper's measured mean for this hop count.
    pub paper_secs: f64,
}

/// The machine-readable report written to `BENCH_trace.json`.
#[derive(Serialize)]
pub struct TraceReport {
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report name, fixed to `trace`.
    pub benchmark: String,
    /// Mechanistic Table 2: per-phase setup breakdown by hop count.
    pub table2: Vec<HopRow>,
    /// Mean wavelength teardown seconds (paper: ≈10 s).
    pub teardown_secs: f64,
    /// Mean sub-wavelength (OTN) setup seconds (paper: "seconds").
    pub subwl_setup_secs: f64,
    /// Longest restoration queue wait observed (EMS serialization).
    pub restore_queue_wait_secs: f64,
    /// Policy decision spans recorded (orders + releases).
    pub policy_decisions: u64,
    /// Total spans across all scenarios.
    pub spans_recorded: u64,
    /// Spans dropped by the bounded recorder (0 in a healthy run).
    pub spans_dropped: u64,
    /// The Chrome trace-event file written alongside.
    pub chrome_trace_file: String,
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

fn mean_secs(total: SimDuration, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        secs(total) / count as f64
    }
}

fn single_rollup(spans: &[Span], root: &str) -> Option<RootRollup> {
    span::rollup(spans, root, None).into_iter().next()
}

/// Cross-check one scenario: the span stream is well-formed, and for
/// every controller-reported latency a root span exists whose phases
/// tile it exactly.
fn check_scenario(s: &Scenario) {
    span::validate(&s.spans).unwrap_or_else(|e| panic!("{}: invalid span stream: {e}", s.name));
    for (root_name, reported) in &s.reported {
        let r = single_rollup(&s.spans, root_name)
            .unwrap_or_else(|| panic!("{}: no {root_name} root span", s.name));
        let per_root_total = SimDuration::from_nanos(r.total.as_nanos() / r.count);
        assert_eq!(
            per_root_total, *reported,
            "{}: {root_name} root span disagrees with the controller's reported latency",
            s.name
        );
        assert_eq!(
            r.phase_sum(),
            r.total,
            "{}: {root_name} phases do not tile the workflow",
            s.name
        );
    }
}

/// Build the report and the Chrome trace from a set of scenarios.
pub fn build(scenarios: &[Scenario]) -> (TraceReport, String) {
    for s in scenarios {
        check_scenario(s);
    }

    // ── mechanistic Table 2: conn.setup rollups grouped by hop count ──
    let mut by_hops: BTreeMap<u64, RootRollup> = BTreeMap::new();
    for s in scenarios {
        for r in span::rollup(&s.spans, "conn.setup", Some("hops")) {
            let row = by_hops.entry(r.group).or_default();
            row.group = r.group;
            row.count += r.count;
            row.total += r.total;
            for (k, p) in r.phases {
                let q = row.phases.entry(k).or_default();
                q.count += p.count;
                q.total += p.total;
            }
        }
    }
    let table2: Vec<HopRow> = by_hops
        .values()
        .map(|r| {
            let phases_secs: BTreeMap<String, f64> = r
                .phases
                .iter()
                .map(|(k, p)| (k.to_string(), mean_secs(p.total, r.count)))
                .collect();
            HopRow {
                hops: r.group,
                count: r.count,
                phase_sum_secs: mean_secs(r.phase_sum(), r.count),
                total_secs: mean_secs(r.total, r.count),
                paper_secs: PAPER_SETUP_SECS
                    .get(r.group as usize - 1)
                    .copied()
                    .unwrap_or(f64::NAN),
                phases_secs,
            }
        })
        .collect();
    // Table 2's qualitative shape, reproduced from instrumented phases:
    // (a) total grows with hop count,
    // (b) growth is superlinear and carried by the equalization phase,
    // (c) EMS bookkeeping + optical settling dominate the total.
    for w in table2.windows(2) {
        assert!(
            w[1].total_secs > w[0].total_secs,
            "setup latency must grow with hop count"
        );
    }
    if table2.len() >= 3 {
        let eq = |r: &HopRow| r.phases_secs.get("phase.equalize").copied().unwrap_or(0.0);
        assert!(
            eq(&table2[2]) - eq(&table2[1]) > eq(&table2[1]) - eq(&table2[0]),
            "equalization increments must grow (superlinear in hops)"
        );
    }
    for r in &table2 {
        let slow = [
            "phase.session",
            "phase.tune",
            "phase.validate",
            "phase.equalize",
        ]
        .iter()
        .filter_map(|k| r.phases_secs.get(*k))
        .sum::<f64>();
        assert!(
            slow > 0.7 * r.total_secs,
            "EMS + optical settling must dominate ({}h: {slow:.2}/{:.2})",
            r.hops,
            r.total_secs
        );
    }

    // ── teardown, sub-λ, restoration, policy aggregates ───────────────
    let mut td_total = SimDuration::ZERO;
    let mut td_count = 0;
    let mut subwl_total = SimDuration::ZERO;
    let mut subwl_count = 0;
    let mut queue_wait = SimDuration::ZERO;
    let mut policy_decisions = 0u64;
    for s in scenarios {
        // Teardown mean is the *wavelength* teardown (paper: ~10 s); the
        // OTN and policy scenarios also tear circuits down, but those are
        // electronic or mixed and would skew the comparison.
        if s.name.starts_with("setup") {
            if let Some(r) = single_rollup(&s.spans, "conn.teardown") {
                td_total += r.total;
                td_count += r.count;
            }
        }
        if let Some(r) = single_rollup(&s.spans, "conn.subwl_setup") {
            subwl_total += r.total;
            subwl_count += r.count;
        }
        for sp in &s.spans {
            if sp.name == "restore.queue_wait" {
                queue_wait = queue_wait.max(sp.duration().unwrap_or(SimDuration::ZERO));
            }
            if sp.name == "policy.order" || sp.name == "policy.release" {
                policy_decisions += 1;
            }
        }
    }
    let teardown_secs = mean_secs(td_total, td_count);
    let subwl_setup_secs = mean_secs(subwl_total, subwl_count);
    assert!(
        td_count > 0 && subwl_count > 0,
        "scenarios must cover teardown and OTN"
    );
    // Setup ≫ teardown ≫ electronic sub-λ setup (paper §3 and §1).
    assert!(
        table2[0].total_secs > 5.0 * teardown_secs,
        "setup must dwarf teardown"
    );
    assert!(
        subwl_setup_secs < teardown_secs,
        "electronic OTN setup must be faster than optical teardown"
    );
    assert!(
        policy_decisions > 0,
        "policy scenario must record scheduler decisions"
    );
    assert!(
        queue_wait >= SimDuration::from_secs(60),
        "serialized restoration must expose ≥ one setup of queue wait"
    );

    // ── Chrome trace export ───────────────────────────────────────────
    let groups: Vec<(&str, &[Span])> = scenarios
        .iter()
        .map(|s| (s.name, s.spans.as_slice()))
        .collect();
    let chrome = span::chrome_trace(&groups);

    let spans_recorded = scenarios.iter().map(|s| s.spans.len() as u64).sum();
    let report = TraceReport {
        header: crate::BenchHeader::new("trace", "default"),
        benchmark: "trace".to_string(),
        table2,
        teardown_secs,
        subwl_setup_secs,
        restore_queue_wait_secs: secs(queue_wait),
        policy_decisions,
        spans_recorded,
        spans_dropped: scenarios.iter().map(|s| s.dropped).sum(),
        chrome_trace_file: String::new(),
    };
    (report, chrome)
}

/// Render the human-readable summary table.
fn render(report: &TraceReport, scenarios: &[Scenario]) -> String {
    let phase_cols = [
        ("phase.session", "session"),
        ("phase.fxc", "fxc"),
        ("phase.roadm", "roadm"),
        ("phase.tune", "tune"),
        ("phase.validate", "validate"),
        ("phase.equalize", "equalize"),
    ];
    let mut headers: Vec<&str> = vec!["hops"];
    headers.extend(phase_cols.iter().map(|(_, h)| *h));
    headers.extend_from_slice(&["phase sum", "total", "paper"]);
    let rows: Vec<Vec<String>> = report
        .table2
        .iter()
        .map(|r| {
            let mut row = vec![r.hops.to_string()];
            for (k, _) in phase_cols {
                row.push(format!(
                    "{:.2}",
                    r.phases_secs.get(k).copied().unwrap_or(0.0)
                ));
            }
            row.push(format!("{:.2}", r.phase_sum_secs));
            row.push(format!("{:.2}", r.total_secs));
            row.push(format!("{:.2}", r.paper_secs));
            row
        })
        .collect();
    let mut out = format!(
        "TRACE — mechanistic Table 2: per-phase setup seconds by hop count\n\
         (every row aggregated from spans; phase sums tile the measured totals exactly)\n{}",
        table::render(&headers, &rows)
    );
    out.push_str(&format!(
        "\nteardown {:.2} s mean | sub-λ (OTN) setup {:.2} s mean | \
         longest restoration queue wait {:.1} s | {} policy decision spans\n\
         {} spans across {} scenarios",
        report.teardown_secs,
        report.subwl_setup_secs,
        report.restore_queue_wait_secs,
        report.policy_decisions,
        report.spans_recorded,
        scenarios.len(),
    ));
    for s in scenarios {
        for w in &s.warnings {
            out.push('\n');
            out.push_str(w);
        }
    }
    out
}

/// Minimal typed view of a Chrome trace, used to re-parse the exporter's
/// hand-written JSON as a structural validity gate (the span exporter
/// writes its JSON by hand, so the export path never sees a serializer).
#[derive(serde::Deserialize)]
struct ChromeTrace {
    /// The trace's event list.
    #[serde(rename = "traceEvents")]
    trace_events: Vec<ChromeEvent>,
}

/// One trace event: phase letter plus the timing fields "X" events carry.
#[derive(serde::Deserialize)]
struct ChromeEvent {
    ph: String,
    #[serde(default)]
    ts: Option<f64>,
    #[serde(default)]
    dur: Option<f64>,
}

/// Parse a Chrome trace and check the invariants the viewer relies on:
/// valid JSON, one complete ("X") event per recorded span, and a
/// numeric `ts`/`dur` pair on every one of them.
pub fn check_chrome_trace(chrome: &str, expected_spans: u64) {
    let parsed: ChromeTrace =
        serde_json::from_str(chrome).expect("chrome trace must be valid JSON");
    let complete = parsed.trace_events.iter().filter(|e| e.ph == "X").count() as u64;
    assert_eq!(
        complete, expected_spans,
        "every span must appear exactly once as a complete event"
    );
    for e in &parsed.trace_events {
        if e.ph == "X" {
            assert!(
                e.ts.is_some() && e.dur.is_some(),
                "complete events must carry matching ts/dur"
            );
        }
    }
}

/// Run every scenario, write `BENCH_trace.json` and the Chrome trace
/// file, and return the human-readable summary.
pub fn emit(bench_path: &str, chrome_path: &str) -> String {
    let scenarios = scenarios();
    let (mut report, chrome) = build(&scenarios);
    report.chrome_trace_file = chrome_path.to_string();
    check_chrome_trace(&chrome, report.spans_recorded);
    std::fs::write(chrome_path, &chrome).expect("write chrome trace");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(bench_path, &json).expect("write BENCH_trace.json");
    let mut out = render(&report, &scenarios);
    out.push_str(&format!("\nwrote {bench_path} and {chrome_path}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_scenario_phase_sums_match_controller_reports() {
        // check_scenario (inside build) asserts the tiling invariant;
        // here just make sure the 1-hop scenario hits Table 2 row 1.
        let s = setup_scenario(1);
        check_scenario(&s);
        let (_, setup) = (&s.reported[0].0, s.reported[0].1);
        assert!((setup.as_secs_f64() - PAPER_SETUP_SECS[0]).abs() < 0.01);
        assert!(s.warnings.is_empty());
    }

    #[test]
    fn report_reproduces_table2_shape() {
        let scenarios = scenarios();
        let (report, chrome) = build(&scenarios);
        assert_eq!(report.table2.len(), 3);
        for (r, paper) in report.table2.iter().zip(PAPER_SETUP_SECS) {
            assert!(
                (r.total_secs - paper).abs() < 0.01,
                "{}h: {} vs paper {paper}",
                r.hops,
                r.total_secs
            );
            assert!((r.phase_sum_secs - r.total_secs).abs() < 1e-9);
        }
        check_chrome_trace(&chrome, report.spans_recorded);
        assert!(report.spans_recorded > 100);
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let a = build(&scenarios()).1;
        let b = build(&scenarios()).1;
        assert_eq!(a, b, "chrome trace must be deterministic");
    }
}
