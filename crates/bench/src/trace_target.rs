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
//!
//! Each scenario is one [`crate::harness`] cell whose observer
//! is the span recorder: the harness runs it with spans off and on and
//! requires equal state digests, runs it on 1/2/8 workers, and fails the
//! run on any dropped span. The Chrome trace is the golden
//! (`tests/golden/trace_chrome.json`).

use std::collections::BTreeMap;

use griphon::controller::Controller;
use photonic::{LineRate, TestbedIds};
use serde::Serialize;
use simcore::span::{self, RootRollup};
use simcore::{DataRate, SimDuration, Span};

use crate::experiments::{order, pin_route, quiet_testbed, TABLE2_PAPER_SECS};
use crate::harness::{
    ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, Runs, Sweep,
};
use crate::table;

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
}

/// A scenario body: drives a controller (spans on or off) and returns
/// it with the latencies it reported.
type Body = fn(bool) -> (Controller, Vec<(&'static str, SimDuration)>);

fn traced_testbed(ots: usize, spans: bool) -> (Controller, TestbedIds) {
    let (mut ctl, ids) = quiet_testbed(ots);
    ctl.spans.set_enabled(spans);
    (ctl, ids)
}

/// One wavelength setup + teardown along a pinned `hops`-hop route on
/// the Fig. 4 testbed (routes pinned exactly as the paper pinned paths
/// I–IV, I–III–IV, I–II–III–IV: by removing the shorter alternatives).
fn setup_scenario(hops: usize, spans: bool) -> (Controller, Vec<(&'static str, SimDuration)>) {
    let (mut ctl, ids) = traced_testbed(4, spans);
    pin_route(&mut ctl, &ids, hops);
    let csp = ctl.tenants.register("lab", DataRate::from_gbps(100));
    let id = order(&mut ctl, csp, &ids);
    ctl.run_until_idle();
    let conn = ctl.connection(id).unwrap();
    assert_eq!(conn.wavelength_plan().unwrap().hops(), hops);
    let setup = conn.activated_at.unwrap().since(conn.requested_at);
    let t0 = ctl.now();
    ctl.request_teardown(id).unwrap();
    ctl.run_until_idle();
    let teardown = ctl.now().since(t0);
    (
        ctl,
        vec![("conn.setup", setup), ("conn.teardown", teardown)],
    )
}

/// A fiber cut hitting two circuits: serialized restorations whose
/// second root carries genuine EMS queue wait.
fn restoration_scenario(spans: bool) -> (Controller, Vec<(&'static str, SimDuration)>) {
    let (mut ctl, ids) = traced_testbed(8, spans);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
    for _ in 0..2 {
        order(&mut ctl, csp, &ids);
    }
    ctl.run_until_idle();
    ctl.inject_fiber_cut(ids.f_i_iv, 0);
    ctl.run_until_idle();
    (ctl, Vec::new())
}

/// OTN layer: trunk turn-up, a groomed sub-wavelength circuit, and its
/// electronic teardown — the "seconds, not a minute" contrast.
fn otn_scenario(spans: bool) -> (Controller, Vec<(&'static str, SimDuration)>) {
    let (mut ctl, ids) = traced_testbed(8, spans);
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
    (ctl, vec![("conn.subwl_setup", sub_setup)])
}

/// The cloud scheduler ordering and releasing wavelengths against a
/// bulk-replication backlog: policy decisions as instant spans alongside
/// the setup workflows they trigger.
fn policy_scenario(spans: bool) -> (Controller, Vec<(&'static str, SimDuration)>) {
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
    let (mut ctl, ids) = traced_testbed(10, spans);
    let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
    let _ = BodPolicy::default().run(&mut ctl, csp, ids.i, ids.iv, jobs, horizon, tick);
    // Close any workflow still in flight at the horizon so every span
    // stream the exporter sees is well-formed.
    ctl.run_until_idle();
    (ctl, Vec::new())
}

/// Every scenario, in a fixed deterministic order.
fn bodies() -> Vec<(&'static str, Body)> {
    vec![
        ("setup-1hop", |s| setup_scenario(1, s)),
        ("setup-2hop", |s| setup_scenario(2, s)),
        ("setup-3hop", |s| setup_scenario(3, s)),
        ("restoration", restoration_scenario),
        ("otn", otn_scenario),
        ("policy", policy_scenario),
    ]
}

/// `repro trace`: one cell per scenario; the observer is the span
/// recorder.
pub struct Trace;

impl Experiment for Trace {
    const NAME: &'static str = "trace";
    const IDENTITY: Identity = Identity::Observer;
    type Point = ();
    type Cell = (&'static str, Body);
    type Out = Scenario;
    type Report = TraceReport;

    fn points(&self, _: Sweep) -> Vec<()> {
        vec![()]
    }

    fn cells(&self, _: &()) -> Vec<Self::Cell> {
        bodies()
    }

    fn label(&self, _: &(), cell: &Self::Cell) -> String {
        cell.0.to_string()
    }

    fn run(
        &self,
        _: &(),
        &(name, body): &Self::Cell,
        spans: bool,
    ) -> Result<CellRun<Scenario>, String> {
        let (mut ctl, reported) = body(spans);
        let drops = ctl.spans.dropped() + ctl.trace.dropped();
        let s = Scenario {
            name,
            spans: ctl.spans.take_spans(),
            reported,
        };
        // A stream with dropped spans cannot tile; the harness's drop
        // gate names that cause instead.
        if spans && drops == 0 {
            check_scenario(&s)?;
        }
        Ok(CellRun {
            digest: ctl.state_digest_crc(),
            text: span::chrome_trace(&[(name, &s.spans)]),
            drops,
            out: s,
        })
    }

    fn finish(&self, _: &Ctx, runs: Runs<Self>) -> Result<Finished<TraceReport>, GateError> {
        let scenarios: Vec<Scenario> = runs
            .into_iter()
            .flat_map(|p| p.main)
            .map(|c| c.out)
            .collect();
        let (report, chrome) =
            build(&scenarios).map_err(|e| GateError::new(Self::NAME, "table2", e))?;
        check_chrome_trace(&chrome, report.spans_recorded)
            .map_err(|e| GateError::new(Self::NAME, "chrome trace", e))?;
        Ok(Finished {
            summary: render(&report, scenarios.len()),
            report,
            files: vec![(CHROME_FILE, chrome.clone())],
            goldens: vec![("trace_chrome.json", chrome)],
        })
    }
}

/// The Chrome trace-event file written beside `BENCH_trace.json`.
const CHROME_FILE: &str = "BENCH_trace_chrome.json";

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
fn check_scenario(s: &Scenario) -> Result<(), String> {
    span::validate(&s.spans).map_err(|e| format!("invalid span stream: {e}"))?;
    for (root_name, reported) in &s.reported {
        let r = single_rollup(&s.spans, root_name).ok_or(format!("no {root_name} root span"))?;
        let per_root_total = SimDuration::from_nanos(r.total.as_nanos() / r.count);
        ensure!(
            per_root_total == *reported,
            "{root_name} root span {per_root_total} disagrees with the controller's \
             reported {reported}"
        );
        ensure!(
            r.phase_sum() == r.total,
            "{root_name} phases do not tile the workflow"
        );
    }
    Ok(())
}

/// Build the report and the Chrome trace from the scenarios, gating
/// Table 2's shape and the §3 ordering setup ≫ teardown ≫ sub-λ setup.
fn build(scenarios: &[Scenario]) -> Result<(TraceReport, String), String> {
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
                paper_secs: TABLE2_PAPER_SECS
                    .get(r.group as usize - 1)
                    .copied()
                    .unwrap_or(f64::NAN),
                phases_secs,
            }
        })
        .collect();
    // Table 2 reproduced from instrumented phases: the calibrated model
    // hits the paper's means, and its shape holds —
    // (a) total grows with hop count,
    // (b) growth is superlinear and carried by the equalization phase,
    // (c) EMS bookkeeping + optical settling dominate the total.
    ensure!(
        table2.len() == 3,
        "expected 1-3 hop rows, got {}",
        table2.len()
    );
    for (r, paper) in table2.iter().zip(TABLE2_PAPER_SECS) {
        ensure!(
            (r.total_secs - paper).abs() < 0.01,
            "{}h setup {:.3} s misses the paper's {paper} s",
            r.hops,
            r.total_secs
        );
    }
    for w in table2.windows(2) {
        ensure!(
            w[1].total_secs > w[0].total_secs,
            "setup latency must grow with hop count"
        );
    }
    let eq = |r: &HopRow| r.phases_secs.get("phase.equalize").copied().unwrap_or(0.0);
    ensure!(
        eq(&table2[2]) - eq(&table2[1]) > eq(&table2[1]) - eq(&table2[0]),
        "equalization increments must grow (superlinear in hops)"
    );
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
        ensure!(
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
    ensure!(
        td_count > 0 && subwl_count > 0,
        "scenarios must cover teardown and OTN"
    );
    // Setup ≫ teardown ≫ electronic sub-λ setup (paper §3 and §1).
    ensure!(
        table2[0].total_secs > 5.0 * teardown_secs,
        "setup must dwarf teardown"
    );
    ensure!(
        subwl_setup_secs < teardown_secs,
        "electronic OTN setup must be faster than optical teardown"
    );
    ensure!(
        policy_decisions > 0,
        "policy scenario must record scheduler decisions"
    );
    ensure!(
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
        table2,
        teardown_secs,
        subwl_setup_secs,
        restore_queue_wait_secs: secs(queue_wait),
        policy_decisions,
        spans_recorded,
        spans_dropped: 0,
        chrome_trace_file: CHROME_FILE.to_string(),
    };
    Ok((report, chrome))
}

/// Render the human-readable summary table.
fn render(report: &TraceReport, scenarios: usize) -> String {
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
    format!(
        "TRACE — mechanistic Table 2: per-phase setup seconds by hop count\n\
         (every row aggregated from spans; phase sums tile the measured totals exactly)\n{}\n\
         teardown {:.2} s mean | sub-λ (OTN) setup {:.2} s mean | \
         longest restoration queue wait {:.1} s | {} policy decision spans\n\
         {} spans across {} scenarios",
        table::render(&headers, &rows),
        report.teardown_secs,
        report.subwl_setup_secs,
        report.restore_queue_wait_secs,
        report.policy_decisions,
        report.spans_recorded,
        scenarios,
    )
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
fn check_chrome_trace(chrome: &str, expected_spans: u64) -> Result<(), String> {
    let parsed: ChromeTrace =
        serde_json::from_str(chrome).map_err(|e| format!("not valid JSON: {e}"))?;
    let complete: Vec<&ChromeEvent> = parsed.trace_events.iter().filter(|e| e.ph == "X").collect();
    ensure!(
        complete.len() as u64 == expected_spans,
        "{} complete events for {expected_spans} spans",
        complete.len()
    );
    ensure!(
        complete.iter().all(|e| e.ts.is_some() && e.dur.is_some()),
        "a complete event lacks ts/dur"
    );
    Ok(())
}
