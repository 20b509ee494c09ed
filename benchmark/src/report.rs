//! Metric tables, the per-layer ledger, and the result documents the suite
//! writes and `compare` reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::workloads::Facts;

pub const WORKLOADS: [&str; 5] = [
    "edge-flood",
    "day",
    "bod-mesh",
    "lambda-cold",
    "storm-recover",
];

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_op", "1/op"),
    ("alloc_bytes_per_op", "B/op"),
    ("served_share", "ratio"),
];

/// One per-layer metric. `exact` metrics repeat bit for bit for a seed.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn exact(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: false,
    }
}

/// Layers the ledger accounts region time to, with the metric each reports as.
pub const LEDGER: [(&str, &str); 8] = [
    ("northbound", "ledger.northbound_s"),
    ("controller", "ledger.controller_s"),
    ("rwa", "ledger.rwa_s"),
    ("cloud", "ledger.cloud_s"),
    ("wal", "ledger.wal_s"),
    ("noc", "ledger.noc_s"),
    ("fault", "ledger.fault_s"),
    ("simcore", "ledger.simcore_s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A metric a workload
/// does not reach reads 0 there.
pub const PER_LAYER: &[LayerMetric] = &[
    exact("northbound.requests", "count"),
    exact("northbound.admitted", "count"),
    exact("northbound.rejected_401", "count"),
    exact("northbound.rejected_429", "count"),
    exact("northbound.rejected_503", "count"),
    exact("northbound.rejected_403", "count"),
    exact("northbound.useful_ratio", "ratio"),
    timed("northbound.fleet_gen_s", "s"),
    timed("northbound.run_s", "s"),
    timed("northbound.finish_s", "s"),
    timed("northbound.edge_self_s", "s"),
    timed("northbound.edge_ns_per_request", "ns"),
    exact("northbound.queue_high_water", "depth"),
    exact("northbound.admit_p99_sim_ms", "sim-ms"),
    timed("controller.replay_s", "s"),
    timed("controller.replay_us_per_intent", "us"),
    timed("controller.request_s", "s"),
    timed("controller.request_p50_us", "us"),
    timed("controller.request_p99_us", "us"),
    timed("controller.run_until_s", "s"),
    timed("controller.teardown_s", "s"),
    timed("controller.batch_commit_s", "s"),
    exact("controller.events", "count"),
    timed("controller.events_per_s", "1/s"),
    timed("controller.digest_s", "s"),
    exact("controller.blocked", "count"),
    exact("controller.setup_p50_sim_s", "sim-s"),
    exact("rwa.cache_hit_ratio", "ratio"),
    exact("rwa.cache_evictions", "count"),
    timed("rwa.plan_ns_per_call", "ns"),
    timed("rwa.plan_p99_us", "us"),
    exact("cloud.jobs", "count"),
    exact("cloud.completed", "count"),
    exact("cloud.setups", "count"),
    timed("cloud.run_s", "s"),
    timed("cloud.policy_self_s", "s"),
    timed("cloud.jobs_per_s", "1/s"),
    exact("wal.records", "count"),
    exact("wal.bytes", "B"),
    exact("wal.segments", "count"),
    timed("wal.on_off_delta_s", "s"),
    timed("wal.append_ns_per_record", "ns"),
    timed("wal.decode_s", "s"),
    timed("wal.replay_s", "s"),
    timed("wal.recover_s", "s"),
    timed("wal.recover_records_per_s", "1/s"),
    exact("noc.scrapes", "count"),
    exact("noc.unattributed", "count"),
    timed("noc.on_off_delta_s", "s"),
    timed("noc.ms_per_scrape", "ms"),
    exact("fault.cuts", "count"),
    exact("fault.impacted", "count"),
    exact("fault.restored", "count"),
    exact("fault.restore_p50_sim_s", "sim-s"),
    timed("fault.inject_s", "s"),
    timed("fault.run_s", "s"),
    timed("simcore.sched_ns_per_event", "ns"),
    timed("simcore.crc_gib_per_s", "GiB/s"),
    timed("photonic.generate_s", "s"),
    exact("photonic.roadms", "count"),
    exact("photonic.fibers", "count"),
    exact("telemetry.span_dropped", "count"),
    exact("telemetry.trace_dropped", "count"),
    timed("trace.overhead_share", "ratio"),
    timed("ledger.northbound_s", "s"),
    timed("ledger.controller_s", "s"),
    timed("ledger.rwa_s", "s"),
    timed("ledger.cloud_s", "s"),
    timed("ledger.wal_s", "s"),
    timed("ledger.noc_s", "s"),
    timed("ledger.fault_s", "s"),
    timed("ledger.simcore_s", "s"),
    timed("ledger.sum_s", "s"),
    timed("ledger.residual_s", "s"),
];

/// The layer ledger: span self time per layer inside the region, then the
/// differencing and unit-cost figures move time out of the layer whose
/// span merely contains it (a product call the benchmark cannot open from
/// outside) into the layer that spent it. Every move is clamped to what
/// the source layer has, so the sum is preserved.
pub fn ledger(span_self: &BTreeMap<&'static str, f64>, untraced_wall_s: f64, facts: &mut Facts) {
    let mut l: BTreeMap<&str, f64> = LEDGER.iter().map(|(layer, _)| (*layer, 0.0)).collect();
    for (layer, s) in span_self {
        if let Some(slot) = l.get_mut(layer) {
            *slot += s;
        }
    }
    let fact = |f: &Facts, k: &str| f.get(k).copied();
    let mut mv = |from: &str, to: &str, secs: f64| {
        let secs = secs.clamp(0.0, l[from]);
        *l.get_mut(from).expect("ledger layer") -= secs;
        *l.get_mut(to).expect("ledger layer") += secs;
    };

    // `ApiServer::run` contains the controller: the replay of the admitted
    // stream on a bare controller is the controller's share of it.
    if let Some(replay) = fact(facts, "controller.replay_s") {
        mv("northbound", "controller", replay);
    }
    // `MultiPairBod::run` likewise; what is left is the policy itself.
    if let Some(policy) = fact(facts, "cloud.policy_self_s") {
        let cloud = span_self.get("cloud").copied().unwrap_or(0.0);
        mv("cloud", "controller", cloud - policy);
    }
    let carrier = if span_self.contains_key("fault") {
        "fault"
    } else {
        "controller"
    };
    if let Some(rwa) = fact(facts, "rwa.plan_total_s") {
        mv("controller", "rwa", rwa);
    }
    if let Some(delta) = fact(facts, "wal.on_off_delta_s") {
        // Batch commits are already spanned as `wal.journal_batch`.
        let spanned = fact(facts, "controller.batch_commit_s").unwrap_or(0.0);
        mv(carrier, "wal", delta - spanned);
    }
    if let Some(delta) = fact(facts, "noc.on_off_delta_s") {
        if carrier == "fault" {
            // The live storm and the recovery both scrape.
            mv("fault", "noc", delta / 2.0);
            mv("wal", "noc", delta / 2.0);
        } else {
            mv("controller", "noc", delta);
        }
    }
    if let Some(ns) = fact(facts, "simcore.sched_ns_per_event") {
        let events = fact(facts, "controller.events").unwrap_or(0.0);
        mv(carrier, "simcore", ns * events / 1e9);
        let arrivals = fact(facts, "northbound.requests").unwrap_or(0.0);
        mv("northbound", "simcore", ns * arrivals / 1e9);
    }

    let sum: f64 = l.values().sum();
    for (layer, metric) in LEDGER {
        facts.insert(metric, l[layer]);
    }
    facts.insert("ledger.sum_s", sum);
    facts.insert("ledger.residual_s", untraced_wall_s - sum);
}

/// A metric value with its unit, as the result line carries it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

/// The last line a run prints: exactly these keys.
#[derive(Debug, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Value>,
}

/// The line before it: what the suite needs beyond the contract's keys.
#[derive(Debug, Serialize, Deserialize)]
pub struct DetailLine {
    pub workload: String,
    pub seed: u64,
    pub rounds: u64,
    /// Host seconds of the best round's timed region: `ops_per_s` is the
    /// ops over this (informational).
    pub wall_s: f64,
    pub digest: u32,
    /// Exact per-layer counts of the run.
    pub exact: BTreeMap<String, f64>,
    pub errors: Vec<String>,
}

/// Median, extremes and the raw values of one metric over the repeats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stat {
    pub unit: String,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: u64,
    pub values: Vec<f64>,
}

impl Stat {
    pub fn of(unit: &str, values: Vec<f64>) -> Stat {
        Stat {
            unit: unit.to_string(),
            median: median(&values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len() as u64,
            values,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub digest: u32,
    pub wall_s: Stat,
    pub end_to_end: BTreeMap<String, Stat>,
    pub exact: BTreeMap<String, f64>,
    /// Present after `suite --traced`.
    pub per_layer: BTreeMap<String, Value>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Header {
    pub schema_version: u32,
    pub git_commit: String,
    pub seed: u64,
    pub nproc: u64,
    pub rustc: String,
    pub repeats: u64,
    pub run_seconds: u64,
    pub quick: bool,
}

/// `benchmark/out/results.json`.
#[derive(Debug, Serialize, Deserialize)]
pub struct Results {
    pub header: Header,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The `q`-quantile of an ascending slice by nearest rank; 0 when empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile, with the quartiles where
/// Python's `statistics.quantiles(values, n=4)` puts them.
pub fn interquartile_range(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return 0.0;
    }
    let at = |q: f64| {
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let below = pos.floor() as usize;
        let next = (below + 1).min(v.len());
        v[below - 1] + (pos - below as f64) * (v[next - 1] - v[below - 1])
    };
    at(0.75) - at(0.25)
}

/// The part of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<SpecMetric>,
}

#[derive(Debug, Deserialize)]
pub struct SpecMetric {
    pub name: String,
    pub better: String,
    pub bound: f64,
}

/// `BENCHMARK.json`, from the repo root or from inside `benchmark/`.
pub fn load_spec() -> Result<Spec, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `compare A.json B.json`: per workload × end-to-end metric, both medians
/// and ranges, the change of B against A relative to the bound, and a
/// verdict — `regressed` when B's median is worse by more than the bound,
/// `unresolved` when either side's interquartile spread is wider than the
/// bound (unless every run of B beats every run of A); then digests and
/// exact counts, which must not differ at all.
/// Returns the report and whether anything regressed, was unresolved or
/// differed.
pub fn compare(a: &Results, b: &Results, spec: &Spec) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut bad = false;
    let method = |h: &Header| (h.quick, h.run_seconds, h.repeats);
    if method(&a.header) != method(&b.header) {
        bad = true;
        let _ = writeln!(
            out,
            "NOT COMPARABLE: (quick, run_seconds, repeats) {:?} vs {:?}",
            method(&a.header),
            method(&b.header)
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<19} {:>13} {:>25} {:>13} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "delta", "bound"
    );
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.workloads.get(w), b.workloads.get(w)) else {
            let _ = writeln!(out, "{w:<14} missing from one side");
            bad = true;
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (ra.end_to_end.get(&m.name), rb.end_to_end.get(&m.name))
            else {
                let _ = writeln!(out, "{w:<14} {:<19} missing from one side", m.name);
                bad = true;
                continue;
            };
            // Positive = B worse than A, as a share of A's median.
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse = sign * (sb.median - sa.median) / sa.median;
            let spread = |s: &Stat| interquartile_range(&s.values) / s.median;
            let b_all_better = if m.better == "lower" {
                sb.max < sa.min
            } else {
                sb.min > sa.max
            };
            let verdict = if worse > m.bound {
                "regressed"
            } else if spread(sa).max(spread(sb)) > m.bound && !b_all_better {
                "unresolved"
            } else {
                "ok"
            };
            bad |= verdict != "ok";
            let range = |s: &Stat| format!("{:.6}..{:.6}", s.min, s.max);
            let _ = writeln!(
                out,
                "{w:<14} {:<19} {:>13.6} {:>25} {:>13.6} {:>25} {:>+7.2}% {:>5.1}%  {verdict}",
                m.name,
                sa.median,
                range(sa),
                sb.median,
                range(sb),
                worse * 100.0,
                m.bound * 100.0,
            );
        }
        if a.header.seed == b.header.seed && a.header.quick == b.header.quick {
            let mut differing: Vec<String> = Vec::new();
            if ra.digest != rb.digest {
                differing.push(format!("digest {:08x} vs {:08x}", ra.digest, rb.digest));
            }
            for (k, va) in &ra.exact {
                match rb.exact.get(k) {
                    Some(vb) if vb.to_bits() == va.to_bits() => {}
                    other => differing.push(format!("{k} {va} vs {other:?}")),
                }
            }
            if differing.is_empty() {
                let _ = writeln!(
                    out,
                    "{w:<14} digest {:08x} and {} exact counts identical",
                    ra.digest,
                    ra.exact.len()
                );
            } else {
                bad = true;
                let _ = writeln!(out, "{w:<14} EXACT MISMATCH: {}", differing.join("; "));
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `statistics.quantiles(v, n=4)` gives q3 - q1 = 5.75 and 6.0 here.
    #[test]
    fn interquartile_range_matches_python() {
        assert_eq!(interquartile_range(&[1.0, 5.0, 2.0, 9.0, 4.0, 7.0]), 5.75);
        assert_eq!(interquartile_range(&[3.0, 1.0, 2.0, 10.0, 5.0]), 6.0);
        assert_eq!(interquartile_range(&[4.0]), 0.0);
    }
}
