//! Smoke test of the benchmark itself: every workload, at `--quick` size,
//! prints every metric `BENCHMARK.json` names — present, finite and tagged
//! with the unit the file gives it — and passes its own output checks.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn run(workload: &str, trace: &str) -> ResultLine {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--quick"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result object")
}

#[test]
fn every_named_metric_is_reported() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let spec: Spec = serde_json::from_str(&spec).expect("BENCHMARK.json parses");
    assert_eq!(spec.workloads.len(), 5);
    for w in &spec.workloads {
        for (trace, expected) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let r = run(&w.name, trace);
            assert!(
                r.correct,
                "{} --trace {trace}: output checks failed",
                w.name
            );
            assert!(
                r.attempted >= 1 && r.failed == 0,
                "{}: {} failed",
                w.name,
                r.failed
            );
            assert_eq!(
                r.metrics.len(),
                expected.len(),
                "{} --trace {trace}: exactly the named metrics",
                w.name
            );
            for m in expected {
                let v = r
                    .metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{} --trace {trace}: {} missing", w.name, m.name));
                assert!(v.value.is_finite(), "{}: {} = {}", w.name, m.name, v.value);
                assert_eq!(v.unit, m.unit, "{}: unit of {}", w.name, m.name);
            }
        }
    }
}
