//! The artifact targets' golden files. Every deterministic artifact
//! `repro` writes — expositions, the Chrome trace, sim-time-only
//! reports — is rendered by the experiment harness from a reduced run
//! (`griphon_bench::harness::goldens`); the `*_golden.rs` tests build a
//! target's goldens, require two builds to be byte-equal and compare
//! them with `tests/golden/*` byte for byte. `scale` pins no golden: its
//! report is host time around sim-time digests, which
//! `tests/determinism.rs` holds to the identity gates instead.
//!
//! If a change intentionally alters an artifact, regenerate every golden
//! with `cargo test --release --test artifact_goldens -- --ignored regenerate`
//! and review the diff. Test-only: nothing outside `tests/` includes
//! this file.

#![allow(dead_code)] // each test binary uses its own subset

use griphon_bench::harness::{self, GateError};
use griphon_bench::{
    ha_target, measure_target, noc_target, serve_target, slo_target, trace_target,
};

/// Builds one target's goldens: `(name under tests/golden, bytes)`.
type Build = fn() -> Result<Vec<(&'static str, String)>, GateError>;

/// Every artifact target with goldens, and how to build them.
pub const TARGETS: &[(&str, Build)] = &[
    ("trace", || harness::goldens(&trace_target::Trace)),
    ("noc", || harness::goldens(&noc_target::Noc)),
    ("ha", || harness::goldens(&ha_target::Ha)),
    ("slo", || harness::goldens(&slo_target::Slo)),
    ("measure", || harness::goldens(&measure_target::Measure)),
    ("serve", || harness::goldens(&serve_target::Serve)),
];

pub fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `target`'s goldens, built once; a failed gate panics with its message.
pub fn build(target: &str) -> Vec<(&'static str, String)> {
    let (_, build) = TARGETS
        .iter()
        .find(|(name, _)| *name == target)
        .unwrap_or_else(|| panic!("{target} pins no golden"));
    let goldens = build().unwrap_or_else(|e| panic!("{e}"));
    assert!(!goldens.is_empty(), "{target} pins no golden");
    goldens
}

/// Two builds of `target`'s goldens are byte-equal; returns the first.
pub fn two_builds_agree(target: &str) -> Vec<(&'static str, String)> {
    let first = build(target);
    let second = build(target);
    assert_eq!(first.len(), second.len(), "{target}: the builds differ");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        assert!(
            a == b,
            "{target}: two builds of {name} differ at {}",
            harness::first_difference(a, b)
        );
    }
    first
}

/// Every golden in `goldens` equals its file under `tests/golden/`.
pub fn match_committed(target: &str, goldens: &[(&'static str, String)]) {
    for (name, bytes) in goldens {
        let golden = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("read tests/golden/{name}: {e}"));
        assert!(
            *bytes == golden,
            "{target}: {name} drifted from tests/golden/{name} at {} — if the change \
             is intentional, regenerate with `cargo test --release --test \
             artifact_goldens -- --ignored regenerate`",
            harness::first_difference(bytes, &golden)
        );
    }
}
