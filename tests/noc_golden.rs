//! NOC artifact determinism: the `repro noc` scenarios are a pure
//! function of their fixed seeds, so the Prometheus exposition and the
//! machine-readable `BENCH_noc.json` must be byte-identical across runs
//! — and must match the committed golden files. Regenerate as
//! `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn two_runs_produce_byte_identical_artifacts() {
    goldens::two_builds_agree("noc");
}

#[test]
fn artifacts_match_committed_goldens() {
    goldens::match_committed("noc", &goldens::build("noc"));
}
