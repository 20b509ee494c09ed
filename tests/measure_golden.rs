//! Measurement-plane artifact determinism: the exposition `repro
//! measure` writes — the stationary scenario's estimated-mode metric
//! families (estimate/error histograms with exemplars, probe counters,
//! sampler gauges) — is a pure function of the fixed seeds and must
//! match the committed golden byte for byte. Regenerate as
//! `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn exposition_matches_committed_golden() {
    goldens::match_committed("measure", &goldens::two_builds_agree("measure"));
}
