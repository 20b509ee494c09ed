//! Fleet SLO artifact determinism: the exposition `repro slo` writes is
//! a pure function of the fixed seeds — the 14-ROADM sweep point's
//! fleet rollup plus the NSFNET fault week's registry — and must match
//! the committed golden byte for byte. Regenerate as
//! `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn exposition_matches_committed_golden() {
    goldens::match_committed("slo", &goldens::two_builds_agree("slo"));
}
