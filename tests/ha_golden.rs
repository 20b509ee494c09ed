//! HA artifact determinism: the `repro ha` crash schedule is a pure
//! function of the embedded scenarios (all latencies are sim time, no
//! host wall clock), so `BENCH_ha.json` must be byte-identical across
//! runs — and must match the committed golden file. Regenerate as
//! `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn report_matches_committed_golden() {
    goldens::match_committed("ha", &goldens::two_builds_agree("ha"));
}
