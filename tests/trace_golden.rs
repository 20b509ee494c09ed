//! Span-stream determinism: the `repro trace` scenarios are a pure
//! function of their (fixed) seeds, so two runs must produce
//! byte-identical span streams — and therefore byte-identical Chrome
//! trace JSON — and the JSON must match the committed golden file.
//! Regenerate as `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn two_runs_produce_byte_identical_chrome_traces() {
    goldens::two_builds_agree("trace");
}

#[test]
fn chrome_trace_matches_committed_golden() {
    goldens::match_committed("trace", &goldens::build("trace"));
}
