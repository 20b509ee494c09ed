//! Serve artifact determinism: every number in the serve grid except
//! the host intents/sec column is sim time (admission latencies are
//! arrival → hand-off on the event clock), so the reduced grid plus the
//! fairness pair is a pure function of the embedded configuration — and
//! must match the committed golden file byte for byte. Regenerate as
//! `tests/support/goldens.rs` says.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn report_matches_committed_golden() {
    goldens::match_committed("serve", &goldens::two_builds_agree("serve"));
}
