//! The transfer-policy experiments pinned to their committed text: E5
//! (static line, store-and-forward, BoD and deadline BoD over one week),
//! E5b (three-pair multi-pair BoD on one carrier), Fig. 6 and Fig. 7.
//! Every number in those tables comes out of `cloud::scheduler`;
//! `tests/event_engine.rs` runs each Fig. 6 and Fig. 7 cell, from the
//! figures' own set-up, against the fixed-tick oracles.
//!
//! If a change intentionally alters a policy, regenerate with
//! `cargo test --release --test artifact_goldens -- --ignored regenerate`
//! (it rewrites every golden, this one and `paper.txt` included) and
//! review the diff.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn policy_tables_match_committed_golden() {
    goldens::match_committed("policies", &[("policies.txt", goldens::policy_text())]);
}
