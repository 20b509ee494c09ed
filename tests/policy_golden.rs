//! The transfer-policy experiments pinned to their committed text: E5
//! (static line, store-and-forward, BoD and deadline BoD over one week),
//! E5b (three-pair multi-pair BoD on one carrier), Fig. 6 and Fig. 7.
//! Every number in those tables comes out of `cloud::scheduler`;
//! `tests/event_engine.rs` rebuilds each Fig. 6 and Fig. 7 row against
//! the fixed-tick oracles and requires it in the same golden file.
//!
//! If a change intentionally alters a policy, regenerate with
//! `for t in e5-bulk e5b-full-mesh fig6 fig7; do repro $t; done >
//! tests/golden/policies.txt` (the release `repro` binary of
//! `griphon-bench`).

use griphon_bench::experiments;

#[test]
fn policy_tables_match_committed_golden() {
    let text: String = [
        experiments::e5_bulk(),
        experiments::e5b_full_mesh(),
        experiments::fig6(),
        experiments::fig7(),
    ]
    .iter()
    .map(|table| format!("{table}\n"))
    .collect();
    let golden = include_str!("golden/policies.txt");
    assert_eq!(
        text, golden,
        "policy tables drifted from tests/golden/policies.txt"
    );
}
