//! Every paper target `repro` prints, pinned to its committed text:
//! Table 1 and 2, Figs. 1–4 (Fig. 3 with its controller-trace excerpt),
//! E1's teardown, E2/E2b's restoration, E3's bridge-and-roll hit, E4 and
//! E6–E10. The registry names the targets — every `Category::Paper`
//! target except `all` and the policy tables `tests/policy_golden.rs`
//! pins — so a new paper target is covered the day it is registered.
//!
//! If a change intentionally alters a paper number, regenerate with
//! `cargo test --release --test artifact_goldens -- --ignored regenerate`
//! and review the diff.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn paper_targets_match_committed_golden() {
    goldens::match_committed("paper", &[("paper.txt", goldens::paper_text())]);
}
