//! The shipped `scenarios/*.json` files must always parse and run —
//! they are documentation that executes — and their transcripts are
//! pinned to `tests/golden/scenarios.txt`.
//!
//! If a change intentionally alters a transcript, regenerate with
//! `cargo test --release --test artifact_goldens -- --ignored regenerate`
//! and review the diff.

#[path = "support/goldens.rs"]
mod goldens;

#[test]
fn testbed_outage_scenario_runs() {
    let out = goldens::run_scenario("scenarios/testbed_outage.json");
    assert!(out.contains("CUT I–IV"), "{out}");
    assert!(out.contains("maintenance done I–III"), "{out}");
    // Both reports present plus the final state.
    assert_eq!(out.matches("===== report at").count(), 2);
    assert!(out.contains("===== final state"));
    // The 1+1 circuit's 50 ms switchover shows in the metrics.
    assert!(out.contains("protection.switch_ms"), "{out}");
}

#[test]
fn backbone_week_scenario_runs() {
    let out = goldens::run_scenario("scenarios/backbone_week.json");
    assert!(out.contains("Seattle"), "{out}");
    assert!(out.contains("CUT Lincoln–Champaign"));
    assert!(out.contains("===== final state at t+168h00m00s"), "{out}");
    // All three circuits end the week up.
    let final_part = out.split("===== final state").last().unwrap();
    assert_eq!(final_part.matches("[up]").count(), 3, "{final_part}");
}

#[test]
fn shipped_scenarios_are_deterministic() {
    for f in goldens::SCENARIOS {
        assert_eq!(
            goldens::run_scenario(f),
            goldens::run_scenario(f),
            "{f} must replay identically"
        );
    }
}

#[test]
fn scenario_transcripts_match_committed_golden() {
    goldens::match_committed("scenarios", &[("scenarios.txt", goldens::scenario_text())]);
}
