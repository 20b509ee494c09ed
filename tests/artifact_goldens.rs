//! Checks that span every artifact target: the CI `repro` matrix
//! names each of them, and the one regeneration path of every golden
//! (the `*_golden.rs` tests compare them; see `tests/support/goldens.rs`).

#[path = "support/goldens.rs"]
mod goldens;

/// The CI `repro` matrix names exactly the registry's artifact targets,
/// so a new target cannot silently miss CI.
#[test]
fn ci_matrix_names_every_artifact_target() {
    let ci = include_str!("../.github/workflows/ci.yml");
    let line = ci
        .lines()
        .find_map(|l| l.trim().strip_prefix("target: ["))
        .expect("ci.yml has a `target: [...]` matrix");
    let mut matrix: Vec<&str> = line
        .trim_end_matches(']')
        .split(',')
        .map(str::trim)
        .collect();
    let mut registry: Vec<&str> = griphon_bench::registry::TARGETS
        .iter()
        .filter(|t| t.category.writes_artifacts())
        .map(|t| t.name)
        .collect();
    matrix.sort_unstable();
    registry.sort_unstable();
    assert_eq!(
        matrix, registry,
        "the CI repro matrix and the registry disagree"
    );
}

/// Not a test: rewrites every golden from the current tree, the
/// artifact goldens and the printed tables (`policies.txt`,
/// `paper.txt`). Run with
/// `cargo test --release --test artifact_goldens -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    for (target, _) in goldens::TARGETS {
        for (name, bytes) in goldens::build(target) {
            std::fs::write(goldens::golden_path(name), bytes).expect("write golden");
        }
    }
    for (name, text) in goldens::TEXTS {
        std::fs::write(goldens::golden_path(name), text()).expect("write golden");
    }
}
