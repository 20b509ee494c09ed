//! The paper's quantitative and qualitative claims, asserted as tests.
//!
//! These are the "shape" guarantees `EXPERIMENTS.md` documents. Each
//! claim is a gate inside the `repro` target that prints it, checked on
//! the values it prints; a test here runs the target and fails with the
//! gate's message if a refactor breaks the calibration or inverts an
//! ordering the paper depends on.

use griphon_bench::experiments::{self, measure_setup};
use griphon_bench::harness::GateError;

/// The target's text, or a panic naming the target and the failed claim.
fn holds(target: Result<String, GateError>) -> String {
    target.unwrap_or_else(|e| panic!("{e}"))
}

/// Table 2: our means must sit within 3% of the paper's three points.
#[test]
fn table2_within_three_percent() {
    holds(experiments::table2());
}

/// Table 2's growth is superlinear in hops (the equalization mechanism),
/// and the increments match the paper's to within a second.
#[test]
fn table2_increments_match() {
    let (m1, _) = measure_setup(1, 10, 1);
    let (m2, _) = measure_setup(2, 10, 1);
    let (m3, _) = measure_setup(3, 10, 1);
    let d12 = m2 - m1;
    let d23 = m3 - m2;
    assert!(d23 > d12, "superlinear: {d12:.2} then {d23:.2}");
    assert!(
        (d12 - 3.19).abs() < 1.0,
        "paper increment 3.19, ours {d12:.2}"
    );
    assert!(
        (d23 - 5.27).abs() < 1.0,
        "paper increment 5.27, ours {d23:.2}"
    );
}

/// §1 item 3 ordering: 1+1 ≪ OTN shared-mesh ≪ GRIPhoN restoration ≪
/// manual repair, on E2's measured outages.
#[test]
fn restoration_hierarchy_holds() {
    holds(experiments::e2_restoration());
}

/// §2.2: bridge-and-roll is orders of magnitude gentler than a cold
/// reroute.
#[test]
fn bridge_and_roll_beats_cold_reroute_by_1000x() {
    holds(experiments::e3_maintenance());
}

/// §2.1: OTN grooming never lights more wavelength·links than
/// muxponder-only packing.
#[test]
fn grooming_dominance() {
    holds(experiments::e6_grooming());
}

/// §2.2's 12 G example decomposes exactly as the paper describes.
#[test]
fn composite_example_matches_paper() {
    let d = griphon::Decomposition::plan(simcore::DataRate::from_gbps(12));
    assert_eq!(d.wavelengths_10g, 1);
    assert_eq!(d.otn_1g, 2);
}

/// E7: per-hop equalization makes setup superlinear in hops, and the
/// optimized EMS brings a 2-hop setup under 10 s — §4's "no fundamental
/// limitations" claim.
#[test]
fn ablation_shapes() {
    holds(experiments::e7_ablation());
}

/// Every figure target renders non-empty and self-validates.
#[test]
fn figures_render() {
    assert!(holds(experiments::fig_layers(false)).contains("SONET"));
    assert!(holds(experiments::fig_layers(true)).contains("OTN"));
    let f4 = holds(experiments::fig4());
    assert!(f4.contains("3-degree"));
    let f3 = holds(experiments::fig3());
    assert!(f3.contains("[up]"));
}

/// Table 1 renders with all four vision rows quantified.
#[test]
fn table1_rows_present() {
    let t1 = holds(experiments::table1());
    for needle in [
        "dynamic configurable rate",
        "rapid connection setup",
        "reduced outage time",
        "minimal maintenance impact",
        "622",
        "bridge-and-roll",
    ] {
        assert!(t1.contains(needle), "missing {needle:?} in:\n{t1}");
    }
}
