//! Optical power balancing and link equalization dynamics.
//!
//! When a new wavelength is turned up, every WSS and amplifier along the
//! path must converge to per-channel power targets without disturbing the
//! channels already running (§4, *DWDM layer management*). Deployed line
//! systems do this iteratively: measure power at each hop, adjust WSS
//! attenuation, wait for the amplifier control loops to settle, repeat
//! until within tolerance.
//!
//! This model is the mechanistic source of Table 2's superlinear growth
//! of setup time with hop count:
//!
//! - each added hop both *adds a measurement/adjustment site* (cost per
//!   iteration grows linearly in hops) and *couples another amplifier
//!   control loop into the convergence* (the number of iterations grows
//!   with hops too, one extra round per hop under the default policy);
//! - total time is therefore `iterations(n) × (per_hop × n + overhead)`,
//!   quadratic in `n` under the default per-hop iteration policy.
//!
//! Calibration: fitting the paper's three measurements (62.48 / 65.67 /
//! 70.94 s at 1/2/3 hops) to `T(n) = fixed + n·(per_hop·n + overhead)`
//! yields `per_hop = 1.04 s`, `overhead = 0.07 s`, `fixed = 61.37 s`
//! (the fixed part is distributed over the EMS command model, see
//! [`crate::ems`]).
//!
//! The ablation experiment E7 swaps in [`IterationPolicy::Fixed`] —
//! modelling a line system with jointly-optimized (parallel) equalization
//! — and shows setup time becoming linear in path length, quantifying §4's
//! claim that the measured times reflect "a lack of current carrier
//! requirements for speed" rather than physics.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimRng};

/// How many convergence iterations equalization needs for an `n`-hop path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IterationPolicy {
    /// One iteration per hop (sequential per-span convergence — deployed
    /// systems circa the paper). Produces quadratic total time.
    PerHop,
    /// A fixed iteration count independent of path length (jointly
    /// optimized control). Produces linear total time.
    Fixed(u32),
}

/// The equalization timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EqualizationModel {
    /// Seconds to measure + adjust one hop within one iteration.
    pub secs_per_hop: f64,
    /// Fixed seconds of overhead per iteration (command round-trip).
    pub iter_overhead_secs: f64,
    /// Iteration policy.
    pub policy: IterationPolicy,
    /// Relative standard deviation of run-to-run jitter (0 disables).
    pub jitter_rel_sigma: f64,
}

impl EqualizationModel {
    /// The model calibrated to the paper's Table 2.
    pub fn calibrated() -> EqualizationModel {
        EqualizationModel {
            secs_per_hop: 1.04,
            iter_overhead_secs: 0.07,
            policy: IterationPolicy::PerHop,
            jitter_rel_sigma: 0.02,
        }
    }

    /// The same model without jitter (for exact-value tests).
    pub fn calibrated_deterministic() -> EqualizationModel {
        EqualizationModel {
            jitter_rel_sigma: 0.0,
            ..Self::calibrated()
        }
    }

    /// Iterations required for an `n`-hop path.
    pub fn iterations(&self, hops: usize) -> u32 {
        match self.policy {
            IterationPolicy::PerHop => hops as u32,
            IterationPolicy::Fixed(k) => k,
        }
    }

    /// Mean (jitter-free) equalization time for an `n`-hop path.
    pub fn mean_secs(&self, hops: usize) -> f64 {
        assert!(hops > 0, "equalizing a zero-hop path");
        let iters = self.iterations(hops) as f64;
        iters * (self.secs_per_hop * hops as f64 + self.iter_overhead_secs)
    }

    /// Sample the equalization time for one setup.
    pub fn duration(&self, hops: usize, rng: &mut SimRng) -> SimDuration {
        let mean = self.mean_secs(hops);
        let secs = if self.jitter_rel_sigma > 0.0 {
            rng.normal_min(mean, mean * self.jitter_rel_sigma, 0.0)
        } else {
            mean
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Split a sampled equalization `total` into its convergence
    /// iterations for span attribution: `iterations(hops)` durations that
    /// sum to `total` *exactly* (the last one absorbs integer-nanosecond
    /// remainders), each covering one measure/adjust/settle round.
    pub fn iteration_splits(&self, hops: usize, total: SimDuration) -> Vec<SimDuration> {
        split_even(total, self.iterations(hops).max(1) as usize)
    }
}

/// Split `total` into `parts` durations that sum to `total` exactly, the
/// last absorbing the division remainder. Used for per-iteration and
/// per-hop sub-spans that must tile their parent's interval.
pub fn split_even(total: SimDuration, parts: usize) -> Vec<SimDuration> {
    let parts = parts.max(1);
    let each = SimDuration::from_nanos(total.as_nanos() / parts as u64);
    let mut out = vec![each; parts];
    let used = each.as_nanos() * (parts as u64 - 1);
    out[parts - 1] = SimDuration::from_nanos(total.as_nanos() - used);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_matches_paper_deltas() {
        let m = EqualizationModel::calibrated_deterministic();
        // fixed part lives in the EMS model; here only the path-dependent
        // part is produced: T(n) - fixed = 1.04 n² + 0.07 n.
        assert!((m.mean_secs(1) - 1.11).abs() < 1e-9);
        assert!((m.mean_secs(2) - 4.30).abs() < 1e-9);
        assert!((m.mean_secs(3) - 9.57).abs() < 1e-9);
        // Paper deltas: 65.67-62.48 = 3.19 and 70.94-65.67 = 5.27.
        assert!(((m.mean_secs(2) - m.mean_secs(1)) - 3.19).abs() < 1e-9);
        assert!(((m.mean_secs(3) - m.mean_secs(2)) - 5.27).abs() < 1e-9);
    }

    #[test]
    fn per_hop_policy_is_superlinear() {
        let m = EqualizationModel::calibrated_deterministic();
        let t1 = m.mean_secs(1);
        let t4 = m.mean_secs(4);
        assert!(t4 > 4.0 * t1, "expected superlinear growth");
    }

    #[test]
    fn fixed_policy_is_linear() {
        let m = EqualizationModel {
            policy: IterationPolicy::Fixed(2),
            ..EqualizationModel::calibrated_deterministic()
        };
        let t1 = m.mean_secs(1);
        let t2 = m.mean_secs(2);
        let t4 = m.mean_secs(4);
        // linear in hops up to the constant per-iteration overhead
        assert!((t2 - t1) < (t1 - 0.0));
        assert!(((t4 - t2) - 2.0 * (t2 - t1)).abs() < 1e-9);
        assert_eq!(m.iterations(10), 2);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic_per_seed() {
        let m = EqualizationModel::calibrated();
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let d1 = m.duration(3, &mut r1);
        let d2 = m.duration(3, &mut r2);
        assert_eq!(d1, d2);
        // within ±20% of the mean at 2% sigma, overwhelmingly
        let mean = m.mean_secs(3);
        assert!((d1.as_secs_f64() - mean).abs() < mean * 0.2);
    }

    #[test]
    #[should_panic(expected = "zero-hop")]
    fn zero_hops_rejected() {
        EqualizationModel::calibrated().mean_secs(0);
    }

    #[test]
    fn iteration_splits_tile_the_total_exactly() {
        let m = EqualizationModel::calibrated_deterministic();
        let total = SimDuration::from_nanos(9_570_000_001); // indivisible by 3
        let parts = m.iteration_splits(3, total);
        assert_eq!(parts.len(), 3);
        let sum = parts.iter().fold(SimDuration::ZERO, |acc, d| acc + *d);
        assert_eq!(sum, total, "splits must tile the sampled total");
        assert!(parts[2] >= parts[0], "last part absorbs the remainder");
        // Degenerate cases.
        assert_eq!(split_even(SimDuration::ZERO, 4).len(), 4);
        assert_eq!(split_even(SimDuration::from_secs(1), 0).len(), 1);
    }
}
