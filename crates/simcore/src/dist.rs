//! Shared heavy-tailed and diurnal sampling helpers.
//!
//! Three subsystems draw from the same family of distributions: the
//! `cloud` workload generator (bounded-Pareto bulk sizes, diurnal
//! interactive demand), the `measure` cross-traffic engine (diurnal
//! drift profiles), and the northbound fleet generator (Zipf tenant
//! popularity × Pareto request rates under diurnal modulation). This
//! module is the single home for those draws so the three planes agree
//! on shape by construction instead of by copy.
//!
//! The formulas here are transplanted *operation-for-operation* from
//! their original call sites: the refactor is bit-identical, so golden
//! files and digest fingerprints pinned before the extraction still
//! hold after it.

use crate::rng::SimRng;

/// The canonical diurnal day length used by the day-shaped factor.
pub(crate) const DAY_SECS: f64 = 86_400.0;

/// Day-shaped diurnal factor in `[floor, 1]`: the crest is at local
/// noon, the trough (`floor`) at midnight, following
/// `floor + (1 − floor) · (0.5 − 0.5·cos(2πt/86400))`.
///
/// This is the `cloud` interactive-demand curve; multiply by a peak
/// rate to obtain the instantaneous demand.
pub fn diurnal_day_factor(t_secs: f64, floor: f64) -> f64 {
    let phase = (t_secs % DAY_SECS) / DAY_SECS * std::f64::consts::TAU;
    // cos peaks at phase 0 = midnight; shift so noon is the crest.
    let level = 0.5 - 0.5 * phase.cos(); // 0 at midnight, 1 at noon
    floor + (1.0 - floor) * level
}

/// Sinusoidal diurnal term `sin(2πt/period + φ)` in `[-1, 1]`.
///
/// This is the `measure` cross-traffic drift shape; callers scale by an
/// amplitude and add a base level.
pub fn diurnal_sin(t_secs: f64, period_secs: f64, phase: f64) -> f64 {
    let x = std::f64::consts::TAU * t_secs / period_secs + phase;
    x.sin()
}

/// One bounded-Pareto draw in integer "bits" units: a Pareto(`min_bits`,
/// `alpha`) sample truncated to `max_bits`. Heavy-tailed for
/// `1 < alpha < 2` (finite mean, unbounded variance before the cap).
pub fn bounded_pareto_bits(rng: &mut SimRng, min_bits: f64, alpha: f64, max_bits: u64) -> u64 {
    let raw = rng.pareto(min_bits, alpha);
    (raw as u64).min(max_bits)
}

/// Zipf rank weights: `weight(i) = 1 / (i+1)^s` for ranks `0..n`.
///
/// `s = 0` is uniform; `s ≈ 1` is the classic web-popularity curve. The
/// weights are unnormalised — [`ZipfSampler`] normalises internally.
pub(crate) fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Cumulative-weight sampler over a fixed finite population.
///
/// Construction is O(n); each draw is one uniform variate plus a binary
/// search (O(log n)), which is what makes million-tenant attribution
/// affordable — a linear scan of the weights is O(n) per draw (the
/// tests hold the sampler to one).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Inclusive prefix sums of the weights; `cum[i]` is the total
    /// weight of ranks `0..=i`.
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks with Zipf exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        ZipfSampler::from_weights(zipf_weights(n, s))
    }

    /// Sampler over arbitrary non-negative weights. Panics if the
    /// weights are empty or sum to zero.
    pub(crate) fn from_weights(weights: Vec<f64>) -> ZipfSampler {
        assert!(!weights.is_empty(), "ZipfSampler needs at least one rank");
        let mut cum = weights;
        let mut acc = 0.0;
        for w in cum.iter_mut() {
            assert!(*w >= 0.0 && w.is_finite(), "weights must be finite ≥ 0");
            acc += *w;
            *w = acc;
        }
        assert!(acc > 0.0, "weights must not sum to zero");
        ZipfSampler { cum }
    }

    /// Total weight across all ranks.
    pub(crate) fn total_weight(&self) -> f64 {
        *self.cum.last().expect("non-empty by construction")
    }

    /// Draw one rank in `0..len()`, popularity-weighted.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let target = rng.f64() * self.total_weight();
        // partition_point finds the first prefix sum exceeding the
        // target; clamp guards the (measure-zero) target == total case.
        self.cum
            .partition_point(|&c| c <= target)
            .min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_factor_matches_cloud_curve() {
        // Midnight trough at the floor, noon crest at 1, 24 h periodic.
        assert!((diurnal_day_factor(0.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((diurnal_day_factor(43_200.0, 0.3) - 1.0).abs() < 1e-12);
        assert_eq!(
            diurnal_day_factor(0.0, 0.3),
            diurnal_day_factor(86_400.0, 0.3)
        );
    }

    #[test]
    fn sin_term_is_bounded_and_periodic() {
        for i in 0..100 {
            let t = i as f64 * 977.0;
            let v = diurnal_sin(t, 3600.0, 1.25);
            assert!((-1.0..=1.0).contains(&v));
        }
        let a = diurnal_sin(100.0, 3600.0, 0.5);
        let b = diurnal_sin(100.0 + 3600.0, 3600.0, 0.5);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = SimRng::new(42);
        for _ in 0..10_000 {
            let v = bounded_pareto_bits(&mut rng, 1_000.0, 1.3, 50_000);
            assert!((1_000..=50_000).contains(&v));
        }
    }

    #[test]
    fn zipf_sampler_matches_weighted_index_on_small_n() {
        // Same uniform draw → same rank as the O(n) reference sampler.
        let weights = zipf_weights(17, 1.1);
        let sampler = ZipfSampler::from_weights(weights.clone());
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..2_000 {
            assert_eq!(sampler.sample(&mut a), b.weighted_index(&weights));
        }
    }

    #[test]
    fn zipf_head_dominates() {
        let sampler = ZipfSampler::new(10_000, 1.0);
        let mut rng = SimRng::new(9);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if sampler.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // Top 1% of ranks should carry roughly half the draws at s=1.
        assert!(head > n / 3, "head draws {head} of {n}");
    }
}

#[cfg(test)]
mod dist_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Bounded Pareto never leaves `[min_bits, max_bits]` for any
        /// seed, shape, or bound combination.
        #[test]
        fn bounded_pareto_shape(
            seed in any::<u64>(),
            min_kb in 1u64..1_000,
            alpha in 1.05f64..1.95,
            span in 2u64..10_000,
        ) {
            let min_bits = min_kb * 1_000;
            let max_bits = min_bits * span;
            let mut rng = SimRng::new(seed);
            for _ in 0..64 {
                let v = bounded_pareto_bits(&mut rng, min_bits as f64, alpha, max_bits);
                prop_assert!(v >= min_bits && v <= max_bits, "draw {v} outside bounds");
            }
        }

        /// The prefix-sum sampler agrees draw-for-draw with the O(n)
        /// reference sampler on arbitrary weight vectors.
        #[test]
        fn zipf_sampler_equals_reference(
            seed in any::<u64>(),
            weights in prop::collection::vec(0.01f64..100.0, 1..64),
        ) {
            let sampler = ZipfSampler::from_weights(weights.clone());
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            for _ in 0..128 {
                prop_assert_eq!(sampler.sample(&mut a), b.weighted_index(&weights));
            }
        }

        /// The day factor stays inside `[floor, 1]` and the Zipf head
        /// monotonically outweighs the tail as the exponent grows.
        #[test]
        fn diurnal_factor_in_band(t in 0.0f64..1e7, floor in 0.0f64..1.0) {
            let f = diurnal_day_factor(t, floor);
            prop_assert!(f >= floor - 1e-9 && f <= 1.0 + 1e-9, "factor {f} outside band");
        }

        /// Heavier exponents concentrate more probability mass in the
        /// head rank — the defining Zipf shape property.
        #[test]
        fn zipf_mass_concentrates_with_exponent(n in 2usize..2_000) {
            let flat = ZipfSampler::new(n, 0.5);
            let steep = ZipfSampler::new(n, 1.5);
            let head_flat = flat.total_weight();
            let head_steep = steep.total_weight();
            // weight(0) = 1 in both; a steeper tail sums to less, so the
            // head's *share* strictly grows with the exponent.
            prop_assert!(1.0 / head_steep > 1.0 / head_flat);
        }
    }
}
