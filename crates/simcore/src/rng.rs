//! Deterministic pseudo-random numbers and the distributions the workload
//! generators need.
//!
//! [`SimRng`] is xoshiro256** seeded through SplitMix64 — the standard
//! recipe for turning a single `u64` seed into a well-mixed 256-bit state.
//! It is implemented here rather than pulled from `rand` so that the
//! simulation's numeric stream is pinned by this crate's own code and can
//! never shift under a dependency upgrade; experiments cite seeds.
//!
//! The distribution helpers are methods (not separate sampler structs) so
//! call sites read naturally: `rng.exp(mean)`, `rng.pareto(xm, alpha)`.

/// Deterministic PRNG (xoshiro256**, SplitMix64 seeding).
///
/// ```
/// use simcore::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from the last Box–Muller draw.
    gauss_spare: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds produce identical
    /// streams forever.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// The raw 256-bit generator state plus the cached Box–Muller spare
    /// (as bits; `u64::MAX` when empty). Two generators with equal state
    /// words produce identical streams forever — used by controller
    /// state digests to prove recovered replicas bit-exact.
    pub fn state_words(&self) -> [u64; 5] {
        [
            self.s[0],
            self.s[1],
            self.s[2],
            self.s[3],
            self.gauss_spare.map_or(u64::MAX, f64::to_bits),
        ]
    }

    /// Derive an independent child generator (for giving each workload
    /// source its own stream while keeping one top-level seed).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire's multiply-shift rejection method: unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let l = m as u64;
            if l >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with the given mean (rate = 1/mean). Mean 0 returns 0.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Avoid ln(0) by sampling from (0,1].
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (with spare caching).
    pub(crate) fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Normal truncated below at `floor` (resampled, not clamped, unless it
    /// fails 64 times — then clamps — to stay loop-free under adversarial
    /// parameters).
    pub fn normal_min(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if x >= floor {
                return x;
            }
        }
        floor
    }

    /// Pareto with scale `xm > 0` and shape `alpha > 0` — heavy-tailed bulk
    /// transfer sizes.
    pub(crate) fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0, "pareto parameters must be > 0");
        let u = 1.0 - self.f64();
        xm / u.powf(1.0 / alpha)
    }

    /// Pick an index with probability proportional to `weights[i]`: the
    /// O(n) reference the Zipf sampler's tests hold it to.
    /// Panics if all weights are zero/negative or the slice is empty.
    #[cfg(test)]
    pub(crate) fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        assert!(total > 0.0, "weighted_index: no positive weights");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if x < *w {
                return i;
            }
            x -= *w;
        }
        // Floating-point fell off the end; return the last positive weight.
        weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("checked above")
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should appear");
    }

    #[test]
    fn range_u64_inclusive() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.range_u64(5, 7);
            assert!((5..=7).contains(&x));
        }
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn exp_mean_close() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut r = SimRng::new(1);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-1.0), 0.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn normal_min_floors() {
        let mut r = SimRng::new(17);
        for _ in 0..1000 {
            assert!(r.normal_min(0.0, 5.0, 0.0) >= 0.0);
        }
    }

    #[test]
    fn pareto_at_least_scale() {
        let mut r = SimRng::new(19);
        for _ in 0..1000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(23);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio={ratio}");
    }

    #[test]
    #[should_panic(expected = "no positive weights")]
    fn weighted_index_rejects_all_zero() {
        SimRng::new(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent_but_deterministic() {
        let mut parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut d = parent1.fork(2);
        assert_ne!(c1.next_u64(), d.next_u64());
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::new(31);
        let items = ["a", "b", "c"];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
