//! Synthetic million-tenant fleet: heavy-tailed request processes.
//!
//! The fleet is modeled as one aggregate arrival process instead of a
//! million per-tenant timers: a non-homogeneous Poisson stream (diurnal
//! rate modulation via [`simcore::diurnal_sin`], the same profile shape
//! the `measure` cross-traffic engine uses, realised by thinning)
//! whose arrivals are *attributed* to tenants by a Zipf rank draw —
//! O(log n) per request via [`simcore::ZipfSampler`] — with per-request
//! rates drawn bounded-Pareto. Statistically this is exactly the
//! superposition of a million independent Poisson tenants with
//! Zipf-proportional rates, at one-timer cost.
//!
//! An optional **abuser** is a separate superimposed process with its
//! own RNG stream: switching it on does not perturb a single draw of
//! the well-behaved stream, which is what makes the fairness comparison
//! (abuser-on vs abuser-off) exact rather than statistical.

use simcore::{SimDuration, SimRng, SimTime, ZipfSampler};

use crate::directory::TenantDirectory;

/// One API request as it arrives at the server's front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Claimed tenant index.
    pub tenant: u64,
    /// Presented bearer token (possibly forged).
    pub token: u64,
    /// Arrival time at the API edge.
    pub arrival: SimTime,
    /// Endpoint-pair index into the server's pair table.
    pub pair: usize,
    /// Requested rate in bits per second.
    pub rate_bps: u64,
    /// Requested window length in seconds.
    pub duration_secs: u64,
    /// True when this request came from the abuser process.
    pub abusive: bool,
}

/// The abusive-tenant overlay: one tenant flooding at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct AbuserConfig {
    /// The flooding tenant's index.
    pub tenant: u64,
    /// Mean requests per second of the flood.
    pub rate_per_sec: f64,
}

/// Zipf popularity exponent across tenant ranks.
const ZIPF_EXPONENT: f64 = 1.0;
/// Diurnal modulation amplitude in `[0, 1)`:
/// `λ(t) = base × (1 + amp·sin(2πt/period + φ))`.
const DIURNAL_AMPLITUDE: f64 = 0.3;
const _: () = assert!(DIURNAL_AMPLITUDE >= 0.0 && DIURNAL_AMPLITUDE < 1.0);
/// Bounded-Pareto request rate: minimum bps.
const RATE_MIN_BPS: u64 = 1_000_000_000;
/// Pareto shape for request rates.
const RATE_ALPHA: f64 = 1.3;
/// Cap on a single request's rate, bps.
const RATE_MAX_BPS: u64 = 100_000_000_000;
/// Uniform window length: minimum seconds.
const DURATION_MIN_SECS: u64 = 600;
/// Uniform window length: maximum seconds.
const DURATION_MAX_SECS: u64 = 7_200;

/// One request's bounded-Pareto rate (bps) and uniform window length
/// (seconds), drawn in that order.
fn draw_window(rng: &mut SimRng) -> (u64, u64) {
    let rate = simcore::bounded_pareto_bits(rng, RATE_MIN_BPS as f64, RATE_ALPHA, RATE_MAX_BPS);
    (rate, rng.range_u64(DURATION_MIN_SECS, DURATION_MAX_SECS))
}

/// Fleet shape parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size (tenant population).
    pub tenants: u64,
    /// RNG seed; everything is a pure function of `(config, seed)`.
    pub seed: u64,
    /// Generate arrivals over `[0, horizon)`.
    pub horizon: SimTime,
    /// Mean aggregate arrival rate before diurnal modulation, req/s.
    pub base_rate_per_sec: f64,
    /// Diurnal modulation period.
    pub diurnal_period: SimDuration,
    /// Fraction of requests presenting a forged token.
    pub invalid_token_frac: f64,
    /// Endpoint pairs the server exposes.
    pub pairs: usize,
    /// Optional abusive-tenant overlay.
    pub abuser: Option<AbuserConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            tenants: 10_000,
            seed: 0xF1EE7,
            horizon: SimTime::from_secs(60),
            base_rate_per_sec: 100.0,
            diurnal_period: SimDuration::from_secs(60),
            invalid_token_frac: 0.005,
            pairs: 4,
            abuser: None,
        }
    }
}

/// Generate the request stream for one run, sorted by arrival time.
pub fn generate(cfg: &FleetConfig, dir: &TenantDirectory) -> Vec<Request> {
    assert_eq!(cfg.tenants, dir.fleet(), "fleet size must match directory");
    let zipf = ZipfSampler::new(cfg.tenants as usize, ZIPF_EXPONENT);

    let mut rng = SimRng::new(cfg.seed).fork(0xF1EE7);
    // The diurnal phase comes off its own fork — the same idiom as
    // `measure`'s CrossTraffic::diurnal profile.
    let phase = SimRng::new(cfg.seed).fork(0xD109).f64() * std::f64::consts::TAU;
    let period = cfg.diurnal_period.as_secs_f64();

    let lambda_max = cfg.base_rate_per_sec * (1.0 + DIURNAL_AMPLITUDE);
    let mut requests = Vec::new();
    let mut t = SimTime::ZERO;
    // Non-homogeneous Poisson by thinning: draw at the envelope rate,
    // accept with probability λ(t)/λ_max.
    loop {
        let gap = SimDuration::from_secs_f64(rng.exp(1.0 / lambda_max));
        t += gap;
        if t >= cfg.horizon {
            break;
        }
        let lambda = cfg.base_rate_per_sec
            * (1.0 + DIURNAL_AMPLITUDE * simcore::diurnal_sin(t.as_secs_f64(), period, phase));
        if !rng.chance(lambda / lambda_max) {
            continue;
        }
        let tenant = zipf.sample(&mut rng) as u64;
        let token = if rng.chance(cfg.invalid_token_frac) {
            dir.token_for(tenant) ^ 0xBAD_C0DE
        } else {
            dir.token_for(tenant)
        };
        let pair = rng.below(cfg.pairs as u64) as usize;
        let (rate_bps, duration_secs) = draw_window(&mut rng);
        requests.push(Request {
            tenant,
            token,
            arrival: t,
            pair,
            rate_bps,
            duration_secs,
            abusive: false,
        });
    }

    // The abuser rides on an independent stream: enabling it leaves the
    // well-behaved draws above bit-identical.
    if let Some(ab) = cfg.abuser {
        let mut arng = SimRng::new(cfg.seed).fork(0xAB05E);
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(arng.exp(1.0 / ab.rate_per_sec));
            t += gap;
            if t >= cfg.horizon {
                break;
            }
            let pair = arng.below(cfg.pairs as u64) as usize;
            let (rate_bps, duration_secs) = draw_window(&mut arng);
            requests.push(Request {
                tenant: ab.tenant,
                token: dir.token_for(ab.tenant),
                arrival: t,
                pair,
                rate_bps,
                duration_secs,
                abusive: true,
            });
        }
        // Stable merge: ties keep well-behaved before abusive arrivals.
        requests.sort_by_key(|r| (r.arrival, r.abusive));
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(n: u64) -> TenantDirectory {
        TenantDirectory::new(n, 0x5EED)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FleetConfig::default();
        let d = dir(cfg.tenants);
        assert_eq!(generate(&cfg, &d), generate(&cfg, &d));
    }

    #[test]
    fn arrival_volume_tracks_base_rate() {
        let cfg = FleetConfig {
            horizon: SimTime::from_secs(300),
            ..FleetConfig::default()
        };
        let reqs = generate(&cfg, &dir(cfg.tenants));
        let expect = 100.0 * 300.0;
        let got = reqs.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.15,
            "got {got}, expected ≈{expect}"
        );
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn abuser_does_not_perturb_well_behaved_stream() {
        let base = FleetConfig::default();
        let with = FleetConfig {
            abuser: Some(AbuserConfig {
                tenant: 4_242,
                rate_per_sec: 50.0,
            }),
            ..base.clone()
        };
        let d = dir(base.tenants);
        let clean = generate(&base, &d);
        let flooded = generate(&with, &d);
        let well: Vec<&Request> = flooded.iter().filter(|r| !r.abusive).collect();
        assert_eq!(well.len(), clean.len());
        for (a, b) in well.iter().zip(clean.iter()) {
            assert_eq!(**a, *b, "well-behaved stream perturbed by the abuser");
        }
        assert!(flooded.iter().any(|r| r.abusive));
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let cfg = FleetConfig {
            horizon: SimTime::from_secs(600),
            ..FleetConfig::default()
        };
        let reqs = generate(&cfg, &dir(cfg.tenants));
        let head = reqs.iter().filter(|r| r.tenant < 100).count();
        // Top 1% of ranks draws far more than 1% of traffic at s=1.
        assert!(
            head * 5 > reqs.len(),
            "head tenants drew {head} of {}",
            reqs.len()
        );
        // Rates respect the Pareto bounds.
        assert!(reqs
            .iter()
            .all(|r| (RATE_MIN_BPS..=RATE_MAX_BPS).contains(&r.rate_bps)));
    }

    #[test]
    fn forged_tokens_appear_at_the_configured_rate() {
        let cfg = FleetConfig {
            horizon: SimTime::from_secs(600),
            invalid_token_frac: 0.05,
            ..FleetConfig::default()
        };
        let d = dir(cfg.tenants);
        let reqs = generate(&cfg, &d);
        let forged = reqs
            .iter()
            .filter(|r| d.authenticate(r.tenant, r.token).is_none())
            .count();
        let expect = reqs.len() as f64 * 0.05;
        assert!(
            (forged as f64 - expect).abs() < expect * 0.5 + 10.0,
            "forged {forged}, expected ≈{expect}"
        );
    }
}
