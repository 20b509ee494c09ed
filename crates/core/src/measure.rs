//! The active-probing measurement plane (`DESIGN.md` §15).
//!
//! GRIPhoN's northbound interface assumes the tenant *knows* the
//! bandwidth it is ordering. Real inter-DC tenants don't: the residual
//! capacity of a shared path moves with everyone else's traffic. This
//! module closes that gap inside the simulation with the classic
//! active-measurement loop:
//!
//! 1. [`CrossTraffic`] — a deterministic competing-load engine: stable
//!    mgen-style UDP rate profiles ([`CrossTraffic::stationary`]),
//!    bursty TCP-like on/off injections
//!    ([`CrossTraffic::with_bursts`]), diurnal drift
//!    ([`CrossTraffic::diurnal`]) and an adversarial square wave
//!    ([`CrossTraffic::square`]). All piecewise-constant, all driven off
//!    [`SimRng`] streams, so the fluid ground truth is known exactly.
//! 2. [`Prober`] — per-path probe trains on a [`simcore::Scheduler`]
//!    cadence, pushed through an exact-integer [`FluidQueue`] bottleneck,
//!    with probe-gap available-bandwidth estimation (the Spruce model:
//!    back-to-back probes at line rate keep the bottleneck busy, so the
//!    output gap dilates by exactly the cross-traffic share).
//! 3. Observability: every probe train is a root span scored by a
//!    [`TailSampler`], every estimate lands in labeled metric families,
//!    and each histogram exemplar links back to a *retained* probe
//!    trace — the estimate → evidence loop of the PR 8 exemplar plane.
//!
//! The estimator itself is always on: its RNG draws and arithmetic are
//! part of simulation state, so policies built on it (the
//! estimation-aware BoD mode in `cloud::scheduler`) decide identically
//! whether or not the observability plane records anything. Only spans,
//! samplers and metric families are gated — that is the measurement
//! plane's observational-passivity invariant, asserted by
//! `repro measure` per cell.

use simcore::metrics::FamilyRegistry;
use simcore::{
    DataRate, DataSize, FluidQueue, Scheduler, SimDuration, SimRng, SimTime, SpanRecorder,
    TailSampleConfig, TailSampleStats, TailSampler,
};

/// Deterministic piecewise-constant cross traffic on a shared path.
///
/// The competing load the prober measures against. Kept sorted by start
/// time with the first step at `t = 0`; between steps the rate is
/// constant, which is what lets [`FluidQueue`] advance each segment with
/// one exact integer update.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    /// `(start, rate)` steps, sorted, deduplicated, first at `ZERO`.
    steps: Vec<(SimTime, DataRate)>,
}

impl CrossTraffic {
    /// A constant competing load.
    #[cfg(test)]
    pub(crate) fn flat(rate: DataRate) -> CrossTraffic {
        CrossTraffic {
            steps: vec![(SimTime::ZERO, rate)],
        }
    }

    /// Build from raw steps: sorted by time, later duplicates win,
    /// consecutive equal rates merged. A missing step at `t = 0` is
    /// filled with rate zero.
    pub fn from_steps(mut steps: Vec<(SimTime, DataRate)>) -> CrossTraffic {
        steps.sort_by_key(|&(t, _)| t);
        let mut out: Vec<(SimTime, DataRate)> = Vec::with_capacity(steps.len() + 1);
        if steps.first().map(|&(t, _)| t) != Some(SimTime::ZERO) {
            out.push((SimTime::ZERO, DataRate::ZERO));
        }
        for (t, r) in steps {
            if out.last().map(|&(lt, _)| lt) == Some(t) {
                out.last_mut().expect("non-empty").1 = r;
            } else if out.last().map(|&(_, lr)| lr) != Some(r) {
                out.push((t, r));
            }
        }
        CrossTraffic { steps: out }
    }

    /// Stable mgen-style UDP load: every `interval` the rate is redrawn
    /// uniformly within `±jitter_frac` of `mean`. `jitter_frac = 0`
    /// degenerates to a constant load.
    pub fn stationary(
        seed: u64,
        mean: DataRate,
        jitter_frac: f64,
        interval: SimDuration,
        horizon: SimTime,
    ) -> CrossTraffic {
        assert!((0.0..1.0).contains(&jitter_frac), "jitter_frac in [0,1)");
        let mut rng = SimRng::new(seed).fork(0xC805);
        let mut steps = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let f = 1.0 + jitter_frac * (2.0 * rng.f64() - 1.0);
            steps.push((t, DataRate::from_bps((mean.bps() as f64 * f) as u64)));
            t += interval;
        }
        CrossTraffic::from_steps(steps)
    }

    /// Overlay bursty TCP-like on/off injections: exponential off
    /// periods (mean `mean_off`) alternate with exponential on periods
    /// (mean `mean_on`) during which `burst` is *added* to the base
    /// load.
    pub fn with_bursts(
        self,
        seed: u64,
        burst: DataRate,
        mean_on: SimDuration,
        mean_off: SimDuration,
        horizon: SimTime,
    ) -> CrossTraffic {
        let mut rng = SimRng::new(seed).fork(0xB095);
        let mut bursts: Vec<(SimTime, SimTime)> = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(mean_off.as_secs_f64()));
            if t >= horizon {
                break;
            }
            let end = t + SimDuration::from_secs_f64(rng.exp(mean_on.as_secs_f64()));
            let end = end.min(horizon);
            bursts.push((t, end));
            t = end;
        }
        let in_burst = |at: SimTime| bursts.iter().any(|&(a, b)| a <= at && at < b);
        let mut boundaries: Vec<SimTime> = self.steps.iter().map(|&(t, _)| t).collect();
        for &(a, b) in &bursts {
            boundaries.push(a);
            boundaries.push(b);
        }
        boundaries.sort();
        boundaries.dedup();
        let steps = boundaries
            .into_iter()
            .map(|t| {
                let extra = if in_burst(t) { burst } else { DataRate::ZERO };
                (t, self.rate_at(t) + extra)
            })
            .collect();
        CrossTraffic::from_steps(steps)
    }

    /// Diurnal drift: `base + amplitude·sin(2πt/period + φ)` with a
    /// seed-drawn phase φ, sampled into steps every `interval`, clamped
    /// at zero.
    pub fn diurnal(
        seed: u64,
        base: DataRate,
        amplitude: DataRate,
        period: SimDuration,
        interval: SimDuration,
        horizon: SimTime,
    ) -> CrossTraffic {
        let mut rng = SimRng::new(seed).fork(0xD109);
        let phase = rng.f64() * std::f64::consts::TAU;
        let mut steps = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let s = simcore::diurnal_sin(t.as_secs_f64(), period.as_secs_f64(), phase);
            let bps = base.bps() as f64 + amplitude.bps() as f64 * s;
            steps.push((t, DataRate::from_bps(bps.max(0.0) as u64)));
            t += interval;
        }
        CrossTraffic::from_steps(steps)
    }

    /// Adversarial square wave alternating `low` / `high` every
    /// `half_period`, built to alias against a probing cadence.
    pub fn square(
        low: DataRate,
        high: DataRate,
        half_period: SimDuration,
        horizon: SimTime,
    ) -> CrossTraffic {
        let mut steps = Vec::new();
        let mut t = SimTime::ZERO;
        let mut hi = false;
        while t < horizon {
            steps.push((t, if hi { high } else { low }));
            hi = !hi;
            t += half_period;
        }
        CrossTraffic::from_steps(steps)
    }

    /// The competing rate at `t`.
    pub fn rate_at(&self, t: SimTime) -> DataRate {
        let idx = self.steps.partition_point(|&(s, _)| s <= t);
        self.steps[idx - 1].1
    }

    /// The first step boundary strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.steps.partition_point(|&(s, _)| s <= t);
        self.steps.get(idx).map(|&(s, _)| s)
    }

    /// Exact mean rate over `[a, b)` (integral of the step function,
    /// integer bit accounting).
    pub(crate) fn mean_over(&self, a: SimTime, b: SimTime) -> DataRate {
        assert!(b > a, "mean_over of an empty interval");
        let mut bits: u128 = 0;
        let mut t = a;
        while t < b {
            let seg_end = match self.next_change_after(t) {
                Some(c) if c < b => c,
                _ => b,
            };
            bits += self.rate_at(t).bps() as u128 * seg_end.since(t).as_nanos() as u128;
            t = seg_end;
        }
        let bps = bits / b.since(a).as_nanos() as u128;
        DataRate::from_bps(u64::try_from(bps).expect("mean rate overflow"))
    }

    /// The largest step rate.
    #[cfg(test)]
    pub(crate) fn peak(&self) -> DataRate {
        self.steps
            .iter()
            .map(|&(_, r)| r)
            .max()
            .unwrap_or(DataRate::ZERO)
    }
}

/// A probed path: one shared bottleneck of known capacity carrying
/// [`CrossTraffic`] the prober cannot see directly.
#[derive(Debug, Clone)]
pub struct ProbePath {
    /// Label for metric families and NOC gauges.
    pub name: &'static str,
    /// Bottleneck line rate.
    pub capacity: DataRate,
    /// The competing load (ground truth for error accounting).
    pub cross: CrossTraffic,
}

/// Gap between probe trains.
const CADENCE: SimDuration = SimDuration::from_secs(30);
/// Probes per train (pairs = probes − 1).
const PROBES_PER_TRAIN: usize = 16;
const _: () = assert!(PROBES_PER_TRAIN >= 2, "a train needs at least one gap");
/// Probe packet size in bytes (jumbo frames keep the relative timestamp
/// noise small).
const PROBE_BYTES: u64 = 9_000;
/// EWMA weight of the newest train estimate.
const EWMA_ALPHA: f64 = 0.3;
/// Probe traces the tail sampler keeps per window.
const KEEP_SLOWEST: usize = 4;
/// Exemplars retained per estimate histogram.
const EXEMPLAR_CAPACITY: usize = 4;

/// Probing parameters.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Receive-timestamp noise: σ of a Gaussian, in nanoseconds. Drawn
    /// for every probe whether or not observability records anything.
    pub noise_ns: f64,
    /// A probe that would wait longer than this in the bottleneck queue
    /// is counted dropped and excluded from gap pairs.
    pub drop_delay: SimDuration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            noise_ns: 200.0,
            drop_delay: SimDuration::from_millis(50),
        }
    }
}

/// Exponentially-weighted available-bandwidth estimator.
#[derive(Debug, Clone, Default)]
pub(crate) struct AbEstimator {
    alpha: f64,
    current_gbps: Option<f64>,
    trains: u64,
}

impl AbEstimator {
    /// A fresh estimator blending with weight `alpha` per train.
    pub fn new(alpha: f64) -> AbEstimator {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0,1]");
        AbEstimator {
            alpha,
            current_gbps: None,
            trains: 0,
        }
    }

    /// Fold in one train's raw estimate (Gbps).
    pub fn observe(&mut self, raw_gbps: f64) {
        self.current_gbps = Some(match self.current_gbps {
            None => raw_gbps,
            Some(c) => c + self.alpha * (raw_gbps - c),
        });
        self.trains += 1;
    }

    /// The smoothed estimate, if any train has completed.
    pub(crate) fn estimate_gbps(&self) -> Option<f64> {
        self.current_gbps
    }

    /// Trains folded in.
    pub fn trains(&self) -> u64 {
        self.trains
    }
}

/// One per-train estimation datapoint.
#[derive(Debug, Clone, Copy)]
pub struct AbSample {
    /// Train start time.
    pub at: SimTime,
    /// Raw probe-gap estimate for this train (Gbps).
    pub raw_gbps: f64,
    /// The EWMA estimate after folding this train in (Gbps).
    pub smooth_gbps: f64,
    /// Fluid ground truth: capacity minus mean cross traffic over the
    /// train span (Gbps).
    pub true_gbps: f64,
}

/// What [`Prober::finish`] hands back: the estimation record always,
/// the observability artifacts only when the plane was enabled.
#[derive(Debug)]
pub struct MeasureOutcome {
    /// Estimate/error histograms with exemplars, sampler gauges, probe
    /// counters. Empty when observability was off.
    pub families: FamilyRegistry,
    /// Every train's datapoint, in time order.
    pub samples: Vec<AbSample>,
    /// Trains completed.
    pub trains: u64,
    /// Probes injected.
    pub probes_sent: u64,
    /// Probes dropped at the bottleneck (queue delay over the limit).
    pub probes_dropped: u64,
    /// Tail-sampler accounting for the probe traces.
    pub sampler: TailSampleStats,
    /// Exemplars retained across the estimate histogram.
    pub exemplars: usize,
    /// Spans the bounded recorder had to drop (must be 0).
    pub span_dropped: u64,
}

/// The per-path active prober.
///
/// Owns the path model, a probe-train scheduler, the fluid bottleneck,
/// the estimator, and the observability plane (spans + tail sampler),
/// all advanced by [`Prober::advance_to`]. A pure function of
/// `(path, config, seed)`: the `observability` flag changes what is
/// *recorded*, never what is *computed* — noise draws and estimates are
/// identical either way.
pub struct Prober {
    path: ProbePath,
    cfg: ProbeConfig,
    rng: SimRng,
    sched: Scheduler<()>,
    queue: FluidQueue,
    /// Time up to which the bottleneck queue has been advanced.
    queue_t: SimTime,
    estimator: AbEstimator,
    observability: bool,
    spans: SpanRecorder,
    sampler: TailSampler,
    samples: Vec<AbSample>,
    probes_sent: u64,
    probes_dropped: u64,
}

impl Prober {
    /// A prober for `path`; the first train fires one cadence in.
    pub fn new(path: ProbePath, cfg: ProbeConfig, seed: u64, observability: bool) -> Prober {
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO + CADENCE, ());
        let mut spans = SpanRecorder::new(4 * PROBES_PER_TRAIN.max(64));
        spans.set_enabled(observability);
        let sampler = TailSampler::new(TailSampleConfig {
            window: SimDuration::from_mins(5),
            keep_slowest: KEEP_SLOWEST,
            slow_threshold: Some(cfg.drop_delay),
        });
        let queue = FluidQueue::new(path.capacity);
        Prober {
            path,
            rng: SimRng::new(seed).fork(0x9806E),
            sched,
            queue,
            queue_t: SimTime::ZERO,
            estimator: AbEstimator::new(EWMA_ALPHA),
            cfg,
            observability,
            spans,
            sampler,
            samples: Vec::new(),
            probes_sent: 0,
            probes_dropped: 0,
        }
    }

    /// The probed path.
    pub fn path(&self) -> &ProbePath {
        &self.path
    }

    /// Run every probe train due at or before `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while let Some((at, ())) = self.sched.pop_until(t) {
            self.run_train(at);
            let next = at + CADENCE;
            self.sched.schedule_at(next, ());
        }
    }

    /// The current smoothed estimate as a rate, if any train completed.
    pub fn estimate(&self) -> Option<DataRate> {
        self.estimator
            .estimate_gbps()
            .map(|g| DataRate::from_bps((g * 1e9).round().max(0.0) as u64))
    }

    /// Fluid ground truth at `t`: capacity minus the instantaneous cross
    /// rate, floored at zero.
    pub fn true_available(&self, t: SimTime) -> DataRate {
        self.path
            .capacity
            .saturating_sub(self.path.cross.rate_at(t))
    }

    /// Datapoints so far.
    pub fn samples(&self) -> &[AbSample] {
        &self.samples
    }

    /// Probes dropped so far.
    pub fn probes_dropped(&self) -> u64 {
        self.probes_dropped
    }

    /// Advance the bottleneck queue to `t`, splitting at every
    /// cross-traffic breakpoint so each [`FluidQueue::advance`] segment
    /// is constant-rate.
    fn advance_queue_to(&mut self, t: SimTime) {
        while self.queue_t < t {
            let seg_end = match self.path.cross.next_change_after(self.queue_t) {
                Some(c) if c < t => c,
                _ => t,
            };
            let r = self.path.cross.rate_at(self.queue_t);
            self.queue.advance(seg_end.since(self.queue_t), r);
            self.queue_t = seg_end;
        }
    }

    /// One probe train at `at`: inject back-to-back probes at line rate,
    /// collect (noisy) departure timestamps, estimate from the mean
    /// output-gap dilation, record the trace.
    fn run_train(&mut self, at: SimTime) {
        let probe = DataSize::from_bytes(PROBE_BYTES);
        let g_in = probe.time_at(self.path.capacity);
        let g_in_ns = g_in.as_nanos() as f64;
        let cap_gbps = self.path.capacity.gbps_f64();
        let root = self.spans.open(at, "measure", "probe.train", None);

        // Inject, collecting each kept probe's (index, noisy departure).
        let mut kept: Vec<(usize, f64)> = Vec::with_capacity(PROBES_PER_TRAIN);
        let mut train_end = at;
        for i in 0..PROBES_PER_TRAIN {
            let arrival = at + g_in * i as u64;
            self.advance_queue_to(arrival);
            self.probes_sent += 1;
            // The noise draw happens for every probe, dropped or not —
            // the draw sequence must not depend on queue outcomes that
            // observability could perturb (it can't; belt and braces).
            let noise = self.rng.normal(0.0, self.cfg.noise_ns);
            if self.queue.delay() > self.cfg.drop_delay {
                self.probes_dropped += 1;
                continue;
            }
            self.queue.push(probe);
            let depart = arrival + self.queue.delay();
            train_end = train_end.max(depart);
            let sid = self
                .spans
                .record(arrival, depart, "measure", "probe.send", Some(root));
            self.spans
                .attr_f64(sid, "queue_us", depart.since(arrival).as_secs_f64() * 1e6);
            kept.push((i, depart.as_nanos() as f64 + noise));
        }
        self.spans.close(root, train_end);

        // Probe-gap estimation over adjacent kept pairs: with the
        // bottleneck busy between back-to-back probes, the output gap is
        // Δ = g·(1 + R/C), so R̂ = C·(Δ − g)/g and Â = C − R̂.
        let mut sum_avail = 0.0f64;
        let mut pairs = 0u32;
        for w in kept.windows(2) {
            let (i, d0) = w[0];
            let (j, d1) = w[1];
            if j != i + 1 {
                continue; // a drop broke the pair
            }
            let gap_ns = d1 - d0;
            let cross_gbps = cap_gbps * (gap_ns - g_in_ns) / g_in_ns;
            sum_avail += (cap_gbps - cross_gbps).clamp(0.0, cap_gbps);
            pairs += 1;
        }
        let truth = self
            .path
            .capacity
            .saturating_sub(self.path.cross.mean_over(at, train_end.max(at + g_in)))
            .gbps_f64();
        if pairs > 0 {
            let raw = sum_avail / f64::from(pairs);
            self.estimator.observe(raw);
            let smooth = self.estimator.estimate_gbps().expect("just observed");
            self.spans.attr_f64(root, "est_gbps", raw);
            self.spans.attr_f64(root, "true_gbps", truth);
            self.samples.push(AbSample {
                at,
                raw_gbps: raw,
                smooth_gbps: smooth,
                true_gbps: truth,
            });
        }

        // Drain at train cadence — the recorder is bounded, the sampler
        // decides which whole traces survive.
        let batch = self.spans.take_spans();
        if self.observability {
            self.sampler.ingest(&batch);
        }
    }

    /// Close out the plane: build the metric families (estimate and
    /// error histograms with exemplars linked only to sampler-retained
    /// probe traces), and return the full estimation record.
    ///
    /// # Panics
    /// If any exemplar fails to resolve to a retained trace, or the
    /// span recorder dropped spans.
    pub fn finish(self) -> MeasureOutcome {
        let Prober {
            path,
            sampler,
            spans,
            samples,
            estimator,
            probes_sent,
            probes_dropped,
            observability,
            ..
        } = self;
        let span_dropped = spans.dropped();
        let mut families = FamilyRegistry::new();
        let stats = sampler.stats();
        let mut exemplars = 0usize;
        if observability {
            let labels = [("path", path.name)];
            {
                let h = families.histogram("measure_ab_estimate_gbps", &labels);
                h.enable_exemplars(0x0E5E_ED00 ^ probes_sent, EXEMPLAR_CAPACITY);
                for s in &samples {
                    h.record(s.raw_gbps);
                }
            }
            {
                let h = families.histogram("measure_estimate_error_pct", &labels);
                for s in &samples {
                    h.record(100.0 * (s.raw_gbps - s.true_gbps).abs() / path.capacity.gbps_f64());
                }
            }
            let kept: std::collections::BTreeSet<u64> =
                sampler.kept_root_ids().into_iter().collect();
            let retained = sampler.into_spans();
            {
                // Exemplars only from retained traces, so every exemplar
                // span_id resolves to a sampled probe train.
                let h = families.histogram("measure_ab_estimate_gbps", &labels);
                for s in retained
                    .iter()
                    .filter(|s| s.parent.is_none() && s.name == "probe.train")
                {
                    if let Some(simcore::AttrValue::F64(est)) = s
                        .attrs
                        .iter()
                        .find_map(|(k, v)| (*k == "est_gbps").then_some(v))
                    {
                        h.link_exemplar(*est, s.id.index() as u64, &labels);
                    }
                }
            }
            let ids: Vec<u64> = families
                .get_histogram("measure_ab_estimate_gbps", &labels)
                .expect("histogram just created")
                .exemplars()
                .iter()
                .map(|e| e.span_id)
                .collect();
            for id in &ids {
                assert!(
                    kept.contains(id),
                    "exemplar span_id {id} does not resolve to a sampled probe trace"
                );
            }
            exemplars = ids.len();
            families
                .counter("measure_trains_total", &labels)
                .add(estimator.trains());
            families
                .counter("measure_probes_total", &labels)
                .add(probes_sent);
            families
                .counter("measure_probes_dropped_total", &labels)
                .add(probes_dropped);
            families
                .gauge("measure_sampler_roots_seen", &labels)
                .set(stats.roots_seen as f64);
            families
                .gauge("measure_sampler_roots_kept", &labels)
                .set(stats.roots_kept as f64);
            if let Some(g) = estimator.estimate_gbps() {
                families.gauge("measure_available_gbps", &labels).set(g);
            }
        }
        MeasureOutcome {
            families,
            samples,
            trains: estimator.trains(),
            probes_sent,
            probes_dropped,
            sampler: stats,
            exemplars,
            span_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: u64) -> SimTime {
        SimTime::from_secs(h * 3600)
    }

    #[test]
    fn flat_cross_rate_and_mean() {
        let c = CrossTraffic::flat(DataRate::from_gbps(6));
        assert_eq!(c.rate_at(SimTime::ZERO), DataRate::from_gbps(6));
        assert_eq!(c.rate_at(hours(5)), DataRate::from_gbps(6));
        assert_eq!(c.next_change_after(SimTime::ZERO), None);
        assert_eq!(c.mean_over(SimTime::ZERO, hours(1)), DataRate::from_gbps(6));
    }

    #[test]
    fn square_alternates_and_integrates() {
        let c = CrossTraffic::square(
            DataRate::from_gbps(2),
            DataRate::from_gbps(10),
            SimDuration::from_secs(60),
            SimTime::from_secs(600),
        );
        assert_eq!(c.rate_at(SimTime::from_secs(30)), DataRate::from_gbps(2));
        assert_eq!(c.rate_at(SimTime::from_secs(90)), DataRate::from_gbps(10));
        // Mean over one full period is the midpoint.
        assert_eq!(
            c.mean_over(SimTime::ZERO, SimTime::from_secs(120)),
            DataRate::from_gbps(6)
        );
    }

    #[test]
    fn stationary_mean_tracks_target() {
        let mean = DataRate::from_gbps(20);
        let c = CrossTraffic::stationary(7, mean, 0.2, SimDuration::from_secs(10), hours(4));
        let got = c.mean_over(SimTime::ZERO, hours(4)).gbps_f64();
        assert!(
            (got - 20.0).abs() < 0.5,
            "stationary mean {got} drifted from 20"
        );
    }

    #[test]
    fn bursts_only_add_load() {
        let base = CrossTraffic::stationary(
            11,
            DataRate::from_gbps(10),
            0.1,
            SimDuration::from_secs(30),
            hours(2),
        );
        let base_mean = base.mean_over(SimTime::ZERO, hours(2));
        let bursty = base.clone().with_bursts(
            11,
            DataRate::from_gbps(8),
            SimDuration::from_secs(120),
            SimDuration::from_secs(600),
            hours(2),
        );
        let bursty_mean = bursty.mean_over(SimTime::ZERO, hours(2));
        assert!(bursty_mean > base_mean, "bursts must add load");
        assert!(bursty.peak() <= base.peak() + DataRate::from_gbps(8));
        // Outside every burst the base load shines through.
        for s in [0u64, 5, 50] {
            let t = SimTime::from_secs(s);
            assert!(bursty.rate_at(t) >= base.rate_at(t));
        }
    }

    #[test]
    fn diurnal_stays_in_band() {
        let c = CrossTraffic::diurnal(
            3,
            DataRate::from_gbps(20),
            DataRate::from_gbps(10),
            SimDuration::from_hours(24),
            SimDuration::from_mins(5),
            hours(24),
        );
        for h in 0..24 {
            let r = c.rate_at(hours(h)).gbps_f64();
            assert!((10.0..=30.0).contains(&r), "diurnal rate {r} out of band");
        }
        let m = c.mean_over(SimTime::ZERO, hours(24)).gbps_f64();
        assert!((m - 20.0).abs() < 1.0, "diurnal mean {m} off base");
    }

    #[test]
    fn noiseless_estimate_is_exact_under_constant_cross() {
        // C = 10G, R = 6G, no noise: the gap model recovers 4G exactly.
        let path = ProbePath {
            name: "t",
            capacity: DataRate::from_gbps(10),
            cross: CrossTraffic::flat(DataRate::from_gbps(6)),
        };
        let cfg = ProbeConfig {
            noise_ns: 0.0,
            ..ProbeConfig::default()
        };
        let mut p = Prober::new(path, cfg, 42, true);
        p.advance_to(SimTime::from_secs(120));
        let out_est = p.estimate().expect("trains ran").gbps_f64();
        assert!(
            (out_est - 4.0).abs() < 0.01,
            "noiseless estimate {out_est} != 4.0"
        );
        let out = p.finish();
        assert_eq!(out.probes_dropped, 0);
        assert!(out.trains >= 3);
        assert_eq!(out.span_dropped, 0);
        assert!(out.exemplars >= 1, "estimates must carry exemplars");
    }

    #[test]
    fn estimates_identical_with_observability_off() {
        let mk = |obs: bool| {
            let path = ProbePath {
                name: "t",
                capacity: DataRate::from_gbps(40),
                cross: CrossTraffic::stationary(
                    5,
                    DataRate::from_gbps(25),
                    0.3,
                    SimDuration::from_secs(10),
                    hours(1),
                ),
            };
            let mut p = Prober::new(path, ProbeConfig::default(), 9, obs);
            p.advance_to(SimTime::from_secs(1800));
            p.finish()
        };
        let on = mk(true);
        let off = mk(false);
        assert_eq!(on.samples.len(), off.samples.len());
        for (a, b) in on.samples.iter().zip(off.samples.iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.raw_gbps.to_bits(), b.raw_gbps.to_bits());
            assert_eq!(a.smooth_gbps.to_bits(), b.smooth_gbps.to_bits());
        }
        assert!(off.families.expose().is_empty());
        assert_eq!(off.exemplars, 0);
    }

    #[test]
    fn ewma_smooths_toward_truth() {
        let mut e = AbEstimator::new(0.5);
        e.observe(10.0);
        e.observe(20.0);
        assert!((e.estimate_gbps().unwrap() - 15.0).abs() < 1e-12);
        assert_eq!(e.trains(), 2);
    }

    #[test]
    fn heavy_cross_traffic_drops_probes() {
        // Cross 12G > C = 10G: the queue grows without bound, so late
        // trains see delays past the drop limit.
        let path = ProbePath {
            name: "t",
            capacity: DataRate::from_gbps(10),
            cross: CrossTraffic::flat(DataRate::from_gbps(12)),
        };
        let cfg = ProbeConfig {
            drop_delay: SimDuration::from_millis(1),
            ..ProbeConfig::default()
        };
        let mut p = Prober::new(path, cfg, 1, false);
        p.advance_to(SimTime::from_secs(300));
        assert!(p.probes_dropped() > 0);
    }
}
