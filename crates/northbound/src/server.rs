//! The intent API server: a modeled async request plane.
//!
//! One deterministic sim-time loop — no real sockets, honestly
//! benchmarked — in front of the GRIPhoN controller:
//!
//! ```text
//!  fleet ──▶ auth ──▶ token bucket ──▶ bounded tier queue ──▶ drain tick
//!            401        429 + retry     503 + retry │            │ batch
//!                       quota 403 ◀─────────────────┘            ▼
//!                                             Controller::journal_batch
//! ```
//!
//! Every admission decision happens at the edge; only admitted intents
//! reach [`Controller::reserve_bandwidth`], batched per drain tick
//! through [`Controller::journal_batch`] so the PR 5/6 WAL remains the
//! durability boundary. The server's own observability (metric
//! families, `api.admit` spans, tail sampling, SLO streams) never
//! touches controller state: replaying the admitted-intent stream
//! against a bare controller must — and is asserted to — produce a
//! byte-identical `state_digest_crc`.
//!
//! The plane has exactly two event sources — the request slice, sorted
//! by arrival, and the fixed drain cadence — so [`ApiServer::run`] merges
//! them in place: no event list is built and nothing is pending.

use std::collections::HashMap;

use griphon::{Controller, ControllerConfig, CustomerId, RegionMap, SloEngine, SloSpec};
use photonic::{generate, GeneratorConfig, RoadmId};
use simcore::metrics::{CounterId, FamilyRegistry, GaugeId, HistogramId};
use simcore::span::AttrValue;
use simcore::{
    BoundedQueue, DataRate, SimDuration, SimRng, SimTime, SpanRecorder, TailSampleConfig,
    TailSampleStats, TailSampler, TokenBucket,
};

use crate::directory::{TenantDirectory, Tier};
use crate::fleet::Request;
use crate::quota::{QuotaError, QuotaLedger, TierPolicy};

/// A typed rejection at the API edge — the wire response's semantics
/// without the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// 401: unknown tenant or forged token.
    Unauthorized,
    /// 429: the tenant's token bucket is empty; retry after the hint
    /// (`None` when the request can never pass, e.g. burst 0).
    RateLimited {
        /// Exact earliest retry that can succeed.
        retry_after: Option<SimDuration>,
    },
    /// 403: a quota budget is exhausted; retrying does not help until
    /// reservations end or budgets reset.
    QuotaExhausted(QuotaError),
    /// 503: the tier's admission queue is full — shed load, retry
    /// after roughly one drain interval.
    ShedLoad {
        /// Backpressure hint: time until the next drain tick.
        retry_after: SimDuration,
    },
}

/// What the server answered a submission with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Enqueued for the next drain; payload is the queue depth after.
    Accepted {
        /// Depth of the tier queue after enqueueing.
        depth: usize,
    },
    /// Refused with a typed rejection.
    Rejected(Rejection),
}

/// One admitted intent as handed off to the controller — the replayable
/// stream whose digest the server-on/off identity gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmittedIntent {
    /// Drain tick at which the hand-off happened.
    pub at: SimTime,
    /// Tenant tier (selects the controller-side tier customer).
    pub tier: Tier,
    /// Endpoint-pair index into the testbed pair table.
    pub pair: usize,
    /// Reserved rate, bps.
    pub rate_bps: u64,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// The requesting tenant.
    pub tenant: u64,
    /// True when the request came from the abuser overlay.
    pub abusive: bool,
}

/// Drain-tick cadence: queued intents are handed off to the controller
/// at every multiple of this interval.
pub const DRAIN_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Max intents handed off per drain tick (service capacity =
/// `DRAIN_BUDGET / DRAIN_INTERVAL`).
const DRAIN_BUDGET: usize = 10;
/// Admission-queue capacity per tier (drain-priority order).
pub const QUEUE_CAPACITY: [usize; 3] = [64, 128, 256];
/// Token-bucket refill per tier, millitokens/s.
const BUCKET_RATE_MT: [u64; 3] = [2_000, 500, 100];
/// Token-bucket burst per tier, tokens.
const BUCKET_BURST: [u64; 3] = [10, 5, 3];
/// Reservations start this far after their drain tick (the tenant books
/// ahead; also keeps activation outside the serving horizon).
const BOOKING_OFFSET: SimDuration = SimDuration::from_hours(1);
/// Admission-latency SLO threshold.
const SLO_LATENCY: SimDuration = SimDuration::from_secs(1);
/// Admission-latency SLO objective (good fraction).
const SLO_LATENCY_OBJECTIVE: f64 = 0.99;
/// Shed-rate SLO objective (non-shed fraction).
const SLO_SHED_OBJECTIVE: f64 = 0.90;
/// Tail-sampler window.
const SAMPLE_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Slowest admissions kept per sampler window.
const KEEP_SLOWEST: usize = 4;
/// Exemplars retained per latency histogram.
const EXEMPLAR_CAPACITY: usize = 4;
/// Sample queue depths every this many drain ticks.
const DEPTH_SAMPLE_EVERY: u64 = 10;
/// Exemplar-reservoir seed.
const EXEMPLAR_SEED: u64 = 0xA91;

/// The server's one tunable: the quota policy per tier.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Quota policy per tier.
    pub quota: [TierPolicy; 3],
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            quota: [
                TierPolicy {
                    tenant_budget_mgh: 100_000,
                    tier_budget_mgh: 50_000_000,
                    max_concurrent: 64,
                },
                TierPolicy {
                    tenant_budget_mgh: 30_000,
                    tier_budget_mgh: 100_000_000,
                    max_concurrent: 16,
                },
                TierPolicy {
                    tenant_budget_mgh: 10_000,
                    tier_budget_mgh: 10_000_000,
                    max_concurrent: 4,
                },
            ],
        }
    }
}

/// The controller-side fixture the server fronts: a generated plant,
/// one controller customer per tier, and the endpoint-pair table.
/// Shared by the server-on run and the replay run so genesis is
/// single-sourced.
pub struct Testbed {
    /// The controller over the generated plant.
    pub ctl: Controller,
    /// Tier customers (drain-priority order).
    pub customers: [CustomerId; 3],
    /// Endpoint pairs tenants can book between.
    pub pairs: Vec<(RoadmId, RoadmId)>,
}

/// Build the testbed: paper-scale plant, deterministic device profiles,
/// tier customers, and effectively-unbounded booking caps on the pair
/// table (admission control lives at the API edge in this scenario —
/// the calendar's own cap enforcement has its own tests).
pub fn build_testbed(target_roadms: usize, pair_count: usize, seed: u64) -> Testbed {
    let plant = generate(&GeneratorConfig::with_target_roadms(target_roadms, seed));
    let cfg = ControllerConfig {
        seed,
        ..ControllerConfig::quiet()
    };
    let mut ctl = Controller::new(plant.net.clone(), cfg);
    ctl.install_region_map(RegionMap::new(plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    let customers = [
        ctl.register_tenant("tier-premium", DataRate::from_gbps(1_000_000)),
        ctl.register_tenant("tier-standard", DataRate::from_gbps(1_000_000)),
        ctl.register_tenant("tier-free", DataRate::from_gbps(1_000_000)),
    ];
    let mut rng = SimRng::new(seed).fork(0x9A12);
    let all: Vec<RoadmId> = plant.interior.iter().flatten().copied().collect();
    let mut pairs = Vec::with_capacity(pair_count);
    for r in 0..pair_count {
        let a = *rng.choose(&all);
        let mut b = *rng.choose(&all);
        if a == b {
            b = plant.gateways[r % plant.gateways.len()];
        }
        pairs.push((a, b));
        ctl.set_booking_capacity(a, b, DataRate::from_gbps(100_000_000));
    }
    Testbed {
        ctl,
        customers,
        pairs,
    }
}

/// The `outcome` label of `api_requests_total`.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Unauthorized,
    RateLimited,
    ShedLoad,
    QuotaExhausted,
    Accepted,
    ControllerRefused,
}

impl Outcome {
    const COUNT: usize = 6;

    fn label(self) -> &'static str {
        match self {
            Outcome::Unauthorized => "unauthorized",
            Outcome::RateLimited => "rate_limited",
            Outcome::ShedLoad => "shed_load",
            Outcome::QuotaExhausted => "quota_exhausted",
            Outcome::Accepted => "accepted",
            Outcome::ControllerRefused => "controller_refused",
        }
    }
}

/// Ids of the children the edge writes on every request and every drain
/// tick, each resolved on its first write — never at construction, so a
/// child nothing wrote does not appear in the exposition.
#[derive(Default)]
struct HotIds {
    /// `api_requests_total{tier, outcome}`; tier row 3 is `unknown`.
    requests: [[Option<CounterId>; Outcome::COUNT]; 4],
    /// `api_admission_latency_ms{tier}`.
    latency: [Option<HistogramId>; 3],
    pending_events: Option<GaugeId>,
    next_event_lag: Option<GaugeId>,
}

/// Everything a finished serve run reports.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Controller `state_digest_crc` after the run.
    pub digest_crc: u32,
    /// The replayable admitted-intent stream, in hand-off order.
    pub admitted: Vec<AdmittedIntent>,
    /// Per-tier labeled metric families (admission latency histograms
    /// with exemplars, outcome counters, southbound-pressure gauges,
    /// SLO exports).
    pub families: FamilyRegistry,
    /// Tail-sampler accounting for the `api.admit` spans.
    pub sampler: TailSampleStats,
    /// Exemplars retained across the latency histograms.
    pub exemplars: usize,
    /// Spans dropped by the bounded recorder (must be 0).
    pub span_dropped: u64,
    /// Controller trace-ring drops (must be 0).
    pub trace_dropped: u64,
    /// Requests offered to the server.
    pub offered: u64,
    /// Admitted (handed off) per tier.
    pub admitted_per_tier: [u64; 3],
    /// 429s per tier.
    pub rate_limited_per_tier: [u64; 3],
    /// 403s per tier.
    pub quota_per_tier: [u64; 3],
    /// 503s per tier.
    pub shed_per_tier: [u64; 3],
    /// 401s (tier unknown at rejection time).
    pub unauthorized: u64,
    /// Sim-time admission latencies (arrival → hand-off), ns, per tier.
    pub latencies_ns: [Vec<u64>; 3],
    /// Queue-depth samples `(t, [premium, standard, free])`.
    pub depth_series: Vec<(SimTime, [usize; 3])>,
    /// Deepest each tier queue ever got.
    pub queue_high_water: [usize; 3],
    /// Items still queued when the horizon closed.
    pub final_depth: [usize; 3],
    /// Tenants that actually touched the quota ledger.
    pub active_tenants: usize,
    /// Admitted intents the controller itself refused (must be 0 in
    /// the bench scenario — the edge is the admission authority).
    pub controller_refusals: u64,
    /// Controller events processed during the run.
    pub events_processed: u64,
}

/// The modeled API server.
pub struct ApiServer {
    dir: TenantDirectory,
    ctl: Controller,
    customers: [CustomerId; 3],
    pairs: Vec<(RoadmId, RoadmId)>,
    queues: [BoundedQueue<u32>; 3],
    buckets: HashMap<u64, TokenBucket>,
    quota: QuotaLedger,
    spans: SpanRecorder,
    sampler: TailSampler,
    slo: SloEngine,
    families: FamilyRegistry,
    ids: HotIds,
    admitted: Vec<AdmittedIntent>,
    latencies_ns: [Vec<u64>; 3],
    depth_series: Vec<(SimTime, [usize; 3])>,
    admitted_per_tier: [u64; 3],
    rate_limited_per_tier: [u64; 3],
    quota_per_tier: [u64; 3],
    shed_per_tier: [u64; 3],
    unauthorized: u64,
    controller_refusals: u64,
    drains: u64,
    horizon: SimTime,
}

/// SLO spec names the server feeds.
pub(crate) const SLO_ADMISSION: &str = "api_admission_latency";
/// Shed-rate SLO name.
pub(crate) const SLO_SHED: &str = "api_shed_rate";

impl ApiServer {
    /// A server fronting `testbed` for the fleet described by `dir`.
    pub fn new(testbed: Testbed, dir: TenantDirectory, cfg: ServerConfig) -> ApiServer {
        let slo = SloEngine::new(vec![
            SloSpec {
                name: SLO_ADMISSION,
                objective: SLO_LATENCY_OBJECTIVE,
                threshold_secs: SLO_LATENCY.as_secs_f64(),
            },
            SloSpec {
                name: SLO_SHED,
                objective: SLO_SHED_OBJECTIVE,
                threshold_secs: 0.0,
            },
        ]);
        let sampler = TailSampler::new(TailSampleConfig {
            window: SAMPLE_WINDOW,
            keep_slowest: KEEP_SLOWEST,
            slow_threshold: Some(SLO_LATENCY),
        });
        ApiServer {
            quota: QuotaLedger::new(cfg.quota),
            queues: QUEUE_CAPACITY.map(BoundedQueue::new),
            spans: SpanRecorder::new(4 * DRAIN_BUDGET.max(64)),
            sampler,
            slo,
            families: FamilyRegistry::new(),
            ids: HotIds::default(),
            dir,
            ctl: testbed.ctl,
            customers: testbed.customers,
            pairs: testbed.pairs,
            buckets: HashMap::new(),
            admitted: Vec::new(),
            latencies_ns: [Vec::new(), Vec::new(), Vec::new()],
            depth_series: Vec::new(),
            admitted_per_tier: [0; 3],
            rate_limited_per_tier: [0; 3],
            quota_per_tier: [0; 3],
            shed_per_tier: [0; 3],
            unauthorized: 0,
            controller_refusals: 0,
            drains: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// Submit one request at its arrival time — the full edge pipeline:
    /// authentication, rate limit, backpressure, quota, enqueue.
    pub fn submit(&mut self, now: SimTime, idx: u32, req: &Request) -> SubmitOutcome {
        let Some(tier) = self.dir.authenticate(req.tenant, req.token) else {
            self.unauthorized += 1;
            self.count_outcome(None, Outcome::Unauthorized);
            return SubmitOutcome::Rejected(Rejection::Unauthorized);
        };
        let ti = tier.index();

        // Per-tenant token bucket, created lazily at the tier's policy.
        let bucket = self
            .buckets
            .entry(req.tenant)
            .or_insert_with(|| TokenBucket::new(BUCKET_RATE_MT[ti], BUCKET_BURST[ti]));
        if let Err(limited) = bucket.try_take(now, 1) {
            self.rate_limited_per_tier[ti] += 1;
            self.count_outcome(Some(tier), Outcome::RateLimited);
            self.slo.observe(SLO_SHED, tier.label(), now, true);
            return SubmitOutcome::Rejected(Rejection::RateLimited {
                retry_after: limited.retry_after,
            });
        }

        // Backpressure before quota: a request that would be shed must
        // not consume budget.
        if self.queues[ti].len() >= self.queues[ti].capacity() {
            self.shed_per_tier[ti] += 1;
            self.count_outcome(Some(tier), Outcome::ShedLoad);
            self.slo.observe(SLO_SHED, tier.label(), now, false);
            let retry_after = self.time_to_next_drain(now);
            return SubmitOutcome::Rejected(Rejection::ShedLoad { retry_after });
        }

        if let Err(e) = self
            .quota
            .charge(req.tenant, tier, req.rate_bps, req.duration_secs)
        {
            self.quota_per_tier[ti] += 1;
            self.count_outcome(Some(tier), Outcome::QuotaExhausted);
            self.slo.observe(SLO_SHED, tier.label(), now, true);
            return SubmitOutcome::Rejected(Rejection::QuotaExhausted(e));
        }

        let depth = match self.queues[ti].push(idx) {
            Ok(simcore::PushOutcome::Enqueued(d)) => d,
            _ => unreachable!("capacity checked above"),
        };
        self.count_outcome(Some(tier), Outcome::Accepted);
        self.slo.observe(SLO_SHED, tier.label(), now, true);
        SubmitOutcome::Accepted { depth }
    }

    /// Count one decided request; `tier` is `None` before authentication.
    fn count_outcome(&mut self, tier: Option<Tier>, outcome: Outcome) {
        let id = *self.ids.requests[tier.map_or(3, Tier::index)][outcome as usize]
            .get_or_insert_with(|| {
                let tier = tier.map_or("unknown", Tier::label);
                self.families.counter_id(
                    "api_requests_total",
                    &[("tier", tier), ("outcome", outcome.label())],
                )
            });
        self.families.counter_at(id).incr();
    }

    /// The tier's admission-latency histogram, created with its exemplar
    /// reservoir on the tier's first admission.
    fn latency_histogram(&mut self, tier: Tier) -> &mut simcore::Histogram {
        let id = *self.ids.latency[tier.index()].get_or_insert_with(|| {
            let id = self
                .families
                .histogram_id("api_admission_latency_ms", &[("tier", tier.label())]);
            self.families
                .histogram_at(id)
                .enable_exemplars(EXEMPLAR_SEED ^ tier.index() as u64, EXEMPLAR_CAPACITY);
            id
        });
        self.families.histogram_at(id)
    }

    fn time_to_next_drain(&self, now: SimTime) -> SimDuration {
        let iv = DRAIN_INTERVAL.as_nanos();
        let since = now.as_nanos() % iv;
        SimDuration::from_nanos(if since == 0 { 0 } else { iv - since })
    }

    fn on_drain(&mut self, now: SimTime, requests: &[Request]) {
        self.drains += 1;
        // Keep the controller's clock at the drain edge so window
        // validation sees the same `now` the hand-off uses.
        self.ctl.run_until(now);

        // Strict priority drain: premium first, then standard, free.
        // Sized by what is queued, so an idle tick allocates no batch.
        let queued: usize = self.queues.iter().map(|q| q.len()).sum();
        let mut picked: Vec<(u32, Tier)> = Vec::with_capacity(queued.min(DRAIN_BUDGET));
        for tier in Tier::ALL {
            while picked.len() < DRAIN_BUDGET {
                match self.queues[tier.index()].pop() {
                    Some(idx) => picked.push((idx, tier)),
                    None => break,
                }
            }
        }

        if !picked.is_empty() {
            // Resolve everything the hand-off closure needs up front.
            struct Item {
                idx: u32,
                tier: Tier,
                customer: CustomerId,
                from: RoadmId,
                to: RoadmId,
                rate_bps: u64,
                start: SimTime,
                end: SimTime,
            }
            let items: Vec<Item> = picked
                .iter()
                .map(|&(idx, tier)| {
                    let req = &requests[idx as usize];
                    let (from, to) = self.pairs[req.pair];
                    let start = now + BOOKING_OFFSET;
                    Item {
                        idx,
                        tier,
                        customer: self.customers[tier.index()],
                        from,
                        to,
                        rate_bps: req.rate_bps,
                        start,
                        end: start + SimDuration::from_secs(req.duration_secs),
                    }
                })
                .collect();
            // One group-committed batch per drain tick: with a WAL
            // attached this is a single flush — the API edge's
            // durability boundary.
            let (results, _) = self.ctl.journal_batch(|c| {
                items
                    .iter()
                    .map(|it| {
                        c.reserve_bandwidth(
                            it.customer,
                            it.from,
                            it.to,
                            DataRate::from_bps(it.rate_bps),
                            it.start,
                            it.end,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            for (it, res) in items.iter().zip(&results) {
                let req = &requests[it.idx as usize];
                if res.is_err() {
                    self.controller_refusals += 1;
                    self.count_outcome(Some(it.tier), Outcome::ControllerRefused);
                    continue;
                }
                let ti = it.tier.index();
                self.admitted_per_tier[ti] += 1;
                self.admitted.push(AdmittedIntent {
                    at: now,
                    tier: it.tier,
                    pair: req.pair,
                    rate_bps: it.rate_bps,
                    start: it.start,
                    end: it.end,
                    tenant: req.tenant,
                    abusive: req.abusive,
                });
                let latency = now.saturating_since(req.arrival);
                let latency_ms = latency.as_secs_f64() * 1e3;
                self.latencies_ns[ti].push(latency.as_nanos());
                self.latency_histogram(it.tier).record(latency_ms);
                self.slo
                    .observe_latency(SLO_ADMISSION, it.tier.label(), now, latency);
                // One closed api.admit span per hand-off; the tail
                // sampler decides which survive the window.
                let span = self
                    .spans
                    .record(req.arrival, now, "api", "api.admit", None);
                self.spans.attr_f64(span, "latency_ms", latency_ms);
                self.spans.attr_u64(span, "tenant", req.tenant);
                self.spans
                    .attr_str(span, "tier", it.tier.label().to_string());
            }
        }

        // Drain the bounded recorder every tick that recorded anything;
        // retention is the sampler's decision, drops are a hard failure.
        if !self.spans.is_empty() {
            let batch = self.spans.take_spans();
            self.sampler.ingest(&batch);
        }

        // Southbound pressure (satellite: NOC-scrapable gauge from
        // `peek_event_time` / `pending_events` at every drain).
        let southbound = [("surface", "southbound")];
        let pending = self.ctl.pending_events();
        let id = *self.ids.pending_events.get_or_insert_with(|| {
            self.families
                .gauge_id("api_southbound_pending_events", &southbound)
        });
        self.families.gauge_at(id).set(pending as f64);
        let lag = self
            .ctl
            .peek_event_time()
            .map(|t| t.saturating_since(now).as_secs_f64())
            .unwrap_or(0.0);
        let id = *self.ids.next_event_lag.get_or_insert_with(|| {
            self.families
                .gauge_id("api_southbound_next_event_lag_secs", &southbound)
        });
        self.families.gauge_at(id).set(lag);

        if self.drains.is_multiple_of(DEPTH_SAMPLE_EVERY) {
            self.depth_series.push((
                now,
                [
                    self.queues[0].len(),
                    self.queues[1].len(),
                    self.queues[2].len(),
                ],
            ));
        }
    }

    /// Run the server over `requests` until `horizon`.
    ///
    /// `requests` must be sorted by arrival, as [`crate::fleet::generate`]
    /// returns them. Drain ticks fire at every multiple of
    /// [`DRAIN_INTERVAL`] in `(0, horizon]`; a request arriving at
    /// `t ≤ horizon` is offered, one arriving later never is (it is not
    /// counted in [`ServeOutcome::offered`] either). An arrival that falls
    /// exactly on a drain instant is decided *before* that drain, and
    /// equal-time arrivals are decided in slice order — the `(time, seq)`
    /// order of an event list that schedules every arrival before the
    /// first drain.
    ///
    /// # Panics
    /// If `requests` is longer than `u32::MAX` (the tier queues hold `u32`
    /// indices into it), or if an arrival is earlier than the one before
    /// it; the message names the first out-of-order index.
    pub fn run(&mut self, requests: &[Request], horizon: SimTime) {
        assert!(
            u32::try_from(requests.len()).is_ok(),
            "{} requests do not fit the u32 queue index",
            requests.len()
        );
        if let Some(i) = requests
            .windows(2)
            .position(|w| w[1].arrival < w[0].arrival)
        {
            panic!(
                "requests are not sorted by arrival: request {} arrives at {}, before request {i} at {}",
                i + 1,
                requests[i + 1].arrival,
                requests[i].arrival
            );
        }
        self.horizon = horizon;
        let mut cursor = 0;
        let mut drain = SimTime::ZERO + DRAIN_INTERVAL;
        loop {
            match requests.get(cursor) {
                Some(req) if req.arrival <= drain.min(horizon) => {
                    let _ = self.submit(req.arrival, cursor as u32, req);
                    cursor += 1;
                }
                _ if drain <= horizon => {
                    self.on_drain(drain, requests);
                    drain += DRAIN_INTERVAL;
                }
                _ => break,
            }
        }
        self.ctl.run_until(horizon);
    }

    /// Close out the run: final SLO export, exemplar linkage from the
    /// sampler-retained traces, and the full outcome record.
    ///
    /// # Panics
    /// If any exemplar fails to resolve to a retained `api.admit`
    /// trace, or the span recorder dropped spans.
    pub fn finish(self) -> ServeOutcome {
        let ApiServer {
            ctl,
            sampler,
            spans,
            slo,
            mut families,
            admitted,
            latencies_ns,
            depth_series,
            admitted_per_tier,
            rate_limited_per_tier,
            quota_per_tier,
            shed_per_tier,
            unauthorized,
            controller_refusals,
            quota,
            queues,
            horizon,
            ..
        } = self;
        let span_dropped = spans.dropped();
        let stats = sampler.stats();

        // Exemplars only from retained traces (the measure-plane
        // pattern): every kept exemplar links to a span that survives.
        let retained = sampler.into_spans();
        for s in retained.iter().filter(|s| s.name == "api.admit") {
            let tier = s.attrs.iter().find_map(|(k, v)| match v {
                AttrValue::Str(t) if *k == "tier" => Some(t.as_str()),
                _ => None,
            });
            let latency = s.attrs.iter().find_map(|(k, v)| match v {
                AttrValue::F64(ms) if *k == "latency_ms" => Some(*ms),
                _ => None,
            });
            if let (Some(tier), Some(ms)) = (tier, latency) {
                // Label set must match the histogram child's own labels.
                let tier: &'static str = Tier::ALL
                    .iter()
                    .map(|t| t.label())
                    .find(|l| *l == tier)
                    .expect("tier label from our own span");
                let labels = [("tier", tier)];
                families
                    .histogram("api_admission_latency_ms", &labels)
                    .link_exemplar(ms, s.id.index() as u64, &labels);
            }
        }
        let retained_ids: std::collections::BTreeSet<u64> =
            retained.iter().map(|s| s.id.index() as u64).collect();
        let mut exemplars = 0usize;
        // A tier that admitted nothing has no histogram.
        for h in Tier::ALL.iter().filter_map(|tier| {
            families.get_histogram("api_admission_latency_ms", &[("tier", tier.label())])
        }) {
            for e in h.exemplars() {
                assert!(
                    retained_ids.contains(&e.span_id),
                    "exemplar span {} does not resolve to a retained trace",
                    e.span_id
                );
                exemplars += 1;
            }
        }

        slo.export(horizon, &mut families);
        ServeOutcome {
            digest_crc: ctl.state_digest_crc(),
            admitted,
            sampler: stats,
            exemplars,
            span_dropped,
            trace_dropped: ctl.trace.dropped(),
            offered: unauthorized
                + admitted_per_tier.iter().sum::<u64>()
                + rate_limited_per_tier.iter().sum::<u64>()
                + quota_per_tier.iter().sum::<u64>()
                + shed_per_tier.iter().sum::<u64>()
                + queues.iter().map(|q| q.len() as u64).sum::<u64>()
                + controller_refusals,
            admitted_per_tier,
            rate_limited_per_tier,
            quota_per_tier,
            shed_per_tier,
            unauthorized,
            latencies_ns,
            depth_series,
            queue_high_water: [
                queues[0].high_water(),
                queues[1].high_water(),
                queues[2].high_water(),
            ],
            final_depth: [queues[0].len(), queues[1].len(), queues[2].len()],
            active_tenants: quota.active_tenants(),
            controller_refusals,
            events_processed: ctl.events_processed(),
            families,
        }
    }
}

/// Replay an admitted-intent stream against a bare testbed controller —
/// the "server-off" run. The resulting `state_digest_crc` must equal
/// the server-on digest: the edge plane (auth, limits, queues, spans,
/// metrics) must leave zero residue in controller state.
pub fn replay_admitted(testbed: Testbed, admitted: &[AdmittedIntent], horizon: SimTime) -> u32 {
    let Testbed {
        mut ctl,
        customers,
        pairs,
    } = testbed;
    let mut i = 0;
    while i < admitted.len() {
        let at = admitted[i].at;
        ctl.run_until(at);
        let j = i + admitted[i..].iter().take_while(|a| a.at == at).count();
        let (refused, _) = ctl.journal_batch(|c| {
            let mut refused = 0u32;
            for a in &admitted[i..j] {
                let (from, to) = pairs[a.pair];
                if c.reserve_bandwidth(
                    customers[a.tier.index()],
                    from,
                    to,
                    DataRate::from_bps(a.rate_bps),
                    a.start,
                    a.end,
                )
                .is_err()
                {
                    refused += 1;
                }
            }
            refused
        });
        assert_eq!(refused, 0, "replay refused an admitted intent");
        i = j;
    }
    ctl.run_until(horizon);
    ctl.state_digest_crc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{self, AbuserConfig, FleetConfig};
    use simcore::Scheduler;

    /// A well-formed 1 Gbps / 10 min request from `tenant` at `ms`.
    fn request_at(dir: &TenantDirectory, tenant: u64, ms: u64) -> Request {
        Request {
            tenant,
            token: dir.token_for(tenant),
            arrival: SimTime::from_millis(ms),
            pair: 0,
            rate_bps: 1_000_000_000,
            duration_secs: 600,
            abusive: false,
        }
    }

    fn small_run(seed: u64) -> (ServeOutcome, Testbed) {
        let fleet_cfg = FleetConfig {
            tenants: 1_000,
            seed,
            ..FleetConfig::default()
        };
        let dir = TenantDirectory::new(fleet_cfg.tenants, seed);
        let requests = fleet::generate(&fleet_cfg, &dir);
        let testbed = build_testbed(14, fleet_cfg.pairs, seed);
        let replay_bed = build_testbed(14, fleet_cfg.pairs, seed);
        let mut server = ApiServer::new(testbed, dir, ServerConfig::default());
        server.run(&requests, fleet_cfg.horizon);
        (server.finish(), replay_bed)
    }

    #[test]
    fn server_off_replay_matches_digest() {
        let (outcome, replay_bed) = small_run(0xBEEF);
        assert!(!outcome.admitted.is_empty(), "nothing was admitted");
        let off = replay_admitted(replay_bed, &outcome.admitted, SimTime::from_secs(60));
        assert_eq!(
            outcome.digest_crc, off,
            "server-on and replay digests diverged"
        );
        assert_eq!(outcome.controller_refusals, 0);
        assert_eq!(outcome.span_dropped, 0);
        assert_eq!(outcome.trace_dropped, 0);
    }

    #[test]
    fn every_request_is_accounted_once() {
        let (outcome, _) = small_run(0xACC1);
        let requests = {
            let cfg = FleetConfig {
                tenants: 1_000,
                seed: 0xACC1,
                ..FleetConfig::default()
            };
            let dir = TenantDirectory::new(cfg.tenants, 0xACC1);
            fleet::generate(&cfg, &dir)
        };
        assert_eq!(outcome.offered, requests.len() as u64);
    }

    #[test]
    fn queues_never_exceed_capacity() {
        let (outcome, _) = small_run(0xCA9);
        for (hw, cap) in outcome.queue_high_water.iter().zip(QUEUE_CAPACITY) {
            assert!(hw <= &cap, "queue high water {hw} over capacity {cap}");
        }
    }

    #[test]
    fn exemplars_resolve_and_latency_recorded() {
        let (outcome, _) = small_run(0xE7);
        // finish() asserts resolution internally; sanity-check volume.
        assert!(outcome.admitted_per_tier.iter().sum::<u64>() > 0);
        assert!(outcome.latencies_ns.iter().any(|v| !v.is_empty()));
        assert!(outcome.sampler.roots_seen > 0);
    }

    #[test]
    fn rejections_carry_retry_hints() {
        let seed = 0x4229;
        let dir = TenantDirectory::new(100, seed);
        let testbed = build_testbed(14, 2, seed);
        let mut server = ApiServer::new(testbed, dir.clone(), ServerConfig::default());
        assert!(
            server.families.is_empty(),
            "no child exists before its first write"
        );
        server.horizon = SimTime::from_secs(60);
        let mk = |tenant: u64, at: u64| request_at(&dir, tenant, at);
        // Free-tier tenant 42: burst 3, then 429 with a finite hint.
        let reqs: Vec<Request> = (0..5).map(|i| mk(42, i)).collect();
        let mut last = SubmitOutcome::Accepted { depth: 0 };
        for (i, r) in reqs.iter().enumerate() {
            last = server.submit(r.arrival, i as u32, r);
        }
        match last {
            SubmitOutcome::Rejected(Rejection::RateLimited { retry_after }) => {
                assert!(retry_after.expect("finite hint") > SimDuration::ZERO);
            }
            other => panic!("expected 429, got {other:?}"),
        }
        // Forged token: 401.
        let mut forged = mk(7, 10);
        forged.token ^= 1;
        assert_eq!(
            server.submit(forged.arrival, 99, &forged),
            SubmitOutcome::Rejected(Rejection::Unauthorized)
        );
        // Only what was written is exposed: three outcomes, no latency
        // histogram (nothing drained), no southbound gauges.
        assert_eq!(
            server.families.expose(),
            "# TYPE api_requests_total counter\n\
             api_requests_total{outcome=\"accepted\",tier=\"free\"} 3\n\
             api_requests_total{outcome=\"rate_limited\",tier=\"free\"} 2\n\
             api_requests_total{outcome=\"unauthorized\",tier=\"unknown\"} 1\n"
        );
    }

    /// `run` as it was before the merge loop: every arrival goes on an
    /// event list first, then each drain schedules the next. `(time, seq)`
    /// pop order is the specification `run`'s tie rule has to reproduce.
    fn run_on_event_list(server: &mut ApiServer, requests: &[Request], horizon: SimTime) {
        #[derive(Clone, Copy)]
        enum ServerEvent {
            Arrival(u32),
            Drain,
        }
        server.horizon = horizon;
        let mut sched = Scheduler::new();
        for (i, r) in requests.iter().enumerate() {
            sched.schedule_at(r.arrival, ServerEvent::Arrival(i as u32));
        }
        sched.schedule_at(SimTime::ZERO + DRAIN_INTERVAL, ServerEvent::Drain);
        while let Some((t, ev)) = sched.pop_until(horizon) {
            match ev {
                ServerEvent::Arrival(i) => {
                    let _ = server.submit(t, i, &requests[i as usize]);
                }
                ServerEvent::Drain => {
                    server.on_drain(t, requests);
                    let next = t + DRAIN_INTERVAL;
                    if next <= horizon {
                        sched.schedule_at(next, ServerEvent::Drain);
                    }
                }
            }
        }
        server.ctl.run_until(horizon);
    }

    /// Serve `requests` through `run` and through the event-list oracle on
    /// identical fixtures; the whole `ServeOutcome` must agree (its `Debug`
    /// form covers every field, and nothing in it iterates a hash map).
    /// Returns the merge loop's outcome.
    fn assert_run_matches_event_list(
        requests: &[Request],
        dir: &TenantDirectory,
        pairs: usize,
        horizon: SimTime,
    ) -> ServeOutcome {
        let serve = |event_list: bool| {
            let mut server = ApiServer::new(
                build_testbed(14, pairs, 0x7E57),
                dir.clone(),
                ServerConfig::default(),
            );
            if event_list {
                run_on_event_list(&mut server, requests, horizon);
            } else {
                server.run(requests, horizon);
            }
            server.finish()
        };
        let (got, want) = (serve(false), serve(true));
        // The short fields first, for a readable failure; then everything.
        assert_eq!(got.admitted, want.admitted);
        assert_eq!(got.depth_series, want.depth_series);
        assert_eq!(got.families.expose(), want.families.expose());
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        got
    }

    #[test]
    fn merge_loop_matches_event_list_on_generated_fleets() {
        let fleets = [
            // At drain capacity, 4x over it, and with an abuser overlay
            // (the only generator path that re-sorts the stream).
            FleetConfig {
                tenants: 1_000,
                seed: 0xE0,
                ..FleetConfig::default()
            },
            FleetConfig {
                tenants: 1_000,
                seed: 0xE1,
                base_rate_per_sec: 400.0,
                ..FleetConfig::default()
            },
            FleetConfig {
                tenants: 1_000,
                seed: 0xE2,
                abuser: Some(AbuserConfig {
                    tenant: 42,
                    rate_per_sec: 50.0,
                }),
                ..FleetConfig::default()
            },
        ];
        for cfg in fleets {
            let dir = TenantDirectory::new(cfg.tenants, cfg.seed);
            let requests = fleet::generate(&cfg, &dir);
            let out = assert_run_matches_event_list(&requests, &dir, cfg.pairs, cfg.horizon);
            assert_eq!(out.offered, requests.len() as u64);
            assert!(
                !out.admitted.is_empty(),
                "seed {:#x} admitted nothing",
                cfg.seed
            );
        }
    }

    /// No generated fleet has an arrival exactly on a drain instant
    /// (arrivals are ns-resolution draws), so this hand-built stream is
    /// what pins the tie rule: an arrival at `t == drain` is decided
    /// before that drain and handed off by it with zero latency.
    #[test]
    fn arrivals_on_drain_instants_go_first_and_late_ones_are_never_offered() {
        let dir = TenantDirectory::new(100, 0x71E);
        let at = |tenant: u64, ms: u64| request_at(&dir, tenant, ms);
        // Drains every 100 ms. Tenants are distinct, so no bucket limits.
        let requests = [
            at(1, 100), // exactly on the first drain
            at(2, 150),
            at(3, 150), // equal-time pair, slice order
            at(4, 200),
            at(5, 200), // equal-time pair on a drain instant
            at(6, 201),
            at(7, 900),   // == the 900 ms horizon below, a drain instant
            at(8, 950),   // == the 950 ms horizon below, between drains
            at(9, 1_000), // == the 1 s horizon below, a drain instant
            at(10, 1_001),
        ];
        let ms = SimTime::from_millis;
        // Tenant 1 arrives on the 100 ms drain and is handed off by it, 4
        // and 5 likewise at 200 ms; 2, 3 and 6 wait for the next drain. An
        // arrival at the horizon is offered, and handed off only if the
        // horizon is itself a drain instant.
        let hand_offs = [
            (1, 100),
            (2, 200),
            (3, 200),
            (4, 200),
            (5, 200),
            (6, 300),
            (7, 900),
            (8, 1_000),
            (9, 1_000),
            (10, 1_100),
        ];
        // (horizon ms, offered, handed off, left queued)
        let cases = [
            (900, 7, 7, 0),
            (950, 8, 7, 1),
            (1_000, 9, 9, 0),
            (2_000, 10, 10, 0),
        ];
        for (horizon, offered, handed_off, queued) in cases {
            let out = assert_run_matches_event_list(&requests, &dir, 1, ms(horizon));
            assert_eq!(out.offered, offered, "horizon {horizon} ms");
            assert_eq!(out.final_depth.iter().sum::<usize>(), queued);
            // Within one drain the tiers decide the order: compare sorted.
            let mut got: Vec<(u64, SimTime)> =
                out.admitted.iter().map(|a| (a.tenant, a.at)).collect();
            got.sort_unstable();
            let want: Vec<(u64, SimTime)> = hand_offs[..handed_off]
                .iter()
                .map(|&(tenant, at)| (tenant, ms(at)))
                .collect();
            assert_eq!(got, want, "horizon {horizon} ms");
        }
    }

    #[test]
    #[should_panic(expected = "request 2 arrives at")]
    fn unsorted_requests_are_refused_up_front() {
        let dir = TenantDirectory::new(100, 1);
        let at = |ms: u64| request_at(&dir, 1, ms);
        let mut server = ApiServer::new(
            build_testbed(14, 1, 1),
            dir.clone(),
            ServerConfig::default(),
        );
        server.run(&[at(10), at(30), at(20), at(5)], SimTime::from_secs(1));
    }
}
