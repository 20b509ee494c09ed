//! Fixed-tick oracles of every transfer policy, written over the public
//! API of `cloud` and `griphon`: each tick admits, serves the FIFO head,
//! bills, and decides — the loop the event-driven drivers of
//! `cloud::scheduler` must match byte-for-byte when decisions are
//! restricted to tick boundaries.
//!
//! Three loops share one rescanning transfer list ([`PairRun`]), one
//! member-rate pass and one backlog sizing rule:
//!
//! - [`store_forward`] / [`static_line`] — the harvest loop;
//! - [`bod`] / [`deadline_bod`] / [`multi_pair_bod`] — the BoD loop,
//!   every pair every tick;
//! - [`measured_bod`] — the estimation-aware loop as it ran before it
//!   moved onto the shared driver; every `repro measure` number was
//!   produced by it.
//!
//! None calls a decision of the drivers: the usable harvest rate, the
//! backlog and deadline sizing and the order/release rules are this
//! file's own copies, so a change to what a policy decides moves the
//! driver alone. The oracles record no spans and push no NOC gauges;
//! the tests that use them leave both off. Test-only: nothing outside
//! `tests/` includes this file.

#![allow(dead_code)] // each test binary uses its own subset

use cloud::{
    BodPolicy, BulkJob, DeadlineBodPolicy, MeasuredBodPolicy, MeasuredMode, MeasuredRun,
    MultiPairBod, PolicyOutcome, StaticLinePolicy, StoreForwardPolicy, Transfer, TransferLog,
};
use griphon::controller::Controller;
use griphon::{ConnState, ConnectionId, CustomerId, ProbeConfig, ProbePath, Prober};
use photonic::{LineRate, RoadmId};
use simcore::{DataRate, DataSize, SimDuration, SimTime};

/// The one wavelength size every BoD policy orders.
const TEN_G: DataRate = DataRate::from_gbps(10);

/// A pair's FIFO transfer list, rescanned every tick.
struct PairRun {
    pending: Vec<BulkJob>,
    transfers: Vec<Transfer>,
    next_arrival: usize,
}

impl PairRun {
    fn new(mut jobs: Vec<BulkJob>) -> PairRun {
        jobs.sort_by_key(|j| (j.created, j.id));
        PairRun {
            pending: jobs,
            transfers: Vec::new(),
            next_arrival: 0,
        }
    }

    /// Admit jobs created up to `now`.
    fn admit(&mut self, now: SimTime) {
        while self.next_arrival < self.pending.len()
            && self.pending[self.next_arrival].created <= now
        {
            self.transfers
                .push(Transfer::new(self.pending[self.next_arrival].clone()));
            self.next_arrival += 1;
        }
    }

    /// The unfinished transfers, oldest first.
    fn unfinished(&self) -> impl Iterator<Item = &Transfer> {
        self.transfers.iter().filter(|t| !t.is_done())
    }

    /// Bytes queued but unfinished.
    fn backlog(&self) -> DataSize {
        self.unfinished().map(|t| t.remaining).sum()
    }

    /// Give the full `rate` to the FIFO head for `dt` (splitting across
    /// the boundary when the head finishes mid-tick).
    fn advance(&mut self, now: SimTime, dt: SimDuration, rate: DataRate) {
        let mut t = now;
        let end = now + dt;
        while t < end {
            let Some(head) = self.transfers.iter_mut().find(|tr| !tr.is_done()) else {
                return;
            };
            let window = end.since(t);
            let before_remaining = head.remaining;
            head.advance(t, window, rate);
            match head.completed {
                Some(done_at) if done_at < end => {
                    t = done_at; // hand the remainder of the tick to the next job
                }
                _ => return,
            }
            debug_assert!(before_remaining >= head.remaining);
        }
    }

    fn all_done(&self) -> bool {
        self.next_arrival == self.pending.len() && self.transfers.iter().all(Transfer::is_done)
    }
}

/// Bandwidth in service (`Active`) and bandwidth committed
/// (`Active` or `Provisioning`) across a member list, in one pass.
fn member_rates(ctl: &Controller, members: &[ConnectionId]) -> (DataRate, DataRate) {
    let mut active = DataRate::ZERO;
    let mut committed = DataRate::ZERO;
    for id in members {
        if let Some(c) = ctl.connection(*id) {
            match c.state {
                ConnState::Active => {
                    active += c.kind.rate();
                    committed += c.kind.rate();
                }
                ConnState::Provisioning => committed += c.kind.rate(),
                _ => {}
            }
        }
    }
    (active, committed)
}

/// The rate `BodPolicy` wants: drain the backlog within the target,
/// capped by the access pipe.
fn backlog_desired(backlog: DataSize, drain_target: SimDuration, max_rate: DataRate) -> DataRate {
    let desired_bps =
        (backlog.bits() as f64 / drain_target.as_secs_f64()).min(max_rate.bps() as f64) as u64;
    DataRate::from_bps(desired_bps)
}

// ── harvest ───────────────────────────────────────────────────────────

/// Direct leftover of the line at `t` plus each relay's two-hop minimum
/// of leftovers, the relay's leg seen through its phase-shifted clock.
fn usable_rate(
    p: &StoreForwardPolicy,
    t: SimTime,
    interactive: &dyn Fn(SimTime) -> DataRate,
) -> DataRate {
    let mut total = p.line.saturating_sub(interactive(t));
    for r in 0..p.relays {
        let shift = SimDuration::from_secs_f64((r as f64 + 1.0) * p.relay_phase_hours * 3600.0);
        let leg1 = p.line.saturating_sub(interactive(t + shift));
        let leg2 = p.line.saturating_sub(interactive(t));
        total += DataRate::from_bps(leg1.bps().min(leg2.bps()));
    }
    total
}

/// Store-and-forward over leftover capacity, one tick at a time.
pub fn store_forward(
    p: &StoreForwardPolicy,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
    interactive: &dyn Fn(SimTime) -> DataRate,
) -> PolicyOutcome {
    let mut run = PairRun::new(jobs);
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + horizon;
    let mut peak: f64 = 0.0;
    while t < end {
        run.admit(t);
        let rate = usable_rate(p, t, interactive);
        peak = peak.max(rate.gbps_f64());
        run.advance(t, tick, rate);
        t += tick;
        if run.all_done() {
            break;
        }
    }
    PolicyOutcome {
        log: TransferLog::summarize(&run.transfers),
        gbps_hours: 0.0,
        peak_gbps: peak,
        setups: 0,
    }
}

/// A leased line: bulk harvests what interactive traffic leaves of it,
/// and the whole line is billed around the clock.
pub fn static_line(
    p: &StaticLinePolicy,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
    interactive: &dyn Fn(SimTime) -> DataRate,
) -> PolicyOutcome {
    let direct = StoreForwardPolicy {
        line: p.line,
        relays: 0,
        relay_phase_hours: 0.0,
    };
    let hours = horizon.as_secs_f64() / 3600.0;
    PolicyOutcome {
        gbps_hours: p.line.gbps_f64() * hours,
        peak_gbps: p.line.gbps_f64(),
        ..store_forward(&direct, jobs, horizon, tick, interactive)
    }
}

// ── bandwidth on demand ───────────────────────────────────────────────

/// How a BoD loop sizes its orders.
enum Sizing {
    Backlog(BodPolicy),
    Deadline(DeadlineBodPolicy),
}

/// The rate that keeps every deadline in `transfers` feasible at `now`:
/// each deadline job's remaining bits over its slack less the
/// provisioning margin (at least a minute), plus the deadline-free bits
/// over the background drain — added only when there are any, since a
/// zero drain would add 0/0 = NaN.
fn required_rate<'a>(
    p: &DeadlineBodPolicy,
    transfers: impl Iterator<Item = &'a Transfer>,
    now: SimTime,
) -> DataRate {
    let mut needed_bps = 0.0f64;
    let mut background_bits = 0u64;
    for t in transfers {
        match t.job.deadline {
            Some(d) => {
                let slack = d
                    .saturating_since(now)
                    .saturating_sub(p.provisioning_margin)
                    .as_secs_f64()
                    .max(60.0);
                needed_bps += t.remaining.bits() as f64 / slack;
            }
            None => background_bits += t.remaining.bits(),
        }
    }
    if background_bits > 0 {
        needed_bps += background_bits as f64 / p.background_drain.as_secs_f64();
    }
    DataRate::from_bps((needed_bps as u64).min(p.max_rate.bps()))
}

/// One BoD pair's state in the loop.
struct BodPair {
    from: RoadmId,
    to: RoadmId,
    run: PairRun,
    members: Vec<ConnectionId>,
    idle_since: Option<SimTime>,
    gbit_seconds: f64,
    peak: f64,
    setups: u64,
}

/// Every pair decides at every tick: admit, serve with what is active,
/// bill it, then release after `idle_release` of an empty queue or
/// order one 10 G wavelength while the committed rate is below the
/// sizing's target and one more fits under the cap.
fn bod_ticks(
    ctl: &mut Controller,
    customer: CustomerId,
    sizing: Sizing,
    pairs: Vec<(RoadmId, RoadmId, Vec<BulkJob>)>,
    horizon: SimDuration,
    tick: SimDuration,
) -> Vec<PolicyOutcome> {
    let (max_rate, idle_release) = match &sizing {
        Sizing::Backlog(p) => (p.max_rate, p.idle_release),
        Sizing::Deadline(p) => (p.max_rate, p.idle_release),
    };
    let mut states: Vec<BodPair> = pairs
        .into_iter()
        .map(|(from, to, jobs)| BodPair {
            from,
            to,
            run: PairRun::new(jobs),
            members: Vec::new(),
            idle_since: None,
            gbit_seconds: 0.0,
            peak: 0.0,
            setups: 0,
        })
        .collect();
    let start = ctl.now();
    let end = start + horizon;
    let mut t = start;
    while t < end {
        ctl.run_until(t);
        // Job times are relative to the policy start.
        let rel_now = SimTime::from_nanos(t.since(start).as_nanos());
        for st in &mut states {
            st.run.admit(rel_now);
            let (active, committed) = member_rates(ctl, &st.members);
            st.run.advance(rel_now, tick, active);
            st.gbit_seconds += active.gbps_f64() * tick.as_secs_f64();
            st.peak = st.peak.max(active.gbps_f64());
            let backlog = st.run.backlog();
            if backlog.is_zero() {
                if !st.members.is_empty() {
                    match st.idle_since {
                        None => st.idle_since = Some(t),
                        Some(since) if t.since(since) >= idle_release => {
                            for id in st.members.drain(..) {
                                let _ = ctl.request_teardown(id);
                            }
                            st.idle_since = None;
                        }
                        _ => {}
                    }
                }
                continue;
            }
            st.idle_since = None;
            let target = match &sizing {
                Sizing::Backlog(p) => backlog_desired(backlog, p.drain_target, p.max_rate),
                Sizing::Deadline(p) => required_rate(p, st.run.unfinished(), rel_now),
            };
            if target > committed && committed + TEN_G <= max_rate {
                if let Ok(id) = ctl.request_wavelength(customer, st.from, st.to, LineRate::Gbps10) {
                    st.members.push(id);
                    st.setups += 1;
                }
            }
        }
        t += tick;
        if states
            .iter()
            .all(|st| st.run.all_done() && st.members.is_empty())
        {
            break;
        }
    }
    for st in &mut states {
        for id in st.members.drain(..) {
            let _ = ctl.request_teardown(id);
        }
    }
    ctl.run_until_idle();
    states
        .iter()
        .map(|st| PolicyOutcome {
            log: TransferLog::summarize(&st.run.transfers),
            gbps_hours: st.gbit_seconds / 3600.0,
            peak_gbps: st.peak,
            setups: st.setups,
        })
        .collect()
}

/// The single outcome of a one-pair run.
fn only(mut outcomes: Vec<PolicyOutcome>) -> PolicyOutcome {
    outcomes.pop().expect("one pair in, one outcome out")
}

/// `BodPolicy` for one pair, ticking.
#[allow(clippy::too_many_arguments)]
pub fn bod(
    p: &BodPolicy,
    ctl: &mut Controller,
    customer: CustomerId,
    from: RoadmId,
    to: RoadmId,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
) -> PolicyOutcome {
    let pairs = vec![(from, to, jobs)];
    only(bod_ticks(
        ctl,
        customer,
        Sizing::Backlog(*p),
        pairs,
        horizon,
        tick,
    ))
}

/// `DeadlineBodPolicy` for one pair, ticking.
#[allow(clippy::too_many_arguments)]
pub fn deadline_bod(
    p: &DeadlineBodPolicy,
    ctl: &mut Controller,
    customer: CustomerId,
    from: RoadmId,
    to: RoadmId,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
) -> PolicyOutcome {
    let pairs = vec![(from, to, jobs)];
    only(bod_ticks(
        ctl,
        customer,
        Sizing::Deadline(*p),
        pairs,
        horizon,
        tick,
    ))
}

/// `MultiPairBod`: every pair against one controller, ticking.
pub fn multi_pair_bod(
    m: &MultiPairBod,
    ctl: &mut Controller,
    customer: CustomerId,
    pairs: Vec<(RoadmId, RoadmId, Vec<BulkJob>)>,
    horizon: SimDuration,
    tick: SimDuration,
) -> Vec<PolicyOutcome> {
    bod_ticks(
        ctl,
        customer,
        Sizing::Backlog(m.policy),
        pairs,
        horizon,
        tick,
    )
}

// ── measured ──────────────────────────────────────────────────────────

/// `MeasuredBodPolicy::run` as its own fixed-tick loop.
#[allow(clippy::too_many_arguments)]
pub fn measured_bod(
    p: &MeasuredBodPolicy,
    ctl: &mut Controller,
    customer: CustomerId,
    from: RoadmId,
    to: RoadmId,
    jobs: Vec<BulkJob>,
    horizon: SimDuration,
    tick: SimDuration,
    path: ProbePath,
    probe_cfg: ProbeConfig,
    seed: u64,
    observability: bool,
) -> MeasuredRun {
    let cap_gbps = path.capacity.gbps_f64();
    let mut prober = Prober::new(path, probe_cfg, seed, observability);
    let mut run = PairRun::new(jobs);
    let start = ctl.now();
    let end = start + horizon;
    let mut members: Vec<ConnectionId> = Vec::new();
    let mut idle_since: Option<SimTime> = None;
    let mut gbit_seconds = 0.0;
    let mut peak: f64 = 0.0;
    let mut setups = 0u64;
    let mut under_delivery_ticks = 0u64;
    let mut upgrades = 0u64;
    let mut downgrades = 0u64;
    let mut low_streak = 0u32;
    let mut surplus_streak = 0u32;
    let mut t = start;
    while t < end {
        ctl.run_until(t);
        // Job and probe times are relative to the policy start.
        let rel_now = SimTime::from_nanos(t.since(start).as_nanos());
        prober.advance_to(rel_now);
        run.admit(rel_now);
        let (active_rate, committed) = member_rates(ctl, &members);
        // Delivered rate = true free capacity of the shared path
        // (whether or not the policy knows it) + paid wavelengths.
        let free_true = prober.true_available(rel_now);
        run.advance(rel_now, tick, active_rate + free_true);
        gbit_seconds += active_rate.gbps_f64() * tick.as_secs_f64();
        peak = peak.max(active_rate.gbps_f64());
        // What the sizing loop believes the path contributes.
        let est_free = match p.mode {
            MeasuredMode::Fixed => DataRate::ZERO,
            MeasuredMode::Estimated => prober.estimate().unwrap_or(DataRate::ZERO),
            MeasuredMode::Oracle => free_true,
        };
        ctl.noc.observe_available_bw(
            prober.path().name,
            est_free.gbps_f64(),
            100.0 * (est_free.gbps_f64() - free_true.gbps_f64()).abs() / cap_gbps,
        );
        let backlog = run.backlog();
        if backlog.is_zero() {
            low_streak = 0;
            surplus_streak = 0;
            if !members.is_empty() {
                match idle_since {
                    None => idle_since = Some(t),
                    Some(since) if t.since(since) >= p.idle_release => {
                        for id in members.drain(..) {
                            let _ = ctl.request_teardown(id);
                        }
                        idle_since = None;
                    }
                    _ => {}
                }
            }
        } else {
            idle_since = None;
            let desired = backlog_desired(backlog, p.drain_target, p.max_rate);
            let need_paid = desired.saturating_sub(est_free);
            let mut ordered = false;
            if need_paid > committed && committed + TEN_G <= p.max_rate {
                if let Ok(id) = ctl.request_wavelength(customer, from, to, LineRate::Gbps10) {
                    members.push(id);
                    setups += 1;
                    ordered = true;
                }
            }
            // Under-delivery: the path gave measurably less than the
            // estimate the plan was sized with.
            let miss = free_true.gbps_f64() < p.underdelivery_margin * est_free.gbps_f64();
            if miss {
                under_delivery_ticks += 1;
                low_streak += 1;
            } else {
                low_streak = 0;
            }
            if !ordered && low_streak >= 2 && committed + TEN_G <= p.max_rate {
                if let Ok(id) = ctl.request_wavelength(customer, from, to, LineRate::Gbps10) {
                    members.push(id);
                    setups += 1;
                    upgrades += 1;
                    low_streak = 0;
                }
            }
            // Surplus: a full wavelength more than the plan needs,
            // sustained — shed it before the idle timer would.
            if committed.saturating_sub(need_paid) >= TEN_G {
                surplus_streak += 1;
            } else {
                surplus_streak = 0;
            }
            if surplus_streak >= 3 {
                if let Some(id) = members.pop() {
                    let _ = ctl.request_teardown(id);
                    downgrades += 1;
                }
                surplus_streak = 0;
            }
        }
        t += tick;
        if run.all_done() && members.is_empty() {
            break;
        }
    }
    for id in members {
        let _ = ctl.request_teardown(id);
    }
    ctl.run_until_idle();
    let horizon_rel = SimTime::ZERO + horizon;
    let mut late_job_hours = 0.0;
    for tr in &run.transfers {
        let due = tr.job.created + p.sla_drain;
        let done = tr.completed.unwrap_or(horizon_rel);
        late_job_hours += done.saturating_since(due).as_secs_f64() / 3600.0;
    }
    let outcome = PolicyOutcome {
        log: TransferLog::summarize(&run.transfers),
        gbps_hours: gbit_seconds / 3600.0,
        peak_gbps: peak,
        setups,
    };
    let score = outcome.gbps_hours + p.lateness_penalty * late_job_hours;
    MeasuredRun {
        outcome,
        late_job_hours,
        under_delivery_ticks,
        upgrades,
        downgrades,
        score,
        measure: prober.finish(),
    }
}
