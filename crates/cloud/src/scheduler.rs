//! Transfer-scheduling policies — the contenders of experiment E5.
//!
//! Three ways a CSP can move the same bulk workload between two sites:
//!
//! - [`StaticLinePolicy`] — today's common answer: lease a fixed line
//!   sized in advance. Bulk uses whatever the diurnal interactive load
//!   leaves over. Simple, but pay for the peak around the clock.
//! - [`StoreForwardPolicy`] — the NetStitcher-inspired baseline: no new
//!   capacity at all; harvest the *leftover* bandwidth of existing
//!   static lines, including multi-hop store-and-forward detours through
//!   relay data centers. Free, but completion is hostage to what
//!   happens to be idle.
//! - [`BodPolicy`] — GRIPhoN: when a backlog builds, order wavelengths
//!   (and OTN remainder circuits) from the carrier, sized to drain the
//!   backlog in a target time; release them when the queue empties. Pays
//!   usage-based prices and eats the 60–70 s setup latency, which this
//!   simulation faithfully inflicts via the `griphon` controller.
//!   [`MultiPairBod`], [`DeadlineBodPolicy`] and [`MeasuredBodPolicy`]
//!   differ from it only in pair count or in how orders are sized.
//!
//! All policies process a pair's jobs FIFO (bulk replication is
//! throughput work, not latency work) on one of two drivers: the
//! *harvest* driver ([`StoreForwardPolicy::run`]; a static line is
//! store-and-forward without relays, billed for its line) and the *BoD*
//! driver (`run_event_bod`, ordering 10 G wavelengths from a live
//! controller). Decisions happen on a fixed tick grid, but both drivers
//! are *event-driven*: they compute the next instant at which a decision
//! could change — job arrival, transfer completion, interactive-traffic
//! breakpoint, idle-release expiry, controller event — and fast-forward
//! through the provably inert ticks in between with exact quantized
//! arithmetic (see `crate::event`). Outcomes are byte-identical to
//! deciding at every tick; the fixed-tick oracles that hold the drivers
//! to this live beside the tests, not here (DESIGN.md §8).

use simcore::{DataRate, DataSize, SimDuration, SimTime};

use griphon::controller::Controller;
use griphon::{
    ConnState, ConnectionId, CustomerId, MeasureOutcome, ProbeConfig, ProbePath, Prober,
};
use photonic::{LineRate, RoadmId};

use crate::event::{grid_ceil, FifoQueue};
use crate::profile::RateProfile;
use crate::transfer::{Transfer, TransferLog};
use crate::workload::BulkJob;

/// What a policy run produced — completion stats plus the inputs the
/// cost model needs.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Per-job outcomes.
    pub log: TransferLog,
    /// ∫ provisioned bandwidth dt, in gigabit-hours/hour units
    /// (Gbps·hours) — what usage-based billing charges.
    pub gbps_hours: f64,
    /// Largest bandwidth held at any instant (Gbps) — what leased-line
    /// billing must be sized to.
    pub peak_gbps: f64,
    /// Wavelength/circuit setups performed (BoD churn).
    pub setups: u64,
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

/// The rate [`BodPolicy`] wants: drain the backlog within the target,
/// capped by the access pipe.
fn backlog_desired(backlog: DataSize, drain_target: SimDuration, max_rate: DataRate) -> DataRate {
    let desired_bps =
        (backlog.bits() as f64 / drain_target.as_secs_f64()).min(max_rate.bps() as f64) as u64;
    DataRate::from_bps(desired_bps)
}

/// A statically provisioned leased line: store-and-forward without
/// relays, billed for the whole line around the clock.
#[derive(Debug, Clone, Copy)]
pub struct StaticLinePolicy {
    /// The leased rate.
    pub line: DataRate,
}

impl StaticLinePolicy {
    /// Bulk gets what interactive traffic leaves of the line.
    fn harvest(&self) -> StoreForwardPolicy {
        StoreForwardPolicy {
            line: self.line,
            relays: 0,
            relay_phase_hours: 0.0,
        }
    }

    /// A lease bills its full rate over the whole horizon.
    fn billed(&self, horizon: SimDuration, harvested: PolicyOutcome) -> PolicyOutcome {
        let hours = horizon.as_secs_f64() / 3600.0;
        PolicyOutcome {
            gbps_hours: self.line.gbps_f64() * hours,
            peak_gbps: self.line.gbps_f64(),
            ..harvested
        }
    }

    /// Run the pair's jobs event-driven; `interactive` has priority on
    /// the line.
    pub fn run(
        &self,
        jobs: Vec<BulkJob>,
        horizon: SimDuration,
        tick: SimDuration,
        interactive: &RateProfile,
    ) -> PolicyOutcome {
        let harvested = self.harvest().run(jobs, horizon, tick, interactive);
        self.billed(horizon, harvested)
    }
}

/// Store-and-forward over leftover capacity (NetStitcher-like).
#[derive(Debug, Clone, Copy)]
pub struct StoreForwardPolicy {
    /// The static line rate each existing edge has.
    pub line: DataRate,
    /// Relay sites offering two-hop detours.
    pub relays: usize,
    /// Phase offset (hours) between relay time zones — NetStitcher's key
    /// insight is that leftovers in different zones peak at different
    /// local times.
    pub relay_phase_hours: f64,
}

impl StoreForwardPolicy {
    /// Usable rate at `t`: direct leftover plus each relay's two-hop
    /// minimum of leftovers (phase-shifted diurnal).
    pub fn usable_rate(&self, t: SimTime, interactive: &dyn Fn(SimTime) -> DataRate) -> DataRate {
        let mut total = self.line.saturating_sub(interactive(t));
        for r in 0..self.relays {
            let shift =
                SimDuration::from_secs_f64((r as f64 + 1.0) * self.relay_phase_hours * 3600.0);
            let t_shifted = t + shift;
            let leg1 = self.line.saturating_sub(interactive(t_shifted));
            let leg2 = self.line.saturating_sub(interactive(t));
            total += DataRate::from_bps(leg1.bps().min(leg2.bps()));
        }
        total
    }

    /// The first instant after `t` at which [`Self::usable_rate`] can
    /// change: a breakpoint of the profile, either directly or through
    /// one of the relay phase shifts.
    fn next_usable_change(&self, t: SimTime, interactive: &RateProfile) -> Option<SimTime> {
        let mut next = interactive.next_change_after(t);
        for r in 0..self.relays {
            let shift =
                SimDuration::from_secs_f64((r as f64 + 1.0) * self.relay_phase_hours * 3600.0);
            if let Some(b) = interactive.next_change_after(t + shift) {
                // Breakpoint seen through the relay's shifted clock.
                let eff = SimTime::from_nanos(b.as_nanos() - shift.as_nanos());
                next = Some(next.map_or(eff, |n| n.min(eff)));
            }
        }
        next
    }

    /// The harvest driver: run the pair's jobs over harvested capacity
    /// only, event-driven. Byte-identical to deciding at every tick with
    /// `interactive = |t| profile.rate_at(t)`.
    pub fn run(
        &self,
        jobs: Vec<BulkJob>,
        horizon: SimDuration,
        tick: SimDuration,
        interactive: &RateProfile,
    ) -> PolicyOutcome {
        let mut q = FifoQueue::new(jobs);
        let end = SimTime::ZERO + horizon;
        let mut t = SimTime::ZERO;
        let mut peak: f64 = 0.0;
        let sample = |x: SimTime| interactive.rate_at(x);
        while t < end {
            q.admit(t);
            let rate = self.usable_rate(t, &sample);
            // Peak counts at every tick, including idle stretches
            // between arrivals, so walk every segment.
            peak = peak.max(rate.gbps_f64());
            let mut seg_end = end;
            if let Some(b) = self.next_usable_change(t, interactive) {
                seg_end = seg_end.min(grid_ceil(SimTime::ZERO, b, tick));
            }
            if let Some(c) = q.next_arrival_time() {
                seg_end = seg_end.min(grid_ceil(SimTime::ZERO, c, tick));
            }
            let n = seg_end.since(t).div_ceil(tick);
            q.advance_ticks(t, n, tick, rate);
            if !q.has_work() && q.next_arrival_time().is_none() {
                break;
            }
            t += tick * n;
        }
        PolicyOutcome {
            log: TransferLog::summarize(q.transfers()),
            // Harvested capacity is already paid for — zero marginal
            // provisioned bandwidth.
            gbps_hours: 0.0,
            peak_gbps: peak,
            setups: 0,
        }
    }
}

/// The one size the BoD policies order in.
const TEN_G: DataRate = DataRate::from_gbps(10);

/// GRIPhoN bandwidth-on-demand.
#[derive(Debug, Clone, Copy)]
pub struct BodPolicy {
    /// Ceiling on ordered bandwidth (the access pipe).
    pub max_rate: DataRate,
    /// Size orders to drain the current backlog within this target.
    pub drain_target: SimDuration,
    /// Tear capacity down only after the queue has been empty this long
    /// (hysteresis against thrashing).
    pub idle_release: SimDuration,
}

impl Default for BodPolicy {
    fn default() -> Self {
        BodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_hours(1),
            idle_release: SimDuration::from_mins(10),
        }
    }
}

/// How a BoD variant sizes its wavelength orders — all the variants
/// differ in.
enum Sizing<'a> {
    /// Drain the current backlog within a fixed target.
    Backlog(BodPolicy),
    /// Keep every queued deadline feasible.
    Deadline(DeadlineBodPolicy),
    /// Drain the backlog within a target, net of what a probed shared
    /// path is believed to contribute. One pair only.
    Measured(&'a mut Probing),
}

impl Sizing<'_> {
    /// The variant's ceiling on ordered bandwidth and its idle-release
    /// hysteresis.
    fn limits(&self) -> (DataRate, SimDuration) {
        match self {
            Sizing::Backlog(p) => (p.max_rate, p.idle_release),
            Sizing::Deadline(p) => (p.max_rate, p.idle_release),
            Sizing::Measured(p) => (p.policy.max_rate, p.policy.idle_release),
        }
    }

    /// Rate the pair receives at `rel_now` beside its wavelengths.
    fn extra_rate(&mut self, ctl: &mut Controller, rel_now: SimTime) -> DataRate {
        match self {
            Sizing::Measured(p) => p.observe(ctl, rel_now),
            _ => DataRate::ZERO,
        }
    }

    /// The committed rate a backlogged pair aims for: while it holds
    /// less, it orders one more wavelength per tick.
    fn target(&self, q: &FifoQueue, rel_now: SimTime) -> DataRate {
        match self {
            Sizing::Backlog(p) => backlog_desired(q.backlog(), p.drain_target, p.max_rate),
            Sizing::Deadline(p) => p.required_rate(q.unfinished(), rel_now),
            Sizing::Measured(p) => {
                backlog_desired(q.backlog(), p.policy.drain_target, p.policy.max_rate)
                    .saturating_sub(p.est_free)
            }
        }
    }

    /// How many of the next `n` ticks from `rel_start` surely place no
    /// order, once arrivals, controller events and releases are ruled out.
    fn inert_ticks(
        &self,
        ctl: &Controller,
        pairs: &[Pair],
        rel_start: SimTime,
        tick: SimDuration,
        n: u64,
    ) -> u64 {
        let policy = match self {
            // The target only falls while the queue drains, and a refused
            // order stays refused until controller state changes.
            Sizing::Backlog(_) => return n,
            Sizing::Deadline(p) => p,
            // The prober must advance at every tick.
            Sizing::Measured(_) => return 0,
        };
        let mut n = n;
        for st in pairs {
            if n == 0 {
                break;
            }
            if !st.q.has_work() || st.blocked {
                continue;
            }
            let (_, committed) = member_rates(ctl, &st.members);
            if committed + TEN_G > policy.max_rate {
                continue; // at the cap: no order possible anyway
            }
            // `required_rate` is weakly increasing in time for a fixed
            // queue (slacks only shrink) and the queue only drains within
            // a segment, so the current queue at the last of `w` ticks
            // bounds every decision before it. Binary search the largest
            // safe prefix.
            let inert_through = |w: u64| {
                let last = rel_start + tick * (w - 1);
                policy.required_rate(st.q.unfinished(), last) <= committed
            };
            if !inert_through(1) {
                return 0;
            }
            if inert_through(n) {
                continue;
            }
            let (mut lo, mut hi) = (1u64, n);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if inert_through(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            n = lo;
        }
        n
    }
}

/// One BoD pair: its transfer queue and what it holds at the carrier.
struct Pair {
    from: RoadmId,
    to: RoadmId,
    q: FifoQueue,
    members: Vec<ConnectionId>,
    idle_since: Option<SimTime>,
    gbit_seconds: f64,
    peak: f64,
    setups: u64,
    /// The last decision tick attempted an order and the carrier refused.
    /// Refusals have no side effects and persist until controller state
    /// changes, so a blocked pair is inert for the whole segment.
    blocked: bool,
    /// First tick at which `all_done && members.is_empty()` held.
    done_at: Option<SimTime>,
}

impl Pair {
    fn new(from: RoadmId, to: RoadmId, jobs: Vec<BulkJob>) -> Pair {
        Pair {
            from,
            to,
            q: FifoQueue::new(jobs),
            members: Vec::new(),
            idle_since: None,
            gbit_seconds: 0.0,
            peak: 0.0,
            setups: 0,
            blocked: false,
            done_at: None,
        }
    }

    /// One decision tick at `t` (`rel_now` on the jobs' clock):
    /// admission, single-pass member rates, service, accounting, then
    /// the order/release decision — what every tick would do, run at
    /// each decision point. Returns whether an order went in.
    fn decision_tick(
        &mut self,
        ctl: &mut Controller,
        customer: CustomerId,
        sizing: &mut Sizing,
        t: SimTime,
        rel_now: SimTime,
        tick: SimDuration,
    ) -> bool {
        self.q.admit(rel_now);
        let (active, committed) = member_rates(ctl, &self.members);
        let extra = sizing.extra_rate(ctl, rel_now);
        self.q.advance_window(rel_now, tick, active + extra);
        self.gbit_seconds += active.gbps_f64() * tick.as_secs_f64();
        self.peak = self.peak.max(active.gbps_f64());
        self.blocked = false;
        if self.q.backlog().is_zero() {
            if let Sizing::Measured(p) = sizing {
                (p.low_streak, p.surplus_streak) = (0, 0);
            }
            if !self.members.is_empty() {
                match self.idle_since {
                    None => self.idle_since = Some(t),
                    Some(since) if t.since(since) >= sizing.limits().1 => {
                        if ctl.spans.is_enabled() {
                            let sp = ctl.spans.record(t, t, "policy", "policy.release", None);
                            ctl.spans
                                .attr_u64(sp, "released", self.members.len() as u64);
                            ctl.spans.attr_u64(sp, "idle_ns", t.since(since).as_nanos());
                        }
                        self.release_all(ctl);
                        self.idle_since = None;
                    }
                    _ => {}
                }
            }
            return false;
        }
        self.idle_since = None;
        let target = sizing.target(&self.q, rel_now);
        let fits = committed + TEN_G <= sizing.limits().0;
        let ordered = target > committed && fits && self.order(ctl, customer, t, committed);
        match sizing {
            Sizing::Measured(p) => {
                let may_order = !ordered && fits;
                p.settle(ctl, customer, self, t, committed, target, may_order) || ordered
            }
            _ => ordered,
        }
    }

    /// Order one 10 G wavelength at `t`; a refusal marks the pair
    /// blocked. Returns whether the carrier accepted.
    fn order(
        &mut self,
        ctl: &mut Controller,
        customer: CustomerId,
        t: SimTime,
        committed: DataRate,
    ) -> bool {
        match ctl.request_wavelength(customer, self.from, self.to, LineRate::Gbps10) {
            Ok(id) => {
                if ctl.spans.is_enabled() {
                    let sp = ctl.spans.record(t, t, "policy", "policy.order", None);
                    ctl.spans.attr_u64(sp, "conn", u64::from(id.raw()));
                    let gbps = committed.gbps_f64() as u64;
                    ctl.spans.attr_u64(sp, "committed_gbps", gbps);
                }
                self.members.push(id);
                self.setups += 1;
                true
            }
            Err(_) => {
                self.blocked = true;
                false
            }
        }
    }

    /// Tear down what the pair still holds.
    fn release_all(&mut self, ctl: &mut Controller) {
        for id in self.members.drain(..) {
            let _ = ctl.request_teardown(id);
        }
    }

    fn outcome(&self) -> PolicyOutcome {
        PolicyOutcome {
            log: TransferLog::summarize(self.q.transfers()),
            gbps_hours: self.gbit_seconds / 3600.0,
            peak_gbps: self.peak,
            setups: self.setups,
        }
    }
}

/// The BoD driver, shared by [`BodPolicy`], [`MultiPairBod`],
/// [`DeadlineBodPolicy`] and [`MeasuredBodPolicy`]. Returns every pair
/// after wind-down, in input order.
///
/// Decision ticks run the per-tick sequence, [`Pair::decision_tick`],
/// pair by pair. Between decision ticks the engine proves the policy
/// inert — no arrival, no controller event, no possible release, no
/// order by [`Sizing::inert_ticks`] — and replays the whole stretch with
/// [`FifoQueue::advance_ticks`]. All arithmetic quantizes per tick, so
/// outcomes are byte-identical to deciding at every tick.
fn run_event_bod(
    ctl: &mut Controller,
    customer: CustomerId,
    mut sizing: Sizing,
    pairs: Vec<(RoadmId, RoadmId, Vec<BulkJob>)>,
    horizon: SimDuration,
    tick: SimDuration,
) -> Vec<Pair> {
    let start = ctl.now();
    let end = start + horizon;
    let tick_secs = tick.as_secs_f64();
    let idle_release = sizing.limits().1;
    let rel = |abs: SimTime| SimTime::from_nanos(abs.since(start).as_nanos());
    let mut states: Vec<Pair> = pairs
        .into_iter()
        .map(|(from, to, jobs)| Pair::new(from, to, jobs))
        .collect();
    let mut t = start;
    let mut last_tick: Option<SimTime> = None;
    let mut finished = false;
    while t < end {
        // ── decision tick: the full per-tick sequence ──
        ctl.run_until(t);
        last_tick = Some(t);
        let rel_now = rel(t);
        let mut ordered = false;
        for st in states.iter_mut() {
            ordered |= st.decision_tick(ctl, customer, &mut sizing, t, rel_now, tick);
            if st.done_at.is_none() && st.q.all_done() && st.members.is_empty() {
                st.done_at = Some(t);
            }
        }
        if ctl.noc.is_enabled() {
            // Scrapes cannot see inside this loop's pair state, so the
            // policy pushes its backlog gauges at every decision tick.
            for (i, st) in states.iter().enumerate() {
                ctl.noc.observe_cloud_backlog(
                    i,
                    st.q.backlog().terabytes_f64(),
                    st.members.len() as u64,
                );
            }
        }
        t += tick;
        if states.iter().all(|st| st.done_at.is_some()) {
            finished = true;
            break;
        }
        if t >= end {
            break;
        }
        if ordered {
            // Committed bandwidth changed this tick; the next tick must
            // re-decide with it in force.
            continue;
        }

        // ── plan the longest provably-inert stretch [t, seg_end) ──
        let mut seg_end = end;
        if let Some(ev) = ctl.peek_event_time() {
            seg_end = seg_end.min(grid_ceil(start, ev, tick));
        }
        for st in &states {
            if let Some(c) = st.q.next_arrival_time() {
                let abs = start + SimDuration::from_nanos(c.as_nanos());
                seg_end = seg_end.min(grid_ceil(start, abs, tick));
            }
            if !st.members.is_empty() {
                let release_floor = match st.idle_since {
                    // Release fires at the first tick a full idle_release
                    // after the queue went idle…
                    Some(since) => since + idle_release,
                    // …and with a backlog still draining it cannot fire
                    // before a full idle_release from now.
                    None => t + idle_release,
                };
                seg_end = seg_end.min(grid_ceil(start, release_floor, tick));
            }
        }
        let n = seg_end.since(t).div_ceil(tick);
        let n = sizing.inert_ticks(ctl, &states, rel(t), tick, n);
        if n == 0 {
            continue; // nothing provably inert: fall back to ticking
        }

        // ── replay the inert stretch in bulk ──
        let seg_rel = rel(t);
        for st in states.iter_mut() {
            let (active, _) = member_rates(ctl, &st.members);
            let g = active.gbps_f64();
            if st.q.has_work() {
                if let Some(j) = st.q.advance_ticks(seg_rel, n, tick, active) {
                    let drain_tick = t + tick * j;
                    if !st.members.is_empty() {
                        if st.idle_since.is_none() {
                            st.idle_since = Some(drain_tick);
                        }
                    } else if st.done_at.is_none() && st.q.all_done() {
                        st.done_at = Some(drain_tick);
                    }
                }
            }
            if g != 0.0 {
                // Repeat the per-tick float accumulation value-for-value
                // (same addend, same count, same order).
                let add = g * tick_secs;
                for _ in 0..n {
                    st.gbit_seconds += add;
                }
            }
            st.peak = st.peak.max(g);
        }
        last_tick = Some(t + tick * (n - 1));
        if states.iter().all(|st| st.done_at.is_some()) {
            finished = true;
            break;
        }
        t += tick * n;
    }
    // ── wind down exactly where a per-tick loop would stop ──
    if finished {
        // Ticking exits at the tick where the last pair finished; no
        // controller events can be pending at or before it (any such
        // event would have bounded the segment).
        let done = states.iter().filter_map(|st| st.done_at).max();
        if let Some(j) = done {
            ctl.run_until(j);
        }
    } else if let Some(lt) = last_tick {
        ctl.run_until(lt);
    }
    for st in &mut states {
        st.release_all(ctl);
    }
    ctl.run_until_idle();
    states
}

/// The single result of a one-pair run.
fn only(mut pairs: Vec<Pair>) -> Pair {
    pairs.pop().expect("one pair in, one result out")
}

impl BodPolicy {
    /// Run the pair's jobs against a live controller. `from`/`to` are
    /// the carrier PoPs of the two data centers.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        ctl: &mut Controller,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        jobs: Vec<BulkJob>,
        horizon: SimDuration,
        tick: SimDuration,
    ) -> PolicyOutcome {
        let (sizing, pairs) = (Sizing::Backlog(*self), vec![(from, to, jobs)]);
        only(run_event_bod(ctl, customer, sizing, pairs, horizon, tick)).outcome()
    }
}

/// GRIPhoN BoD across *several site pairs sharing one carrier*: the
/// full-mesh replication pattern the Forrester survey describes (§1,
/// "a majority of CSPs perform bulk data transfer among three or more
/// data centers"). All pairs contend for the same transponder pools,
/// wavelengths and tenant quota inside one controller — which is the
/// point: the carrier's shared-pool economics only show up under
/// concurrent demand.
#[derive(Debug, Clone, Copy)]
pub struct MultiPairBod {
    /// The per-pair policy parameters.
    pub policy: BodPolicy,
}

impl MultiPairBod {
    /// Run each pair's jobs concurrently against one controller.
    /// Returns one outcome per pair, in input order.
    pub fn run(
        &self,
        ctl: &mut Controller,
        customer: CustomerId,
        pairs: Vec<(RoadmId, RoadmId, Vec<BulkJob>)>,
        horizon: SimDuration,
        tick: SimDuration,
    ) -> Vec<PolicyOutcome> {
        let sizing = Sizing::Backlog(self.policy);
        run_event_bod(ctl, customer, sizing, pairs, horizon, tick)
            .into_iter()
            .map(|st| st.outcome())
            .collect()
    }
}

/// Deadline-aware GRIPhoN BoD: sizes orders not to a fixed drain target
/// but to the *tightest deadline in the queue*, with a safety margin for
/// provisioning latency. Cheaper than [`BodPolicy`] when deadlines are
/// loose (holds less bandwidth), more aggressive when a deadline nears.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineBodPolicy {
    /// Ceiling on ordered bandwidth (the access pipe).
    pub max_rate: DataRate,
    /// Extra margin subtracted from every deadline to cover λ setup.
    pub provisioning_margin: SimDuration,
    /// Fallback drain target for jobs without deadlines.
    pub background_drain: SimDuration,
    /// Hysteresis before releasing idle capacity.
    pub idle_release: SimDuration,
}

impl Default for DeadlineBodPolicy {
    fn default() -> Self {
        DeadlineBodPolicy {
            max_rate: DataRate::from_gbps(40),
            provisioning_margin: SimDuration::from_mins(3),
            background_drain: SimDuration::from_hours(4),
            idle_release: SimDuration::from_mins(10),
        }
    }
}

impl DeadlineBodPolicy {
    /// The rate needed at `now` to keep every deadline in `transfers`
    /// feasible.
    fn required_rate<'a>(
        &self,
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
                        .saturating_sub(self.provisioning_margin)
                        .as_secs_f64()
                        .max(60.0);
                    // Aggregate: deadlines share the pipe FIFO, so sum the
                    // per-job requirements (conservative).
                    needed_bps += t.remaining.bits() as f64 / slack;
                }
                None => background_bits += t.remaining.bits(),
            }
        }
        // Only with background work: a zero drain would add 0/0 = NaN.
        if background_bits > 0 {
            needed_bps += background_bits as f64 / self.background_drain.as_secs_f64();
        }
        DataRate::from_bps((needed_bps as u64).min(self.max_rate.bps()))
    }

    /// Run the pair's jobs against a live controller, event-driven.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        ctl: &mut Controller,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        jobs: Vec<BulkJob>,
        horizon: SimDuration,
        tick: SimDuration,
    ) -> PolicyOutcome {
        let (sizing, pairs) = (Sizing::Deadline(*self), vec![(from, to, jobs)]);
        only(run_event_bod(ctl, customer, sizing, pairs, horizon, tick)).outcome()
    }
}

/// What the estimation-aware BoD variant knows about the shared path's
/// free capacity when sizing wavelength orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredMode {
    /// No measurement: size as if the shared path contributes nothing.
    /// The fixed-size baseline every prior BoD policy implements.
    Fixed,
    /// Size from the prober's smoothed available-bandwidth estimate —
    /// the measurement feedback loop.
    Estimated,
    /// Size from the fluid ground truth: the perfect-knowledge
    /// reference that policy regret is measured against.
    Oracle,
}

/// GRIPhoN BoD with a measurement feedback loop (`DESIGN.md` §15).
///
/// The pair's bulk traffic rides a *shared* path — a bottleneck of
/// known capacity carrying everyone else's cross traffic — and may
/// additionally order dedicated wavelengths. The free capacity of the
/// shared path moves with the cross traffic; only paid wavelengths are
/// billed. The policy auto-sizes its calendar of orders from what it
/// believes the shared path will contribute ([`MeasuredMode`]):
/// `need_paid = desired − estimated_free`, ordered one 10 G wavelength
/// per decision tick as in [`BodPolicy`].
///
/// Two feedback actions close the loop against the SLA drain target:
///
/// - **upgrade** — when the path under-delivers (true free capacity
///   below [`Self::underdelivery_margin`] of the estimate for two
///   consecutive ticks while backlogged), order beyond the sized plan;
/// - **downgrade** — when the committed rate exceeds the sized plan by
///   a full wavelength for three consecutive ticks, release one member
///   before the idle-release timer would.
///
/// [`MeasuredRun::score`] charges paid gigabit-hours plus a lateness
/// penalty per job-hour past `created + sla_drain`; regret is the score
/// gap to the [`MeasuredMode::Oracle`] run of the same scenario.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredBodPolicy {
    /// Ceiling on *ordered* bandwidth (the access pipe).
    pub max_rate: DataRate,
    /// Size orders to drain the current backlog within this target.
    pub drain_target: SimDuration,
    /// Tear everything down only after the queue has been empty this
    /// long.
    pub idle_release: SimDuration,
    /// The SLA: every job should complete within this of its creation.
    pub sla_drain: SimDuration,
    /// Under-delivery trigger: true free capacity below this fraction
    /// of the estimate counts as a miss.
    pub underdelivery_margin: f64,
    /// Score penalty in Gbps·hours per late job-hour.
    pub lateness_penalty: f64,
    /// What the sizing loop knows about the shared path.
    pub mode: MeasuredMode,
}

impl Default for MeasuredBodPolicy {
    fn default() -> Self {
        MeasuredBodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_hours(1),
            idle_release: SimDuration::from_mins(10),
            sla_drain: SimDuration::from_hours(2),
            underdelivery_margin: 0.8,
            lateness_penalty: 40.0,
            mode: MeasuredMode::Estimated,
        }
    }
}

/// What a [`MeasuredBodPolicy`] run produced: the standard outcome plus
/// the estimation/SLA accounting and the measurement plane's record.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Completion stats and paid-bandwidth accounting (paid wavelengths
    /// only — harvested shared capacity is free).
    pub outcome: PolicyOutcome,
    /// Σ max(0, completion − (created + sla_drain)) over jobs, hours.
    /// Unfinished jobs accrue lateness to the horizon.
    pub late_job_hours: f64,
    /// Decision ticks at which the path under-delivered vs the estimate.
    pub under_delivery_ticks: u64,
    /// Wavelengths ordered by the under-delivery trigger.
    pub upgrades: u64,
    /// Members released early by the surplus trigger.
    pub downgrades: u64,
    /// Paid Gbps·hours + lateness_penalty × late_job_hours. Lower is
    /// better; subtract the oracle's score for regret.
    pub score: f64,
    /// The prober's estimation record and observability artifacts.
    pub measure: MeasureOutcome,
}

/// The measured sizing's state across a run: the prober on the shared
/// path, this tick's true and believed free capacity, and the
/// upgrade/downgrade streaks.
struct Probing {
    policy: MeasuredBodPolicy,
    prober: Prober,
    free_true: DataRate,
    est_free: DataRate,
    low_streak: u32,
    surplus_streak: u32,
    under_delivery_ticks: u64,
    upgrades: u64,
    downgrades: u64,
}

impl Probing {
    /// Advance the prober to `rel_now` and take this tick's true and
    /// believed free capacity. Returns the true one: the path delivers
    /// it whether or not the policy knows it.
    fn observe(&mut self, ctl: &mut Controller, rel_now: SimTime) -> DataRate {
        self.prober.advance_to(rel_now);
        self.free_true = self.prober.true_available(rel_now);
        self.est_free = match self.policy.mode {
            MeasuredMode::Fixed => DataRate::ZERO,
            MeasuredMode::Estimated => self.prober.estimate().unwrap_or(DataRate::ZERO),
            MeasuredMode::Oracle => self.free_true,
        };
        let (est, truth) = (self.est_free.gbps_f64(), self.free_true.gbps_f64());
        let path = self.prober.path();
        let error_pct = 100.0 * (est - truth).abs() / path.capacity.gbps_f64();
        ctl.noc.observe_available_bw(path.name, est, error_pct);
        self.free_true
    }

    /// The post-decision step at a backlogged tick: order beyond the
    /// plan after two ticks of under-delivery (if `may_order`: the tick
    /// has not ordered and is below the cap), and shed a member after
    /// three ticks a full wavelength over `need_paid`. Returns whether it
    /// ordered.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &mut self,
        ctl: &mut Controller,
        customer: CustomerId,
        pair: &mut Pair,
        t: SimTime,
        committed: DataRate,
        need_paid: DataRate,
        may_order: bool,
    ) -> bool {
        // Under-delivery: the path gave measurably less than the
        // estimate the plan was sized with.
        if self.free_true.gbps_f64() < self.policy.underdelivery_margin * self.est_free.gbps_f64() {
            self.under_delivery_ticks += 1;
            self.low_streak += 1;
        } else {
            self.low_streak = 0;
        }
        let upgraded = may_order && self.low_streak >= 2 && pair.order(ctl, customer, t, committed);
        if upgraded {
            self.upgrades += 1;
            self.low_streak = 0;
        }
        // Surplus: a full wavelength more than the plan needs,
        // sustained — shed it before the idle timer would.
        if committed.saturating_sub(need_paid) >= TEN_G {
            self.surplus_streak += 1;
        } else {
            self.surplus_streak = 0;
        }
        if self.surplus_streak >= 3 {
            if let Some(id) = pair.members.pop() {
                let _ = ctl.request_teardown(id);
                self.downgrades += 1;
            }
            self.surplus_streak = 0;
        }
        upgraded
    }
}

impl MeasuredBodPolicy {
    /// Run the pair's jobs against a live controller with a prober on
    /// the shared path, on the BoD driver with every tick a decision
    /// tick. The `observability` flag gates only what the measurement
    /// plane *records* (spans, samplers, metric families) — estimates,
    /// RNG draws and every decision are identical either way, which is
    /// the per-cell digest-identity invariant `repro measure` asserts.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
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
        let mut probing = Probing {
            policy: *self,
            prober: Prober::new(path, probe_cfg, seed, observability),
            free_true: DataRate::ZERO,
            est_free: DataRate::ZERO,
            low_streak: 0,
            surplus_streak: 0,
            under_delivery_ticks: 0,
            upgrades: 0,
            downgrades: 0,
        };
        let (sizing, pairs) = (Sizing::Measured(&mut probing), vec![(from, to, jobs)]);
        let pair = only(run_event_bod(ctl, customer, sizing, pairs, horizon, tick));
        let horizon_rel = SimTime::ZERO + horizon;
        let mut late_job_hours = 0.0;
        for tr in pair.q.transfers() {
            let due = tr.job.created + self.sla_drain;
            let done = tr.completed.unwrap_or(horizon_rel);
            late_job_hours += done.saturating_since(due).as_secs_f64() / 3600.0;
        }
        let outcome = pair.outcome();
        let score = outcome.gbps_hours + self.lateness_penalty * late_job_hours;
        MeasuredRun {
            outcome,
            late_job_hours,
            under_delivery_ticks: probing.under_delivery_ticks,
            upgrades: probing.upgrades,
            downgrades: probing.downgrades,
            score,
            measure: probing.prober.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DataCenterId;
    use crate::workload::JobId;
    use griphon::controller::ControllerConfig;
    use photonic::{EmsProfile, EqualizationModel, PhotonicNetwork};

    fn job(id: u32, tb: u64, created_s: u64) -> BulkJob {
        BulkJob {
            id: JobId::new(id),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_terabytes(tb),
            created: SimTime::from_secs(created_s),
            deadline: None,
        }
    }

    #[test]
    fn static_line_fifo_completion() {
        let p = StaticLinePolicy {
            line: DataRate::from_gbps(10),
        };
        // 1 TB at 10G = 800 s. Two jobs back to back.
        let out = p.run(
            vec![job(0, 1, 0), job(1, 1, 0)],
            SimDuration::from_hours(1),
            SimDuration::from_secs(10),
            &RateProfile::flat(DataRate::ZERO),
        );
        assert_eq!(out.log.completed, 2);
        // FIFO: first ≈800 s, second ≈1600 s.
        assert!((out.log.mean_completion_secs - 1200.0).abs() < 15.0);
        assert_eq!(out.setups, 0);
        assert_eq!(out.peak_gbps, 10.0);
    }

    #[test]
    fn static_line_yields_to_interactive() {
        let p = StaticLinePolicy {
            line: DataRate::from_gbps(10),
        };
        let out = p.run(
            vec![job(0, 1, 0)],
            SimDuration::from_hours(2),
            SimDuration::from_secs(10),
            &RateProfile::flat(DataRate::from_gbps(8)),
        );
        // Only 2 G left → 4000 s.
        assert_eq!(out.log.completed, 1);
        assert!((out.log.mean_completion_secs - 4000.0).abs() < 15.0);
    }

    #[test]
    fn store_forward_harvests_relays() {
        let p = StoreForwardPolicy {
            line: DataRate::from_gbps(10),
            relays: 1,
            relay_phase_hours: 12.0,
        };
        let busy = |_: SimTime| DataRate::from_gbps(8);
        // Direct leftover 2 G + relay min(2,2) = 4 G total.
        assert_eq!(p.usable_rate(SimTime::ZERO, &busy), DataRate::from_gbps(4));
        let out = p.run(
            vec![job(0, 1, 0)],
            SimDuration::from_hours(2),
            SimDuration::from_secs(10),
            &RateProfile::flat(DataRate::from_gbps(8)),
        );
        assert_eq!(out.log.completed, 1);
        assert!(out.log.mean_completion_secs < 2100.0);
        assert_eq!(out.gbps_hours, 0.0, "harvested capacity is free");
    }

    fn bod_setup() -> (Controller, RoadmId, RoadmId, CustomerId) {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                ems: EmsProfile::calibrated_deterministic(),
                equalization: EqualizationModel::calibrated_deterministic(),
                ..ControllerConfig::default()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        (ctl, ids.i, ids.iv, csp)
    }

    #[test]
    fn bod_orders_capacity_then_releases() {
        let (mut ctl, from, to, csp) = bod_setup();
        let policy = BodPolicy {
            max_rate: DataRate::from_gbps(20),
            drain_target: SimDuration::from_mins(30),
            idle_release: SimDuration::from_mins(5),
        };
        let out = policy.run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job(0, 2, 0)],
            SimDuration::from_hours(4),
            SimDuration::from_secs(30),
        );
        assert_eq!(out.log.completed, 1);
        assert!(out.setups >= 1);
        // Setup latency visible: > pure transfer time at 10G (1600 s).
        assert!(out.log.mean_completion_secs > 1600.0);
        assert!(out.log.mean_completion_secs < 3000.0);
        // Everything released afterwards.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
        // Paid only for what was held.
        assert!(out.gbps_hours < 20.0 * 4.0);
        assert!(out.gbps_hours > 0.0);
    }

    #[test]
    fn multi_pair_full_mesh_shares_one_carrier() {
        let (net, ids) = photonic::PhotonicNetwork::testbed(6);
        let mut ctl = Controller::new(
            net,
            griphon::controller::ControllerConfig {
                ems: photonic::EmsProfile::calibrated_deterministic(),
                equalization: photonic::EqualizationModel::calibrated_deterministic(),
                ..griphon::controller::ControllerConfig::default()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        let mk = |id: u32, from: DataCenterId, to: DataCenterId| BulkJob {
            id: JobId::new(id),
            from,
            to,
            size: DataSize::from_terabytes(4),
            created: SimTime::ZERO,
            deadline: None,
        };
        let d = |i| DataCenterId::new(i);
        let pairs = vec![
            (ids.i, ids.iv, vec![mk(0, d(0), d(1))]),
            (ids.i, ids.iii, vec![mk(1, d(0), d(2))]),
            (ids.iii, ids.iv, vec![mk(2, d(2), d(1))]),
        ];
        let runner = MultiPairBod {
            policy: BodPolicy {
                max_rate: DataRate::from_gbps(20),
                drain_target: SimDuration::from_mins(30),
                idle_release: SimDuration::from_mins(5),
            },
        };
        let outcomes = runner.run(
            &mut ctl,
            csp,
            pairs,
            SimDuration::from_hours(6),
            SimDuration::from_secs(60),
        );
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.log.completed, 1, "pair {i}");
            assert!(o.setups >= 1);
        }
        // All capacity back at the carrier afterwards.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
        // Concurrency really happened: the carrier held wavelengths for
        // several pairs in the same period (peak over pairs > any single
        // pair's needs alone would imply).
        let total_setups: u64 = outcomes.iter().map(|o| o.setups).sum();
        assert!(total_setups >= 3);
    }

    #[test]
    fn deadline_policy_holds_less_for_loose_deadlines() {
        // Same 2 TB job, deadline 8 h away: the deadline policy should
        // order less capacity (lower gbps-hours) than the fixed
        // 30-minute-drain policy while still making the deadline.
        let mk_job = || BulkJob {
            id: JobId::new(0),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_terabytes(2),
            created: SimTime::ZERO,
            deadline: Some(SimTime::from_secs(8 * 3600)),
        };
        let (mut ctl, from, to, csp) = bod_setup();
        let eager = BodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_mins(30),
            idle_release: SimDuration::from_mins(5),
        }
        .run(
            &mut ctl,
            csp,
            from,
            to,
            vec![mk_job()],
            SimDuration::from_hours(10),
            SimDuration::from_secs(60),
        );
        let (mut ctl2, from2, to2, csp2) = bod_setup();
        let lazy = DeadlineBodPolicy::default().run(
            &mut ctl2,
            csp2,
            from2,
            to2,
            vec![mk_job()],
            SimDuration::from_hours(10),
            SimDuration::from_secs(60),
        );
        assert_eq!(eager.log.completed, 1);
        assert_eq!(lazy.log.completed, 1);
        assert!((lazy.log.deadline_hit_rate - 1.0).abs() < 1e-9);
        assert!(
            lazy.peak_gbps <= eager.peak_gbps,
            "lazy peak {} vs eager {}",
            lazy.peak_gbps,
            eager.peak_gbps
        );
        assert!(lazy.setups <= eager.setups);
    }

    #[test]
    fn deadline_policy_escalates_for_tight_deadlines() {
        let job = BulkJob {
            id: JobId::new(0),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_terabytes(10),
            created: SimTime::ZERO,
            // 10 TB in 45 min needs ~30 G: the policy must stack
            // wavelengths fast.
            deadline: Some(SimTime::from_secs(45 * 60)),
        };
        let (mut ctl, from, to, csp) = bod_setup();
        let out = DeadlineBodPolicy {
            max_rate: DataRate::from_gbps(40),
            ..DeadlineBodPolicy::default()
        }
        .run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job],
            SimDuration::from_hours(2),
            SimDuration::from_secs(30),
        );
        assert_eq!(out.log.completed, 1);
        assert!(
            out.setups >= 3,
            "needed several wavelengths: {}",
            out.setups
        );
        assert!(out.peak_gbps >= 30.0);
    }

    #[test]
    fn deadline_policy_orders_with_zero_background_drain() {
        // No background job, so the background term must not turn the
        // required rate into 0/0 = NaN, which casts to zero: the policy
        // would never order and miss the deadline.
        let policy = DeadlineBodPolicy {
            background_drain: SimDuration::ZERO,
            ..DeadlineBodPolicy::default()
        };
        let jobs = vec![BulkJob {
            deadline: Some(SimTime::from_secs(3 * 3600)),
            ..job(0, 4, 0)
        }];
        let (horizon, tick) = (SimDuration::from_hours(4), SimDuration::from_secs(60));
        let (mut ctl, from, to, csp) = bod_setup();
        let out = policy.run(&mut ctl, csp, from, to, jobs, horizon, tick);
        assert_eq!(out.log.completed, 1);
        assert_eq!(out.log.deadline_hit_rate, 1.0);
        assert!(out.setups >= 1);
    }

    #[test]
    fn bod_scales_with_backlog() {
        let (mut ctl, from, to, csp) = bod_setup();
        let policy = BodPolicy {
            max_rate: DataRate::from_gbps(40),
            drain_target: SimDuration::from_mins(10),
            idle_release: SimDuration::from_mins(5),
        };
        // A large backlog: 20 TB, drain target 10 min → wants the full
        // 40 G (4 wavelengths).
        let out = policy.run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job(0, 20, 0)],
            SimDuration::from_hours(6),
            SimDuration::from_secs(30),
        );
        assert_eq!(out.log.completed, 1);
        assert!(out.setups >= 3, "setups={}", out.setups);
        assert!(out.peak_gbps >= 30.0, "peak={}", out.peak_gbps);
    }

    use griphon::CrossTraffic;

    /// A 40 G shared path carrying stationary ~20 G cross traffic.
    fn stationary_path() -> ProbePath {
        ProbePath {
            name: "dc-a:dc-b",
            capacity: DataRate::from_gbps(40),
            cross: CrossTraffic::stationary(
                17,
                DataRate::from_gbps(20),
                0.1,
                SimDuration::from_secs(60),
                SimTime::from_secs(12 * 3600),
            ),
        }
    }

    fn measured_run(mode: MeasuredMode, observability: bool) -> (u32, MeasuredRun) {
        let (mut ctl, from, to, csp) = bod_setup();
        let policy = MeasuredBodPolicy {
            mode,
            ..MeasuredBodPolicy::default()
        };
        let run = policy.run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job(0, 30, 0)],
            SimDuration::from_hours(8),
            SimDuration::from_secs(60),
            stationary_path(),
            ProbeConfig::default(),
            1234,
            observability,
        );
        (ctl.state_digest_crc(), run)
    }

    #[test]
    fn estimation_aware_bod_beats_fixed_on_regret() {
        let (_, fixed) = measured_run(MeasuredMode::Fixed, false);
        let (_, est) = measured_run(MeasuredMode::Estimated, false);
        let (_, oracle) = measured_run(MeasuredMode::Oracle, false);
        assert_eq!(fixed.outcome.log.completed, 1);
        assert_eq!(est.outcome.log.completed, 1);
        // Fixed sizing ignores ~20 G of free shared capacity and pays
        // for it; the measured plan pays less for similar lateness.
        let regret_fixed = fixed.score - oracle.score;
        let regret_est = est.score - oracle.score;
        assert!(
            regret_est < regret_fixed,
            "estimated regret {regret_est:.2} >= fixed regret {regret_fixed:.2}"
        );
        assert!(
            regret_est >= -1e-9,
            "the oracle must not lose to an estimate: {regret_est:.2}"
        );
        assert!(est.measure.trains > 10, "the prober must have run");
    }

    #[test]
    fn measured_bod_observability_is_passive() {
        let (digest_on, on) = measured_run(MeasuredMode::Estimated, true);
        let (digest_off, off) = measured_run(MeasuredMode::Estimated, false);
        assert_eq!(
            digest_on, digest_off,
            "measurement observability changed controller state"
        );
        assert_eq!(on.outcome, off.outcome);
        assert_eq!(on.score.to_bits(), off.score.to_bits());
        assert_eq!(on.measure.samples.len(), off.measure.samples.len());
        // Only the observability artifacts differ.
        assert!(on.measure.exemplars >= 1);
        assert_eq!(off.measure.exemplars, 0);
        assert_eq!(on.measure.span_dropped, 0);
    }

    #[test]
    fn measured_bod_reports_through_the_driver_only_when_asked() {
        let run = |telemetry: bool| {
            let (mut ctl, from, to, csp) = bod_setup();
            if telemetry {
                ctl.spans.set_enabled(true);
                ctl.noc.enable(SimDuration::from_mins(5));
            }
            let out = MeasuredBodPolicy::default().run(
                &mut ctl,
                csp,
                from,
                to,
                vec![job(0, 30, 0)],
                SimDuration::from_hours(8),
                SimDuration::from_secs(60),
                stationary_path(),
                ProbeConfig::default(),
                1234,
                false,
            );
            (ctl, out)
        };
        let (quiet, off) = run(false);
        let (loud, on) = run(true);
        assert_eq!(on.outcome, off.outcome);
        assert_eq!(on.score.to_bits(), off.score.to_bits());
        assert!(quiet.spans.is_empty());
        assert!(quiet.noc.families().is_empty());
        let orders = loud
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "policy.order")
            .count();
        assert_eq!(orders as u64, on.outcome.setups);
        assert!(loud
            .noc
            .families()
            .expose()
            .contains("noc_cloud_backlog_tb"));
    }

    #[test]
    fn measured_bod_upgrades_on_underdelivery() {
        // Adversarial square wave: free capacity collapses 35 G → 5 G
        // at t = 2 h while a fresh backlog is queued. The EWMA estimate
        // lags the collapse, so the sizing plan under-delivers until
        // the upgrade trigger fires.
        let (mut ctl, from, to, csp) = bod_setup();
        let path = ProbePath {
            name: "dc-a:dc-b",
            capacity: DataRate::from_gbps(40),
            cross: CrossTraffic::square(
                DataRate::from_gbps(5),
                DataRate::from_gbps(35),
                SimDuration::from_hours(2),
                SimTime::from_secs(12 * 3600),
            ),
        };
        let policy = MeasuredBodPolicy {
            mode: MeasuredMode::Estimated,
            ..MeasuredBodPolicy::default()
        };
        let run = policy.run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job(0, 16, 0), job(1, 6, 7100)],
            SimDuration::from_hours(6),
            SimDuration::from_secs(60),
            path,
            ProbeConfig::default(),
            7,
            false,
        );
        assert!(
            run.under_delivery_ticks >= 1,
            "the collapse must register as under-delivery"
        );
        assert!(
            run.upgrades >= 1,
            "the under-delivery streak must trigger an upgrade order"
        );
        assert_eq!(run.outcome.log.completed, 2);
    }

    #[test]
    fn measured_bod_downgrades_on_surplus() {
        // Oracle knowledge + a shrinking backlog: desired falls while
        // free capacity stays ~20 G, so committed wavelengths become
        // surplus and the downgrade trigger sheds them early.
        let (mut ctl, from, to, csp) = bod_setup();
        let policy = MeasuredBodPolicy {
            mode: MeasuredMode::Oracle,
            ..MeasuredBodPolicy::default()
        };
        let run = policy.run(
            &mut ctl,
            csp,
            from,
            to,
            vec![job(0, 40, 0)],
            SimDuration::from_hours(10),
            SimDuration::from_secs(60),
            stationary_path(),
            ProbeConfig::default(),
            99,
            false,
        );
        assert_eq!(run.outcome.log.completed, 1);
        assert!(
            run.downgrades >= 1,
            "a draining backlog must shed surplus wavelengths"
        );
        // Shed wavelengths really stop billing.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
    }
}
