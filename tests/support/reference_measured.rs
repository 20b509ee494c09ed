//! The estimation-aware BoD policy as it ran before it moved onto the
//! shared BoD driver: its own fixed-tick loop over a rescanning FIFO
//! transfer list, copied verbatim (only the `use` lines and the trait
//! wrapper differ). Every `repro measure` number and the committed
//! measurement exposition were produced by this loop, so it is the
//! oracle `tests/measured_oracle.rs` holds `MeasuredBodPolicy::run` to.
//! Test-only: nothing outside `tests/` includes this file.

use cloud::{BulkJob, MeasuredBodPolicy, MeasuredMode, MeasuredRun, PolicyOutcome};
use cloud::{Transfer, TransferLog};
use griphon::controller::Controller;
use griphon::{ConnState, ConnectionId, CustomerId, ProbeConfig, ProbePath, Prober};
use photonic::{LineRate, RoadmId};
use simcore::{DataRate, DataSize, SimDuration, SimTime};

/// Shared simulation mechanics: FIFO transfer list advanced tick by tick.
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

    /// Bytes queued but unfinished.
    fn backlog(&self) -> DataSize {
        self.transfers
            .iter()
            .filter(|t| !t.is_done())
            .map(|t| t.remaining)
            .sum()
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

/// The old loop, reachable as a method so its body reads as it did.
pub trait ReferenceRun {
    /// The fixed-tick `MeasuredBodPolicy::run`.
    #[allow(clippy::too_many_arguments)]
    fn run_reference(
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
    ) -> MeasuredRun;
}

impl ReferenceRun for MeasuredBodPolicy {
    fn run_reference(
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
        let cap_gbps = path.capacity.gbps_f64();
        let mut prober = Prober::new(path, probe_cfg, seed, observability);
        let mut run = PairRun::new(jobs);
        let start = ctl.now();
        let end = start + horizon;
        let ten_g = DataRate::from_gbps(10);
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
            let est_free = match self.mode {
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
                        Some(since) if t.since(since) >= self.idle_release => {
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
                let desired = backlog_desired(backlog, self.drain_target, self.max_rate);
                let need_paid = desired.saturating_sub(est_free);
                let mut ordered = false;
                if need_paid > committed && committed + ten_g <= self.max_rate {
                    if let Ok(id) = ctl.request_wavelength(customer, from, to, LineRate::Gbps10) {
                        members.push(id);
                        setups += 1;
                        ordered = true;
                    }
                }
                // Under-delivery: the path gave measurably less than the
                // estimate the plan was sized with.
                let miss = free_true.gbps_f64() < self.underdelivery_margin * est_free.gbps_f64();
                if miss {
                    under_delivery_ticks += 1;
                    low_streak += 1;
                } else {
                    low_streak = 0;
                }
                if !ordered && low_streak >= 2 && committed + ten_g <= self.max_rate {
                    if let Ok(id) = ctl.request_wavelength(customer, from, to, LineRate::Gbps10) {
                        members.push(id);
                        setups += 1;
                        upgrades += 1;
                        low_streak = 0;
                    }
                }
                // Surplus: a full wavelength more than the plan needs,
                // sustained — shed it before the idle timer would.
                if committed.saturating_sub(need_paid) >= ten_g {
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
            let due = tr.job.created + self.sla_drain;
            let done = tr.completed.unwrap_or(horizon_rel);
            late_job_hours += done.saturating_since(due).as_secs_f64() / 3600.0;
        }
        let outcome = PolicyOutcome {
            log: TransferLog::summarize(&run.transfers),
            gbps_hours: gbit_seconds / 3600.0,
            peak_gbps: peak,
            setups,
        };
        let score = outcome.gbps_hours + self.lateness_penalty * late_job_hours;
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
}
