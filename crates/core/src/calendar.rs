//! Advance reservations — calendared bandwidth on demand.
//!
//! The paper's motivating workload is *scheduled*: nightly backups and
//! periodic replication (§1). A CSP that knows its 02:00 backup window
//! shouldn't have to poll; it books the window, and the controller
//! provisions the bundle with enough lead time that the full rate is in
//! service when the window opens (wavelength setup is ~70 s, so the
//! default lead is two minutes — itself a nice illustration of why
//! minute-scale provisioning changes the service model: with today's
//! weeks-scale provisioning an "advance reservation" *is* the product).
//!
//! Admission control is calendar-aware: overlapping reservations on the
//! same node pair must fit under that pair's booking capacity, checked
//! at booking time — so a confirmed reservation cannot be refused later
//! for calendar reasons (it can still fail at activation if the *plant*
//! lost resources meanwhile, e.g. to failures; that surfaces as
//! [`ReservationState::ActivationFailed`]).

use simcore::{define_id, DataRate, SimDuration, SimTime};

use photonic::RoadmId;

use crate::bod::Bundle;
use crate::controller::{Controller, Event};
use crate::tenant::CustomerId;

define_id!(
    /// Identifier of an advance reservation.
    ReservationId,
    "resv"
);

/// Lifecycle of a reservation.
#[derive(Debug, Clone, PartialEq)]
pub enum ReservationState {
    /// Confirmed, waiting for the window.
    Booked,
    /// Bundle provisioned (or provisioning) for the window.
    Active(Bundle),
    /// Window over, bundle released.
    Completed,
    /// The plant could not deliver at activation time.
    ActivationFailed(String),
    /// Cancelled before the window.
    Cancelled,
}

/// One advance booking.
#[derive(Debug, Clone)]
pub struct Reservation {
    /// This reservation's id.
    pub id: ReservationId,
    /// The booking customer.
    pub customer: CustomerId,
    /// A-end node.
    pub from: RoadmId,
    /// Z-end node.
    pub to: RoadmId,
    /// Booked aggregate rate.
    pub rate: DataRate,
    /// Service window (bandwidth in service from `start` to `end`).
    pub start: SimTime,
    /// End of the window.
    pub end: SimTime,
    /// Current state.
    pub state: ReservationState,
}

/// Why a booking was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalendarError {
    /// `end` is not after `start`, or `start` is in the past.
    BadWindow,
    /// Overlapping bookings on this pair would exceed its capacity.
    OverBooked {
        /// Capacity available over the requested window.
        available: DataRate,
    },
}

impl std::fmt::Display for CalendarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalendarError::BadWindow => write!(f, "invalid window"),
            CalendarError::OverBooked { available } => {
                write!(f, "over-booked; {available} available")
            }
        }
    }
}

impl std::error::Error for CalendarError {}

/// Lead time before the window at which provisioning starts.
pub(crate) const ACTIVATION_LEAD: SimDuration = SimDuration::from_secs(120);

impl Controller {
    /// Cap concurrent bookings between a node pair (defaults to 40 G per
    /// pair when unset).
    pub fn set_booking_capacity(&mut self, a: RoadmId, b: RoadmId, cap: DataRate) {
        self.journal_record(|| crate::durability::Intent::SetBookingCapacity {
            a: a.raw(),
            b: b.raw(),
            cap_bps: cap.bps(),
        });
        let key = if a <= b { (a, b) } else { (b, a) };
        self.booking_caps.insert(key, cap);
    }

    fn booking_capacity(&self, a: RoadmId, b: RoadmId) -> DataRate {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.booking_caps
            .get(&key)
            .copied()
            .unwrap_or(DataRate::from_gbps(40))
    }

    /// Book `rate` between `from` and `to` over `[start, end)`.
    pub fn reserve_bandwidth(
        &mut self,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        rate: DataRate,
        start: SimTime,
        end: SimTime,
    ) -> Result<ReservationId, CalendarError> {
        self.journal_record(|| crate::durability::Intent::Reserve {
            customer: customer.raw(),
            from: from.raw(),
            to: to.raw(),
            rate_bps: rate.bps(),
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
        });
        if end <= start || start < self.now() {
            return Err(CalendarError::BadWindow);
        }
        // Peak overlapping commitment on this pair during the window.
        let cap = self.booking_capacity(from, to);
        let key = |a: RoadmId, b: RoadmId| if a <= b { (a, b) } else { (b, a) };
        let this_key = key(from, to);
        let committed: DataRate = self
            .reservations
            .iter()
            .filter(|r| {
                matches!(
                    r.state,
                    ReservationState::Booked | ReservationState::Active(_)
                ) && key(r.from, r.to) == this_key
                    && r.start < end
                    && start < r.end
            })
            .map(|r| r.rate)
            .sum();
        let available = cap.saturating_sub(committed);
        if rate > available {
            return Err(CalendarError::OverBooked { available });
        }
        let id = ReservationId::from_index(self.reservations.len());
        self.reservations.push(Reservation {
            id,
            customer,
            from,
            to,
            rate,
            start,
            end,
            state: ReservationState::Booked,
        });
        let lead_start =
            SimTime::from_nanos(start.as_nanos().saturating_sub(ACTIVATION_LEAD.as_nanos()))
                .max(self.now());
        self.sched
            .schedule_at(lead_start, Event::ReservationStart { reservation: id });
        self.sched
            .schedule_at(end, Event::ReservationEnd { reservation: id });
        self.trace.emit(
            self.now(),
            "resv",
            format!(
                "{id} booked {rate} {}→{} window [{start}, {end})",
                self.net.name(from),
                self.net.name(to)
            ),
        );
        Ok(id)
    }

    /// Read a reservation.
    pub fn reservation(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(id.index())
    }

    /// Cancel a booking before its window opens.
    /// Returns `false` if it had already activated/completed.
    pub fn cancel_reservation(&mut self, id: ReservationId) -> bool {
        self.journal_record(|| crate::durability::Intent::CancelReservation {
            reservation: id.raw(),
        });
        let Some(r) = self.reservations.get_mut(id.index()) else {
            return false;
        };
        if r.state == ReservationState::Booked {
            r.state = ReservationState::Cancelled;
            self.trace
                .emit(self.sched.now(), "resv", format!("{id} cancelled"));
            true
        } else {
            false
        }
    }

    pub(crate) fn on_reservation_start(&mut self, id: ReservationId) {
        let (customer, from, to, rate) = {
            let Some(r) = self.reservations.get(id.index()) else {
                return;
            };
            if r.state != ReservationState::Booked {
                return; // cancelled
            }
            (r.customer, r.from, r.to, r.rate)
        };
        match self.request_bandwidth(customer, from, to, rate) {
            Ok(bundle) => {
                self.trace.emit(
                    self.now(),
                    "resv",
                    format!("{id} activating: {} members", bundle.members.len()),
                );
                self.reservations[id.index()].state = ReservationState::Active(bundle);
            }
            Err(e) => {
                self.trace
                    .emit(self.now(), "resv", format!("{id} activation FAILED: {e}"));
                self.metrics.counter("resv.activation_failed").incr();
                self.reservations[id.index()].state =
                    ReservationState::ActivationFailed(e.to_string());
            }
        }
    }

    pub(crate) fn on_reservation_end(&mut self, id: ReservationId) {
        let bundle = {
            let Some(r) = self.reservations.get(id.index()) else {
                return;
            };
            match &r.state {
                ReservationState::Active(b) => b.clone(),
                _ => return,
            }
        };
        self.release_bundle(&bundle);
        self.reservations[id.index()].state = ReservationState::Completed;
        self.trace
            .emit(self.now(), "resv", format!("{id} window over, released"));
        self.metrics.counter("resv.completed").incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::ConnState;
    use crate::controller::ControllerConfig;
    use photonic::{LineRate, PhotonicNetwork};

    fn booked_testbed() -> (Controller, photonic::TestbedIds, CustomerId) {
        let (net, ids) = PhotonicNetwork::testbed(10);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
        ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
        ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(400));
        (ctl, ids, csp)
    }

    #[test]
    fn window_delivers_full_rate_at_start() {
        let (mut ctl, ids, csp) = booked_testbed();
        let start = ctl.now() + SimDuration::from_hours(2);
        let end = start + SimDuration::from_hours(4);
        let resv = ctl
            .reserve_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(12), start, end)
            .unwrap();
        // At window open, the bundle is fully active (lead time covered
        // the λ setup).
        ctl.run_until(start);
        let r = ctl.reservation(resv).unwrap();
        let ReservationState::Active(bundle) = &r.state else {
            panic!("not active: {:?}", r.state)
        };
        assert_eq!(
            ctl.bundle_active_rate(bundle),
            DataRate::from_gbps(12),
            "full rate in service the moment the window opens"
        );
        // At window end, everything is released.
        ctl.run_until_idle();
        assert_eq!(
            ctl.reservation(resv).unwrap().state,
            ReservationState::Completed
        );
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
        assert_eq!(ctl.metrics.counter("resv.completed").get(), 1);
    }

    #[test]
    fn overbooking_refused_at_booking_time() {
        let (mut ctl, ids, csp) = booked_testbed();
        ctl.set_booking_capacity(ids.i, ids.iv, DataRate::from_gbps(20));
        let t0 = ctl.now();
        let w1 = (
            t0 + SimDuration::from_hours(1),
            t0 + SimDuration::from_hours(3),
        );
        let w2 = (
            t0 + SimDuration::from_hours(2),
            t0 + SimDuration::from_hours(4),
        );
        ctl.reserve_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(15), w1.0, w1.1)
            .unwrap();
        // Overlapping 10 G would exceed the 20 G cap.
        let err = ctl
            .reserve_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(10), w2.0, w2.1)
            .unwrap_err();
        assert_eq!(
            err,
            CalendarError::OverBooked {
                available: DataRate::from_gbps(5)
            }
        );
        // A non-overlapping window is fine.
        ctl.reserve_bandwidth(
            csp,
            ids.i,
            ids.iv,
            DataRate::from_gbps(20),
            t0 + SimDuration::from_hours(5),
            t0 + SimDuration::from_hours(6),
        )
        .unwrap();
    }

    #[test]
    fn bad_windows_rejected() {
        let (mut ctl, ids, csp) = booked_testbed();
        let now = ctl.now();
        assert_eq!(
            ctl.reserve_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(1), now, now),
            Err(CalendarError::BadWindow)
        );
        ctl.run_until(now + SimDuration::from_hours(1));
        assert_eq!(
            ctl.reserve_bandwidth(
                csp,
                ids.i,
                ids.iv,
                DataRate::from_gbps(1),
                now,
                now + SimDuration::from_hours(2)
            ),
            Err(CalendarError::BadWindow),
            "start in the past"
        );
    }

    #[test]
    fn cancellation_prevents_activation() {
        let (mut ctl, ids, csp) = booked_testbed();
        let start = ctl.now() + SimDuration::from_hours(1);
        let resv = ctl
            .reserve_bandwidth(
                csp,
                ids.i,
                ids.iv,
                DataRate::from_gbps(10),
                start,
                start + SimDuration::from_hours(1),
            )
            .unwrap();
        assert!(ctl.cancel_reservation(resv));
        ctl.run_until_idle();
        assert_eq!(
            ctl.reservation(resv).unwrap().state,
            ReservationState::Cancelled
        );
        // Nothing was provisioned.
        assert!(ctl
            .connections()
            .all(|c| c.state != ConnState::Active || c.customer != csp));
        // Double-cancel reports false.
        assert!(!ctl.cancel_reservation(resv));
    }

    #[test]
    fn activation_failure_is_surfaced_not_silent() {
        let (mut ctl, ids, csp) = booked_testbed();
        let start = ctl.now() + SimDuration::from_hours(1);
        let resv = ctl
            .reserve_bandwidth(
                csp,
                ids.i,
                ids.iv,
                DataRate::from_gbps(10),
                start,
                start + SimDuration::from_hours(1),
            )
            .unwrap();
        // Sabotage the plant before activation: kill every OT at IV.
        for ot in ctl.net.idle_ots_at(ids.iv, LineRate::Gbps10) {
            ctl.net.transponder_mut(ot).fail();
        }
        ctl.run_until_idle();
        assert!(matches!(
            ctl.reservation(resv).unwrap().state,
            ReservationState::ActivationFailed(_)
        ));
        assert_eq!(ctl.metrics.counter("resv.activation_failed").get(), 1);
        // Quota rolled back.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
    }

    #[test]
    fn nightly_backup_calendar_three_nights() {
        let (mut ctl, ids, csp) = booked_testbed();
        let mut resvs = Vec::new();
        for night in 0..3u64 {
            let start = SimTime::from_secs(night * 86_400 + 2 * 3_600);
            let end = start + SimDuration::from_hours(4);
            resvs.push(
                ctl.reserve_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(12), start, end)
                    .unwrap(),
            );
        }
        ctl.run_until_idle();
        for r in resvs {
            assert_eq!(
                ctl.reservation(r).unwrap().state,
                ReservationState::Completed
            );
        }
        assert_eq!(ctl.metrics.counter("resv.completed").get(), 3);
        // 3 nights × (1 λ + 2 OTN) = 9 member circuits released.
        assert_eq!(ctl.tenants.get(csp).unwrap().in_use, DataRate::ZERO);
    }
}
