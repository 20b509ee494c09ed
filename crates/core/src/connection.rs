//! Connection records and their lifecycle state machine.
//!
//! Every customer-visible circuit — full wavelength or sub-wavelength —
//! is a [`Connection`]. The state machine:
//!
//! ```text
//!            request            workflow done
//! Requested ─────────▶ Provisioning ─────────▶ Active ◀────────────┐
//!                          │                     │  │               │
//!                          │ blocked             │  │ fiber cut     │ restore
//!                          ▼                     │  ▼               │ workflow
//!                       Blocked       teardown   │ Failed ──▶ Restoring
//!                                     requested  │  │
//!                                                ▼  │ no capacity
//!                                          TearingDown ──▶ Released
//! ```
//!
//! Bridge-and-roll runs as a sub-phase of `Active` (the connection keeps
//! carrying traffic while its bridge is built; the roll itself is the
//! only hit). Outage accounting: `Failed`/`Restoring` time accumulates
//! into [`Connection::outage_total`], the quantity experiments E2/E3
//! report.

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate, SimDuration, SimTime};

use otn::{ClientSignal, XcId};
use photonic::{LineRate, RoadmId};

use crate::rwa::WavelengthPlan;
use crate::tenant::CustomerId;

define_id!(
    /// Identifier of a customer connection.
    ConnectionId,
    "conn"
);

define_id!(
    /// Identifier of an OTN trunk (a carrier-internal wavelength that
    /// carries groomed sub-wavelength circuits between OTN switches).
    TrunkId,
    "trunk"
);

/// What kind of circuit this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionKind {
    /// A full wavelength on the DWDM layer.
    Wavelength {
        /// The line rate.
        rate: LineRate,
    },
    /// A 1+1-protected wavelength: two disjoint paths, dedicated
    /// standby, ~50 ms switchover (§1: the expensive today-option that
    /// GRIPhoN's restoration undercuts).
    ProtectedWavelength {
        /// The line rate.
        rate: LineRate,
    },
    /// A sub-wavelength circuit groomed through the OTN layer.
    SubWavelength {
        /// The client signal carried.
        signal: ClientSignal,
    },
}

impl ConnectionKind {
    /// The bandwidth the customer gets.
    pub fn rate(self) -> DataRate {
        match self {
            ConnectionKind::Wavelength { rate } | ConnectionKind::ProtectedWavelength { rate } => {
                rate.rate()
            }
            ConnectionKind::SubWavelength { signal } => signal.rate(),
        }
    }
}

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnState {
    /// Resources claimed, provisioning workflow running.
    Provisioning,
    /// Carrying traffic.
    Active,
    /// Hit by a failure; waiting for restoration to start.
    Failed,
    /// Restoration workflow running.
    Restoring,
    /// Teardown workflow running.
    TearingDown,
    /// Gone; terminal state.
    Released,
    /// Admission failed (no resources); terminal state.
    Blocked,
}

impl ConnState {
    /// Is the customer's traffic flowing in this state?
    pub fn carrying_traffic(self) -> bool {
        matches!(self, ConnState::Active)
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, ConnState::Released | ConnState::Blocked)
    }
}

/// Resources held by a sub-wavelength circuit: the trunk hops it rides
/// and the cross-connects created in each OTN switch along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct SubWavelengthRoute {
    /// Trunks traversed, in order.
    pub trunks: Vec<TrunkId>,
    /// `(switch index in controller, xc id)` pairs created.
    pub xcs: Vec<(usize, XcId)>,
}

/// Resources held by a connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Resources {
    /// A wavelength plan (path, λ, OTs, regens).
    Wavelength(WavelengthPlan),
    /// OTN trunk slots and switch cross-connects.
    SubWavelength(SubWavelengthRoute),
    /// A 1+1 pair: both legs permanently claimed, traffic on one.
    Protected {
        /// The working leg.
        working: WavelengthPlan,
        /// The (link-disjoint) protect leg.
        protect: WavelengthPlan,
        /// True once a failure has switched traffic to the protect leg.
        on_protect: bool,
    },
}

/// One customer connection.
#[derive(Debug, Clone)]
pub struct Connection {
    /// This connection's id.
    pub id: ConnectionId,
    /// The owning customer.
    pub customer: CustomerId,
    /// A-end node.
    pub from: RoadmId,
    /// Z-end node.
    pub to: RoadmId,
    /// Wavelength or sub-wavelength.
    pub kind: ConnectionKind,
    /// Current lifecycle state.
    pub state: ConnState,
    /// Held resources (None once released / if blocked).
    pub resources: Option<Resources>,
    /// Bridge staged by bridge-and-roll, not yet rolled onto.
    pub bridge: Option<WavelengthPlan>,
    /// When the request was admitted.
    pub requested_at: SimTime,
    /// When the circuit last became Active.
    pub activated_at: Option<SimTime>,
    /// Accumulated outage.
    pub outage_total: SimDuration,
    /// Start of the current outage, if one is in progress.
    pub outage_since: Option<SimTime>,
}

impl Connection {
    /// A new connection entering `Provisioning`.
    pub fn new(
        id: ConnectionId,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        kind: ConnectionKind,
        at: SimTime,
    ) -> Connection {
        Connection {
            id,
            customer,
            from,
            to,
            kind,
            state: ConnState::Provisioning,
            resources: None,
            bridge: None,
            requested_at: at,
            activated_at: None,
            outage_total: SimDuration::ZERO,
            outage_since: None,
        }
    }

    /// Record an outage beginning (idempotent while one is open).
    pub(crate) fn outage_start(&mut self, at: SimTime) {
        if self.outage_since.is_none() {
            self.outage_since = Some(at);
        }
    }

    /// Record the outage ending; accumulates into `outage_total`.
    pub(crate) fn outage_end(&mut self, at: SimTime) {
        if let Some(start) = self.outage_since.take() {
            self.outage_total += at.saturating_since(start);
        }
    }

    /// The wavelength plan, if this is a wavelength connection with
    /// resources.
    pub fn wavelength_plan(&self) -> Option<&WavelengthPlan> {
        match &self.resources {
            Some(Resources::Wavelength(p)) => Some(p),
            _ => None,
        }
    }

    /// Transition with validity checking.
    ///
    /// # Panics
    /// On an illegal transition — those are controller bugs, not runtime
    /// conditions.
    pub fn transition(&mut self, next: ConnState) {
        use ConnState::*;
        let ok = matches!(
            (self.state, next),
            (Provisioning, Active)
                | (Provisioning, Blocked)
                | (Provisioning, TearingDown)
                | (Active, Failed)
                | (Active, TearingDown)
                | (Failed, Restoring)
                | (Failed, TearingDown)
                | (Failed, Active) // repaired before restoration started
                | (Restoring, Active)
                | (Restoring, Failed) // restoration blocked, wait for retry
                | (TearingDown, Released)
        );
        assert!(
            ok,
            "{}: illegal transition {:?} → {next:?}",
            self.id, self.state
        );
        self.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> Connection {
        Connection::new(
            ConnectionId::new(0),
            CustomerId::new(0),
            RoadmId::new(0),
            RoadmId::new(1),
            ConnectionKind::Wavelength {
                rate: LineRate::Gbps10,
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn happy_path_transitions() {
        let mut c = conn();
        assert_eq!(c.state, ConnState::Provisioning);
        c.transition(ConnState::Active);
        assert!(c.state.carrying_traffic());
        c.transition(ConnState::TearingDown);
        c.transition(ConnState::Released);
        assert!(c.state.is_terminal());
    }

    #[test]
    fn failure_and_restoration_cycle() {
        let mut c = conn();
        c.transition(ConnState::Active);
        c.transition(ConnState::Failed);
        c.outage_start(SimTime::from_secs(100));
        c.transition(ConnState::Restoring);
        c.transition(ConnState::Active);
        c.outage_end(SimTime::from_secs(160));
        assert_eq!(c.outage_total, SimDuration::from_secs(60));
        // Second outage accumulates.
        c.transition(ConnState::Failed);
        c.outage_start(SimTime::from_secs(200));
        c.transition(ConnState::Active);
        c.outage_end(SimTime::from_secs(230));
        assert_eq!(c.outage_total, SimDuration::from_secs(90));
    }

    #[test]
    fn outage_start_is_idempotent() {
        let mut c = conn();
        c.outage_start(SimTime::from_secs(10));
        c.outage_start(SimTime::from_secs(20)); // ignored
        c.outage_end(SimTime::from_secs(30));
        assert_eq!(c.outage_total, SimDuration::from_secs(20));
        // end without start is a no-op
        c.outage_end(SimTime::from_secs(40));
        assert_eq!(c.outage_total, SimDuration::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let mut c = conn();
        c.transition(ConnState::Restoring);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn terminal_states_stick() {
        let mut c = conn();
        c.transition(ConnState::Blocked);
        c.transition(ConnState::Active);
    }

    #[test]
    fn kind_rates() {
        assert_eq!(
            ConnectionKind::Wavelength {
                rate: LineRate::Gbps40
            }
            .rate(),
            DataRate::from_gbps(40)
        );
        assert_eq!(
            ConnectionKind::SubWavelength {
                signal: ClientSignal::GbE
            }
            .rate(),
            DataRate::from_gbps(1)
        );
    }
}
