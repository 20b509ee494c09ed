//! Alarms: how the network tells the controller something broke.
//!
//! A single fiber cut raises a *storm* of alarms: the two adjacent ROADMs
//! report loss of signal (LOS) on every lit wavelength of that degree,
//! and every terminating transponder whose path crossed the cut reports
//! LOS seconds later. The GRIPhoN controller's fault-localization job
//! (implemented in `griphon::fault`) is to reduce the storm to one root
//! cause and restore the impacted connections — this module defines the
//! alarm vocabulary and the detection latency model.

use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::fmt;

use crate::fiber::FiberId;
use crate::grid::Wavelength;
use crate::roadm::{DegreeId, RoadmId};
use crate::transponder::TransponderId;

/// How urgent an alarm is (mirrors carrier practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlarmSeverity {
    /// Informational / cleared condition.
    Minor,
    /// Service-degrading.
    Major,
    /// Service-affecting outage.
    Critical,
}

/// What was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlarmKind {
    /// A ROADM degree lost light on one wavelength.
    DegreeLos {
        /// Reporting node.
        roadm: RoadmId,
        /// The degree (and hence fiber) the light vanished from.
        degree: DegreeId,
        /// Which channel.
        wavelength: Wavelength,
    },
    /// A terminating transponder lost its receive signal.
    OtLos {
        /// The transponder reporting loss.
        ot: TransponderId,
    },
    /// A transponder hardware fault.
    OtFail {
        /// The failed transponder.
        ot: TransponderId,
    },
    /// Line-side telemetry flagged a whole fiber down (span telemetry).
    FiberDown {
        /// The fiber reported dark.
        fiber: FiberId,
    },
    /// An ODU layer trunk went into alarm-indication-signal: the OTN
    /// switch at the trunk's terminating line port saw its ODU container
    /// replaced by AIS when the carrying wavelength was lost. Identified
    /// by the raw trunk id — this crate cannot name `otn` types, so the
    /// OTN/controller layers own the interpretation.
    OduAis {
        /// Raw id of the affected OTN trunk.
        trunk: u32,
    },
    /// A client-facing port on an OTN switch or customer hand-off went
    /// down — the last stage of the cascade, observed where the customer
    /// plugs in. Identified by raw ids for the same layering reason as
    /// [`AlarmKind::OduAis`].
    ClientPortDown {
        /// Raw id of the switch (or hand-off site) reporting the drop.
        switch: u32,
        /// Raw id of the client connection/port that lost service.
        port: u32,
    },
}

/// One alarm record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// When the EMS surfaced it to the controller.
    pub at: SimTime,
    /// What happened.
    pub kind: AlarmKind,
    /// How bad it is.
    pub severity: AlarmSeverity,
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            AlarmSeverity::Minor => "MIN",
            AlarmSeverity::Major => "MAJ",
            AlarmSeverity::Critical => "CRIT",
        };
        match self.kind {
            AlarmKind::DegreeLos {
                roadm,
                degree,
                wavelength,
            } => write!(
                f,
                "[{}] {sev} LOS {wavelength} at {roadm}/{degree}",
                self.at
            ),
            AlarmKind::OtLos { ot } => write!(f, "[{}] {sev} LOS at {ot}", self.at),
            AlarmKind::OtFail { ot } => write!(f, "[{}] {sev} FAIL {ot}", self.at),
            AlarmKind::FiberDown { fiber } => {
                write!(f, "[{}] {sev} DARK {fiber}", self.at)
            }
            AlarmKind::OduAis { trunk } => {
                write!(f, "[{}] {sev} AIS trunk{trunk}", self.at)
            }
            AlarmKind::ClientPortDown { switch, port } => {
                write!(f, "[{}] {sev} PORT-DOWN sw{switch}/port{port}", self.at)
            }
        }
    }
}

/// Detection latencies: how long after the physical event each class of
/// alarm reaches the controller, in cascade order.
pub mod detection {
    use simcore::SimDuration;

    /// Photodiode LOS detection at the adjacent ROADM degrees (fast,
    /// hardware-level — tens of ms).
    pub const DEGREE_LOS: SimDuration = SimDuration::from_millis(50);
    /// Line telemetry declaring the whole fiber down.
    pub const FIBER_DOWN: SimDuration = SimDuration::from_millis(500);
    /// ODU AIS raised by the OTN switch once the carrying wavelength is
    /// gone (framer hardware plus switch-EMS surfacing; between span
    /// telemetry and OT-EMS polling).
    pub const ODU_AIS: SimDuration = SimDuration::from_millis(1_000);
    /// Terminal OT LOS surfaced through its EMS (slower — EMS polling).
    pub const OT_LOS: SimDuration = SimDuration::from_millis(2_500);
    /// Client port down at the hand-off, the tail of the cascade (client
    /// equipment hold-off timers delay it past OT LOS).
    pub const CLIENT_PORT: SimDuration = SimDuration::from_millis(3_000);

    // Cascade ordering: degree LOS → span telemetry → ODU AIS → OT LOS →
    // client port (hold-off timers put the client drop last).
    const _: () = assert!(
        DEGREE_LOS.as_nanos() < FIBER_DOWN.as_nanos()
            && FIBER_DOWN.as_nanos() < ODU_AIS.as_nanos()
            && ODU_AIS.as_nanos() < OT_LOS.as_nanos()
            && OT_LOS.as_nanos() < CLIENT_PORT.as_nanos()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(AlarmSeverity::Critical > AlarmSeverity::Major);
        assert!(AlarmSeverity::Major > AlarmSeverity::Minor);
    }

    #[test]
    fn display_forms() {
        let a = Alarm {
            at: SimTime::from_secs(1),
            kind: AlarmKind::DegreeLos {
                roadm: RoadmId::new(2),
                degree: DegreeId::new(1),
                wavelength: Wavelength(9),
            },
            severity: AlarmSeverity::Critical,
        };
        assert_eq!(a.to_string(), "[t+1.00s] CRIT LOS λ9 at roadm2/deg1");
        let b = Alarm {
            at: SimTime::ZERO,
            kind: AlarmKind::FiberDown {
                fiber: FiberId::new(3),
            },
            severity: AlarmSeverity::Major,
        };
        assert!(b.to_string().contains("DARK fiber3"));
        let c = Alarm {
            at: SimTime::ZERO,
            kind: AlarmKind::OduAis { trunk: 4 },
            severity: AlarmSeverity::Critical,
        };
        assert!(c.to_string().contains("AIS trunk4"));
        let d = Alarm {
            at: SimTime::ZERO,
            kind: AlarmKind::ClientPortDown { switch: 1, port: 7 },
            severity: AlarmSeverity::Critical,
        };
        assert!(d.to_string().contains("PORT-DOWN sw1/port7"));
    }
}
