//! Optical transponders and regenerators.
//!
//! - A [`Transponder`] (OT) converts a client-side signal to a tunable
//!   line-side wavelength. Tuning the laser is the single slowest optical
//!   task in connection setup (§3 of the paper).
//! - A [`Regen`] is the standard back-to-back OT pair used when a path
//!   exceeds optical reach; it also permits wavelength conversion at the
//!   regeneration site.
//!
//! Transponders live at ROADM nodes and are shared between customers via
//! the client-side FXC — "dynamic sharing of transponders … useful in
//! keeping costs low" (§2.2).

use serde::{Deserialize, Serialize};
use simcore::define_id;

use crate::grid::{LineRate, Wavelength};
use crate::roadm::RoadmId;

define_id!(
    /// Identifier of an optical transponder.
    TransponderId,
    "ot"
);

define_id!(
    /// Identifier of a regenerator (a back-to-back OT pair).
    RegenId,
    "regen"
);

/// Lifecycle of a transponder's line side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransponderState {
    /// Laser off, available to the pool.
    Idle,
    /// Laser tuning to the target wavelength (takes tens of seconds).
    Tuning {
        /// The wavelength being acquired.
        target: Wavelength,
    },
    /// Locked and carrying traffic.
    Active {
        /// The lit wavelength.
        wavelength: Wavelength,
    },
    /// Hardware fault — removed from the pool until replaced.
    Failed,
}

/// A tunable optical transponder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transponder {
    /// This OT's id.
    pub id: TransponderId,
    /// The ROADM node whose add/drop bank it sits in.
    pub location: RoadmId,
    /// Line rate this OT transmits at.
    pub rate: LineRate,
    /// Current line-side state.
    pub state: TransponderState,
}

impl Transponder {
    /// A new idle transponder.
    pub fn new(id: TransponderId, location: RoadmId, rate: LineRate) -> Transponder {
        Transponder {
            id,
            location,
            rate,
            state: TransponderState::Idle,
        }
    }

    /// Is the OT free for a new connection?
    pub fn is_idle(&self) -> bool {
        self.state == TransponderState::Idle
    }

    /// Begin tuning the laser to `w`.
    ///
    /// # Panics
    /// If the OT is not idle — pool accounting upstream must prevent this.
    pub fn start_tuning(&mut self, w: Wavelength) {
        assert!(
            self.is_idle(),
            "{} asked to tune while {:?}",
            self.id,
            self.state
        );
        self.state = TransponderState::Tuning { target: w };
    }

    /// Laser locked: the OT is now carrying traffic.
    ///
    /// # Panics
    /// If the OT was not tuning.
    pub fn tuning_complete(&mut self) {
        match self.state {
            TransponderState::Tuning { target } => {
                self.state = TransponderState::Active { wavelength: target };
            }
            ref s => panic!("{} tuning_complete while {s:?}", self.id),
        }
    }

    /// Turn the laser off and return the OT to the pool. Valid from any
    /// live state (teardown may race with tuning).
    pub fn release(&mut self) {
        if self.state != TransponderState::Failed {
            self.state = TransponderState::Idle;
        }
    }

    /// Mark the OT failed (hardware fault injection).
    pub fn fail(&mut self) {
        self.state = TransponderState::Failed;
    }

    /// The wavelength currently lit, if active.
    pub fn wavelength(&self) -> Option<Wavelength> {
        match self.state {
            TransponderState::Active { wavelength } => Some(wavelength),
            _ => None,
        }
    }
}

/// A regenerator site: two OTs back to back, extending reach and allowing
/// the wavelength to change at this node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Regen {
    /// This REGEN's id.
    pub id: RegenId,
    /// The node it is installed at.
    pub location: RoadmId,
    /// Line rate (both sides must match).
    pub rate: LineRate,
    /// Whether a connection currently holds it.
    pub in_use: bool,
}

impl Regen {
    /// A new, free regenerator.
    pub fn new(id: RegenId, location: RoadmId, rate: LineRate) -> Regen {
        Regen {
            id,
            location,
            rate,
            in_use: false,
        }
    }

    /// Claim the regen for a connection.
    ///
    /// # Panics
    /// If it is already held.
    pub fn claim(&mut self) {
        assert!(!self.in_use, "{} double-claimed", self.id);
        self.in_use = true;
    }

    /// Return the regen to the pool.
    pub fn release(&mut self) {
        self.in_use = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ot() -> Transponder {
        Transponder::new(TransponderId::new(0), RoadmId::new(0), LineRate::Gbps10)
    }

    #[test]
    fn tuning_lifecycle() {
        let mut t = ot();
        assert!(t.is_idle());
        assert_eq!(t.wavelength(), None);
        t.start_tuning(Wavelength(4));
        assert_eq!(
            t.state,
            TransponderState::Tuning {
                target: Wavelength(4)
            }
        );
        t.tuning_complete();
        assert_eq!(t.wavelength(), Some(Wavelength(4)));
        t.release();
        assert!(t.is_idle());
    }

    #[test]
    #[should_panic(expected = "asked to tune")]
    fn tuning_while_active_panics() {
        let mut t = ot();
        t.start_tuning(Wavelength(1));
        t.tuning_complete();
        t.start_tuning(Wavelength(2));
    }

    #[test]
    #[should_panic(expected = "tuning_complete")]
    fn complete_without_tuning_panics() {
        ot().tuning_complete();
    }

    #[test]
    fn release_during_tuning_aborts() {
        let mut t = ot();
        t.start_tuning(Wavelength(1));
        t.release();
        assert!(t.is_idle());
    }

    #[test]
    fn fail_survives_release() {
        let mut t = ot();
        t.fail();
        assert_eq!(t.state, TransponderState::Failed);
        t.release(); // release must not resurrect failed hardware
        assert_eq!(t.state, TransponderState::Failed);
    }

    #[test]
    fn regen_claim_release() {
        let mut r = Regen::new(RegenId::new(0), RoadmId::new(1), LineRate::Gbps10);
        assert!(!r.in_use);
        r.claim();
        assert!(r.in_use);
        r.release();
        assert!(!r.in_use);
    }

    #[test]
    #[should_panic(expected = "double-claimed")]
    fn regen_double_claim_panics() {
        let mut r = Regen::new(RegenId::new(0), RoadmId::new(1), LineRate::Gbps10);
        r.claim();
        r.claim();
    }
}
