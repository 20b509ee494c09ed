//! Fiber plant: links, spans, amplifier chains, and cuts.
//!
//! A [`FiberLink`] is a bidirectional fiber *pair* between two ROADM nodes
//! (the unit the paper's DWDM layer multiplexes wavelengths onto). Long
//! links are divided into [`Span`]s separated by in-line EDFA amplifier
//! huts, and a cut is located to a specific span by the fault localizer.
//! (Equalization time scales with ROADM hops, not spans: see
//! [`crate::power`].)

use serde::{Deserialize, Serialize};
use simcore::define_id;

use crate::roadm::RoadmId;

define_id!(
    /// Identifier of a fiber link (pair) between two ROADM nodes.
    FiberId,
    "fiber"
);

/// One amplified section of a fiber link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Length of this span in kilometres.
    pub length_km: f64,
    /// Attenuation in dB/km (0.25 dB/km is typical deployed fiber).
    pub loss_db_per_km: f64,
}

impl Span {
    /// A span with typical terrestrial loss.
    pub(crate) fn of_km(length_km: f64) -> Span {
        assert!(length_km > 0.0, "span length must be positive");
        Span {
            length_km,
            loss_db_per_km: 0.25,
        }
    }
}

/// Operational state of a fiber link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FiberState {
    /// Carrying traffic normally.
    Up,
    /// Cut at the given span index; all wavelengths on the link are dark.
    Cut {
        /// Which span the break is in (0-based from endpoint `a`).
        span: usize,
    },
    /// Administratively removed from service for planned maintenance.
    Maintenance,
}

/// A bidirectional fiber pair between two ROADM nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiberLink {
    /// This link's id.
    pub id: FiberId,
    /// One endpoint.
    pub a: RoadmId,
    /// The other endpoint.
    pub b: RoadmId,
    /// Amplified spans, ordered from `a` to `b`.
    pub spans: Vec<Span>,
    /// Current operational state.
    pub state: FiberState,
}

impl FiberLink {
    /// Build a link from explicit spans.
    ///
    /// # Panics
    /// If `spans` is empty or the endpoints are equal.
    pub fn new(id: FiberId, a: RoadmId, b: RoadmId, spans: Vec<Span>) -> FiberLink {
        assert!(a != b, "fiber endpoints must differ");
        assert!(!spans.is_empty(), "a fiber link needs at least one span");
        FiberLink {
            id,
            a,
            b,
            spans,
            state: FiberState::Up,
        }
    }

    /// Build a link of `total_km`, auto-split into ~80 km amplified spans
    /// (the standard EDFA hut spacing).
    pub(crate) fn with_length(id: FiberId, a: RoadmId, b: RoadmId, total_km: f64) -> FiberLink {
        assert!(total_km > 0.0, "fiber length must be positive");
        let n = (total_km / 80.0).ceil().max(1.0) as usize;
        let each = total_km / n as f64;
        FiberLink::new(id, a, b, vec![Span::of_km(each); n])
    }

    /// Total route length.
    pub fn length_km(&self) -> f64 {
        self.spans.iter().map(|s| s.length_km).sum()
    }

    /// Is the link able to carry traffic?
    pub fn is_up(&self) -> bool {
        matches!(self.state, FiberState::Up)
    }

    /// The far end as seen from `from`.
    ///
    /// # Panics
    /// If `from` is not an endpoint of this link.
    pub fn other_end(&self, from: RoadmId) -> RoadmId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of {}", self.id)
        }
    }

    /// Sever the link at `span` (0-based). Idempotent for repeated cuts;
    /// the first cut's location wins.
    ///
    /// # Panics
    /// If `span` is out of range.
    pub fn cut_at(&mut self, span: usize) {
        assert!(span < self.spans.len(), "span {span} out of range");
        if self.is_up() || matches!(self.state, FiberState::Maintenance) {
            self.state = FiberState::Cut { span };
        }
    }

    /// Repair the link (or return it from maintenance) to service.
    pub fn restore(&mut self) {
        self.state = FiberState::Up;
    }

    /// Take the link out of service for planned maintenance.
    ///
    /// # Panics
    /// If the link is currently cut — repair precedes maintenance.
    pub fn enter_maintenance(&mut self) {
        assert!(
            !matches!(self.state, FiberState::Cut { .. }),
            "cannot start maintenance on a cut fiber"
        );
        self.state = FiberState::Maintenance;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> FiberLink {
        FiberLink::with_length(FiberId::new(0), RoadmId::new(0), RoadmId::new(1), 200.0)
    }

    #[test]
    fn auto_span_split() {
        let l = link();
        assert_eq!(l.spans.len(), 3); // 200 km → 3 spans ≤ 80 km
        assert!((l.length_km() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn other_end_both_directions() {
        let l = link();
        assert_eq!(l.other_end(RoadmId::new(0)), RoadmId::new(1));
        assert_eq!(l.other_end(RoadmId::new(1)), RoadmId::new(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_rejects_stranger() {
        link().other_end(RoadmId::new(9));
    }

    #[test]
    fn cut_and_restore() {
        let mut l = link();
        assert!(l.is_up());
        l.cut_at(1);
        assert_eq!(l.state, FiberState::Cut { span: 1 });
        assert!(!l.is_up());
        // A second cut does not relocate the first.
        l.cut_at(2);
        assert_eq!(l.state, FiberState::Cut { span: 1 });
        l.restore();
        assert!(l.is_up());
    }

    #[test]
    fn maintenance_lifecycle() {
        let mut l = link();
        l.enter_maintenance();
        assert!(!l.is_up());
        l.restore();
        assert!(l.is_up());
    }

    #[test]
    #[should_panic(expected = "cut fiber")]
    fn maintenance_on_cut_fiber_panics() {
        let mut l = link();
        l.cut_at(0);
        l.enter_maintenance();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cut_out_of_range_panics() {
        link().cut_at(99);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_loop_rejected() {
        FiberLink::with_length(FiberId::new(0), RoadmId::new(3), RoadmId::new(3), 10.0);
    }
}
