//! Reconfigurable optical add/drop multiplexers.
//!
//! A [`Roadm`] is a node in the DWDM mesh. Each *degree* faces one fiber
//! link; wavelengths may be **expressed** between two degrees, or
//! **added/dropped** through an add/drop port to which an optical
//! transponder is attached.
//!
//! The paper's architecture depends on add/drop ports that are both
//! *colorless* (any port can be tuned to any wavelength) and
//! *non-directional / steerable* (any port can reach any degree). Both
//! properties are modelled as per-node flags so the benchmarks can ablate
//! them: a colored port is pinned to one wavelength, a directional port to
//! one degree — exactly the constraint legacy fixed OADMs impose.
//!
//! Invariant enforced here: on any one degree, a wavelength carries at
//! most one signal (one express or one add/drop), in keeping with
//! wavelength-division multiplexing physics. Violations are rejected with
//! [`RoadmError::WavelengthInUse`], which is what the RWA layer's
//! first-fit search relies on being impossible after admission.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use simcore::define_id;

use crate::fiber::FiberId;
use crate::grid::{ChannelGrid, Wavelength};
use crate::transponder::TransponderId;

define_id!(
    /// Identifier of a ROADM node.
    RoadmId,
    "roadm"
);

define_id!(
    /// A degree (inter-node fiber interface) of a specific ROADM.
    /// Degree ids are local to their node, numbered from 0.
    DegreeId,
    "deg"
);

define_id!(
    /// An add/drop port of a specific ROADM (local numbering).
    PortId,
    "port"
);

/// One colorless/non-directional (or constrained) add/drop port.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AddDropPort {
    /// Which transponder's client fiber is plugged in here, if any.
    pub attached: Option<TransponderId>,
    /// `Some(λ)` pins the port to one wavelength (non-colorless systems).
    pub fixed_wavelength: Option<Wavelength>,
    /// `Some(d)` pins the port to one degree (directional systems).
    pub fixed_degree: Option<DegreeId>,
}

/// Why a ROADM configuration request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoadmError {
    /// The degree id does not exist on this node.
    NoSuchDegree(DegreeId),
    /// The port id does not exist on this node.
    NoSuchPort(PortId),
    /// The wavelength is already carrying a signal on that degree.
    WavelengthInUse(Wavelength, DegreeId),
    /// The port is already configured for a connection.
    PortInUse(PortId),
    /// A colored port was asked for a wavelength it is not filtered to.
    PortWrongColor(PortId, Wavelength),
    /// A directional port was asked to reach a degree it cannot.
    PortWrongDegree(PortId, DegreeId),
    /// The wavelength is off this node's channel grid.
    OffGrid(Wavelength),
    /// Express endpoints must be two distinct degrees.
    DegenerateExpress,
    /// Tried to remove a configuration that is not present.
    NotConfigured,
}

impl fmt::Display for RoadmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadmError::NoSuchDegree(d) => write!(f, "no such degree {d}"),
            RoadmError::NoSuchPort(p) => write!(f, "no such port {p}"),
            RoadmError::WavelengthInUse(w, d) => write!(f, "{w} already lit on {d}"),
            RoadmError::PortInUse(p) => write!(f, "{p} already in use"),
            RoadmError::PortWrongColor(p, w) => write!(f, "{p} is not filtered for {w}"),
            RoadmError::PortWrongDegree(p, d) => write!(f, "{p} cannot steer to {d}"),
            RoadmError::OffGrid(w) => write!(f, "{w} is off the channel grid"),
            RoadmError::DegenerateExpress => write!(f, "express needs two distinct degrees"),
            RoadmError::NotConfigured => write!(f, "no such configuration"),
        }
    }
}

impl std::error::Error for RoadmError {}

/// What a wavelength on one degree is being used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum LambdaUse {
    /// Expressed through to another degree.
    Express {
        /// The other degree of the express connection.
        other: DegreeId,
    },
    /// Added/dropped at a local port.
    AddDrop {
        /// The add/drop port terminating the wavelength.
        port: PortId,
    },
}

/// A multi-degree ROADM node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Roadm {
    /// This node's id.
    pub id: RoadmId,
    /// The channel plan of the attached line system.
    pub grid: ChannelGrid,
    /// Fiber link behind each degree, indexed by [`DegreeId`].
    degrees: Vec<FiberId>,
    /// Per-degree occupancy bitmask (bit *i* set ⇔ channel *i* lit),
    /// indexed by [`DegreeId`]. Kept in lockstep with `lambda_use` so
    /// free-wavelength queries are single AND/popcount operations.
    degree_masks: Vec<u128>,
    /// Add/drop ports, indexed by [`PortId`].
    ports: Vec<AddDropPort>,
    /// Per-degree wavelength usage: `(degree, λ) → use`.
    lambda_use: BTreeMap<(DegreeId, Wavelength), LambdaUse>,
    /// Per-port configuration: `port → (λ, degree)`.
    port_config: BTreeMap<PortId, (Wavelength, DegreeId)>,
}

impl Roadm {
    /// A node with no degrees or ports yet.
    ///
    /// # Panics
    /// If the grid exceeds the 128-channel occupancy-mask width.
    pub fn new(id: RoadmId, grid: ChannelGrid) -> Roadm {
        let _ = grid.channel_mask();
        Roadm {
            id,
            grid,
            degrees: Vec::new(),
            degree_masks: Vec::new(),
            ports: Vec::new(),
            lambda_use: BTreeMap::new(),
            port_config: BTreeMap::new(),
        }
    }

    /// Attach a fiber link as a new degree; returns the degree id.
    pub fn add_degree(&mut self, fiber: FiberId) -> DegreeId {
        let d = DegreeId::from_index(self.degrees.len());
        self.degrees.push(fiber);
        self.degree_masks.push(0);
        d
    }

    /// Add a colorless, non-directional add/drop port.
    pub fn add_port(&mut self) -> PortId {
        self.add_constrained_port(None, None)
    }

    /// Add a port with legacy constraints (for ablation studies):
    /// `fixed_wavelength` makes it colored, `fixed_degree` directional.
    pub(crate) fn add_constrained_port(
        &mut self,
        fixed_wavelength: Option<Wavelength>,
        fixed_degree: Option<DegreeId>,
    ) -> PortId {
        let p = PortId::from_index(self.ports.len());
        self.ports.push(AddDropPort {
            attached: None,
            fixed_wavelength,
            fixed_degree,
        });
        p
    }

    /// Number of degrees ("a 3-degree ROADM").
    pub fn degree_count(&self) -> usize {
        self.degrees.len()
    }

    /// Number of add/drop ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The fiber link behind a degree.
    pub fn fiber_of(&self, d: DegreeId) -> Result<FiberId, RoadmError> {
        self.degrees
            .get(d.index())
            .copied()
            .ok_or(RoadmError::NoSuchDegree(d))
    }

    /// The degree facing a given fiber link, if this node touches it.
    pub fn degree_to(&self, fiber: FiberId) -> Option<DegreeId> {
        self.degrees
            .iter()
            .position(|f| *f == fiber)
            .map(DegreeId::from_index)
    }

    /// Plug a transponder's client fiber into a port.
    ///
    /// # Panics
    /// If the port does not exist or already has a transponder.
    pub fn attach_transponder(&mut self, port: PortId, ot: TransponderId) {
        let p = self
            .ports
            .get_mut(port.index())
            .unwrap_or_else(|| panic!("no such port {port}"));
        assert!(p.attached.is_none(), "{port} already has a transponder");
        p.attached = Some(ot);
    }

    /// Is `w` unused on degree `d`?
    pub fn lambda_free(&self, d: DegreeId, w: Wavelength) -> bool {
        let free = self.occupancy_mask(d) & (1u128 << w.index()) == 0;
        debug_assert_eq!(free, !self.lambda_use.contains_key(&(d, w)));
        free
    }

    /// Occupancy bitmask of degree `d`: bit *i* set ⇔ channel *i* lit.
    /// An unknown degree reads as all-dark.
    pub(crate) fn occupancy_mask(&self, d: DegreeId) -> u128 {
        self.degree_masks.get(d.index()).copied().unwrap_or(0)
    }

    /// Free-channel bitmask of degree `d`: bit *i* set ⇔ channel *i* is
    /// on-grid and unlit. The AND of these masks along a path is the set
    /// of wavelengths satisfying the continuity constraint.
    pub fn free_mask(&self, d: DegreeId) -> u128 {
        !self.occupancy_mask(d) & self.grid.channel_mask()
    }

    fn mark_lit(&mut self, d: DegreeId, w: Wavelength) {
        self.degree_masks[d.index()] |= 1u128 << w.index();
    }

    fn mark_dark(&mut self, d: DegreeId, w: Wavelength) {
        self.degree_masks[d.index()] &= !(1u128 << w.index());
    }

    /// Current use of `(d, w)` if configured.
    pub(crate) fn lambda_usage(&self, d: DegreeId, w: Wavelength) -> Option<LambdaUse> {
        self.lambda_use.get(&(d, w)).copied()
    }

    /// Express `w` between two distinct degrees.
    pub fn connect_express(
        &mut self,
        w: Wavelength,
        d1: DegreeId,
        d2: DegreeId,
    ) -> Result<(), RoadmError> {
        self.check_grid(w)?;
        self.check_degree(d1)?;
        self.check_degree(d2)?;
        if d1 == d2 {
            return Err(RoadmError::DegenerateExpress);
        }
        if !self.lambda_free(d1, w) {
            return Err(RoadmError::WavelengthInUse(w, d1));
        }
        if !self.lambda_free(d2, w) {
            return Err(RoadmError::WavelengthInUse(w, d2));
        }
        self.lambda_use
            .insert((d1, w), LambdaUse::Express { other: d2 });
        self.lambda_use
            .insert((d2, w), LambdaUse::Express { other: d1 });
        self.mark_lit(d1, w);
        self.mark_lit(d2, w);
        Ok(())
    }

    /// Remove an express configuration.
    pub fn disconnect_express(
        &mut self,
        w: Wavelength,
        d1: DegreeId,
        d2: DegreeId,
    ) -> Result<(), RoadmError> {
        match (self.lambda_use.get(&(d1, w)), self.lambda_use.get(&(d2, w))) {
            (Some(LambdaUse::Express { other: o1 }), Some(LambdaUse::Express { other: o2 }))
                if *o1 == d2 && *o2 == d1 =>
            {
                self.lambda_use.remove(&(d1, w));
                self.lambda_use.remove(&(d2, w));
                self.mark_dark(d1, w);
                self.mark_dark(d2, w);
                Ok(())
            }
            _ => Err(RoadmError::NotConfigured),
        }
    }

    /// Add/drop `w` on degree `d` through `port` (bidirectionally: the
    /// attached OT both transmits into and receives from the degree).
    pub fn connect_add_drop(
        &mut self,
        port: PortId,
        w: Wavelength,
        d: DegreeId,
    ) -> Result<(), RoadmError> {
        self.check_grid(w)?;
        self.check_degree(d)?;
        let p = self
            .ports
            .get(port.index())
            .ok_or(RoadmError::NoSuchPort(port))?;
        if self.port_config.contains_key(&port) {
            return Err(RoadmError::PortInUse(port));
        }
        if let Some(fw) = p.fixed_wavelength {
            if fw != w {
                return Err(RoadmError::PortWrongColor(port, w));
            }
        }
        if let Some(fd) = p.fixed_degree {
            if fd != d {
                return Err(RoadmError::PortWrongDegree(port, d));
            }
        }
        if !self.lambda_free(d, w) {
            return Err(RoadmError::WavelengthInUse(w, d));
        }
        self.lambda_use.insert((d, w), LambdaUse::AddDrop { port });
        self.mark_lit(d, w);
        self.port_config.insert(port, (w, d));
        Ok(())
    }

    /// Tear down the add/drop configuration on `port`.
    pub fn disconnect_add_drop(&mut self, port: PortId) -> Result<(), RoadmError> {
        let (w, d) = self
            .port_config
            .remove(&port)
            .ok_or(RoadmError::NotConfigured)?;
        let removed = self.lambda_use.remove(&(d, w));
        debug_assert_eq!(removed, Some(LambdaUse::AddDrop { port }));
        self.mark_dark(d, w);
        Ok(())
    }

    /// Count of lit wavelengths on a degree (for equalization cost and
    /// utilization reporting).
    pub fn lit_count(&self, d: DegreeId) -> usize {
        let n = self.occupancy_mask(d).count_ones() as usize;
        debug_assert_eq!(n, self.lambda_use.keys().filter(|(kd, _)| *kd == d).count());
        n
    }

    /// Every `(degree, wavelength, use)` currently configured.
    pub(crate) fn configurations(
        &self,
    ) -> impl Iterator<Item = (DegreeId, Wavelength, LambdaUse)> + '_ {
        self.lambda_use.iter().map(|((d, w), u)| (*d, *w, *u))
    }

    /// Estimated heap bytes behind this node: degree tables, occupancy
    /// masks, add/drop ports, and the per-λ usage maps (B-tree nodes
    /// approximated at 32 bytes of overhead per entry). A capacity-planning
    /// estimate, not an allocator measurement.
    pub fn memory_footprint(&self) -> usize {
        use std::mem::size_of;
        self.degrees.capacity() * size_of::<FiberId>()
            + self.degree_masks.capacity() * size_of::<u128>()
            + self.ports.capacity() * size_of::<AddDropPort>()
            + self.lambda_use.len()
                * (size_of::<(DegreeId, Wavelength)>() + size_of::<LambdaUse>() + 32)
            + self.port_config.len()
                * (size_of::<PortId>() + size_of::<(Wavelength, DegreeId)>() + 32)
    }

    fn check_degree(&self, d: DegreeId) -> Result<(), RoadmError> {
        if d.index() < self.degrees.len() {
            Ok(())
        } else {
            Err(RoadmError::NoSuchDegree(d))
        }
    }

    fn check_grid(&self, w: Wavelength) -> Result<(), RoadmError> {
        if self.grid.contains(w) {
            Ok(())
        } else {
            Err(RoadmError::OffGrid(w))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_degree() -> (Roadm, DegreeId, DegreeId, DegreeId, PortId) {
        let mut r = Roadm::new(RoadmId::new(0), ChannelGrid::C_BAND_80);
        let d0 = r.add_degree(FiberId::new(0));
        let d1 = r.add_degree(FiberId::new(1));
        let d2 = r.add_degree(FiberId::new(2));
        let p = r.add_port();
        r.attach_transponder(p, TransponderId::new(0));
        (r, d0, d1, d2, p)
    }

    #[test]
    fn express_both_directions_block_lambda() {
        let (mut r, d0, d1, d2, _) = three_degree();
        let w = Wavelength(5);
        r.connect_express(w, d0, d1).unwrap();
        assert!(!r.lambda_free(d0, w));
        assert!(!r.lambda_free(d1, w));
        assert!(r.lambda_free(d2, w));
        assert_eq!(
            r.lambda_usage(d0, w),
            Some(LambdaUse::Express { other: d1 })
        );
    }

    #[test]
    fn conflicting_express_rejected() {
        let (mut r, d0, d1, d2, _) = three_degree();
        let w = Wavelength(5);
        r.connect_express(w, d0, d1).unwrap();
        assert_eq!(
            r.connect_express(w, d1, d2),
            Err(RoadmError::WavelengthInUse(w, d1))
        );
        // A different wavelength on the same degrees is fine.
        r.connect_express(Wavelength(6), d1, d2).unwrap();
    }

    #[test]
    fn express_requires_distinct_degrees() {
        let (mut r, d0, _, _, _) = three_degree();
        assert_eq!(
            r.connect_express(Wavelength(0), d0, d0),
            Err(RoadmError::DegenerateExpress)
        );
    }

    #[test]
    fn disconnect_express_frees_lambda() {
        let (mut r, d0, d1, _, _) = three_degree();
        let w = Wavelength(5);
        r.connect_express(w, d0, d1).unwrap();
        r.disconnect_express(w, d0, d1).unwrap();
        assert!(r.lambda_free(d0, w));
        assert!(r.lambda_free(d1, w));
        assert_eq!(
            r.disconnect_express(w, d0, d1),
            Err(RoadmError::NotConfigured)
        );
    }

    #[test]
    fn add_drop_lifecycle() {
        let (mut r, d0, _, _, p) = three_degree();
        let w = Wavelength(10);
        r.connect_add_drop(p, w, d0).unwrap();
        assert_eq!(r.port_config.get(&p).copied(), Some((w, d0)));
        assert!(!r.lambda_free(d0, w));
        assert_eq!(r.lambda_usage(d0, w), Some(LambdaUse::AddDrop { port: p }));
        r.disconnect_add_drop(p).unwrap();
        assert!(r.lambda_free(d0, w));
        assert_eq!(r.port_config.get(&p).copied(), None);
    }

    #[test]
    fn port_in_use_rejected() {
        let (mut r, d0, d1, _, p) = three_degree();
        r.connect_add_drop(p, Wavelength(1), d0).unwrap();
        assert_eq!(
            r.connect_add_drop(p, Wavelength(2), d1),
            Err(RoadmError::PortInUse(p))
        );
    }

    #[test]
    fn add_drop_conflicts_with_express() {
        let (mut r, d0, d1, _, p) = three_degree();
        let w = Wavelength(3);
        r.connect_express(w, d0, d1).unwrap();
        assert_eq!(
            r.connect_add_drop(p, w, d0),
            Err(RoadmError::WavelengthInUse(w, d0))
        );
    }

    #[test]
    fn colored_port_rejects_other_wavelengths() {
        let (mut r, d0, _, _, _) = three_degree();
        let colored = r.add_constrained_port(Some(Wavelength(7)), None);
        r.attach_transponder(colored, TransponderId::new(1));
        assert_eq!(
            r.connect_add_drop(colored, Wavelength(8), d0),
            Err(RoadmError::PortWrongColor(colored, Wavelength(8)))
        );
        r.connect_add_drop(colored, Wavelength(7), d0).unwrap();
    }

    #[test]
    fn directional_port_rejects_other_degrees() {
        let (mut r, d0, d1, _, _) = three_degree();
        let fixed = r.add_constrained_port(None, Some(d1));
        r.attach_transponder(fixed, TransponderId::new(1));
        assert_eq!(
            r.connect_add_drop(fixed, Wavelength(0), d0),
            Err(RoadmError::PortWrongDegree(fixed, d0))
        );
        r.connect_add_drop(fixed, Wavelength(0), d1).unwrap();
    }

    #[test]
    fn off_grid_rejected() {
        let (mut r, d0, d1, _, _) = three_degree();
        assert_eq!(
            r.connect_express(Wavelength(200), d0, d1),
            Err(RoadmError::OffGrid(Wavelength(200)))
        );
    }

    #[test]
    fn degree_lookup() {
        let (r, d0, _, _, _) = three_degree();
        assert_eq!(r.degree_to(FiberId::new(0)), Some(d0));
        assert_eq!(r.degree_to(FiberId::new(9)), None);
        assert_eq!(r.fiber_of(d0).unwrap(), FiberId::new(0));
        assert!(r.fiber_of(DegreeId::new(9)).is_err());
        assert_eq!(r.degree_count(), 3);
    }

    #[test]
    fn occupancy_masks_mirror_lambda_use() {
        let (mut r, d0, d1, d2, p) = three_degree();
        assert_eq!(r.occupancy_mask(d0), 0);
        assert_eq!(r.free_mask(d0), r.grid.channel_mask());
        r.connect_express(Wavelength(5), d0, d1).unwrap();
        r.connect_add_drop(p, Wavelength(2), d0).unwrap();
        assert_eq!(r.occupancy_mask(d0), (1 << 5) | (1 << 2));
        assert_eq!(r.occupancy_mask(d1), 1 << 5);
        assert_eq!(r.occupancy_mask(d2), 0);
        assert_eq!(
            r.free_mask(d0),
            r.grid.channel_mask() & !((1 << 5) | (1 << 2))
        );
        r.disconnect_express(Wavelength(5), d0, d1).unwrap();
        r.disconnect_add_drop(p).unwrap();
        assert_eq!(r.occupancy_mask(d0), 0);
        assert_eq!(r.occupancy_mask(d1), 0);
        // Unknown degrees read all-dark / fully-free-on-grid.
        assert_eq!(r.occupancy_mask(DegreeId::new(99)), 0);
        assert_eq!(r.free_mask(DegreeId::new(99)), r.grid.channel_mask());
    }

    #[test]
    fn lit_count_tracks_configuration() {
        let (mut r, d0, d1, _, p) = three_degree();
        assert_eq!(r.lit_count(d0), 0);
        r.connect_express(Wavelength(1), d0, d1).unwrap();
        r.connect_add_drop(p, Wavelength(2), d0).unwrap();
        assert_eq!(r.lit_count(d0), 2);
        assert_eq!(r.lit_count(d1), 1);
        assert_eq!(r.configurations().count(), 3);
    }
}
