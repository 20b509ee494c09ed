//! The client-side fiber cross-connect (FXC).
//!
//! §2.2: *"a client-side switch allows for dynamic sharing of
//! transponders … the low cost, small footprint, and low-power consumption
//! of a fiber-cross-connect makes it an attractive technology.
//! Unfortunately, an FXC is incapable of grooming traffic."*
//!
//! The FXC is a purely spatial switch: it maps one port to one other port
//! (a photonic patch panel under software control) and cannot inspect,
//! multiplex, or rate-convert what flows through. Under the GRIPhoN
//! controller it steers a customer's access-pipe signal either to an OT
//! (to ride the DWDM layer directly) or to an OTN switch port (to be
//! groomed with other sub-wavelength signals).
//!
//! Port semantics: every `FxcPort` has a label describing what is
//! cabled to it; connecting two ports creates a bidirectional light path
//! between those cables. Both the label vocabulary and the validation are
//! deliberately open — the FXC itself cannot tell what it is switching,
//! which is exactly the property that makes it cheap.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use simcore::define_id;

define_id!(
    /// Identifier of a fiber cross-connect.
    FxcId,
    "fxc"
);

/// One FXC port and what is cabled into it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FxcPort {
    /// Free-form description of the attached cable
    /// (e.g. `"access:dc1"`, `"ot:ot3"`, `"otn:sw0/p2"`).
    pub label: String,
}

/// Errors from FXC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FxcError {
    /// Port index out of range.
    NoSuchPort(usize),
    /// The port already carries a cross-connection.
    PortBusy(usize),
    /// A port cannot be connected to itself.
    SelfConnection(usize),
    /// Tried to remove a connection that is not present.
    NotConnected(usize),
}

impl fmt::Display for FxcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FxcError::NoSuchPort(p) => write!(f, "no such FXC port {p}"),
            FxcError::PortBusy(p) => write!(f, "FXC port {p} busy"),
            FxcError::SelfConnection(p) => write!(f, "FXC port {p} cannot loop to itself"),
            FxcError::NotConnected(p) => write!(f, "FXC port {p} not connected"),
        }
    }
}

impl std::error::Error for FxcError {}

/// A fiber cross-connect: a software-controlled optical patch panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fxc {
    /// This FXC's id.
    pub id: FxcId,
    ports: Vec<FxcPort>,
    /// Symmetric map: if `a → b` then `b → a`.
    cross: BTreeMap<usize, usize>,
}

impl Fxc {
    /// An FXC with no ports.
    pub fn new(id: FxcId) -> Fxc {
        Fxc {
            id,
            ports: Vec::new(),
            cross: BTreeMap::new(),
        }
    }

    /// Add a port; returns its index.
    pub fn add_port(&mut self, label: impl Into<String>) -> usize {
        self.ports.push(FxcPort {
            label: label.into(),
        });
        self.ports.len() - 1
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Find the first port whose label equals `label`.
    pub fn port_by_label(&self, label: &str) -> Option<usize> {
        self.ports.iter().position(|p| p.label == label)
    }

    /// Cross-connect two distinct free ports.
    pub fn connect(&mut self, a: usize, b: usize) -> Result<(), FxcError> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(FxcError::SelfConnection(a));
        }
        if self.cross.contains_key(&a) {
            return Err(FxcError::PortBusy(a));
        }
        if self.cross.contains_key(&b) {
            return Err(FxcError::PortBusy(b));
        }
        self.cross.insert(a, b);
        self.cross.insert(b, a);
        Ok(())
    }

    /// Remove the cross-connection touching `port`.
    pub fn disconnect(&mut self, port: usize) -> Result<(), FxcError> {
        self.check(port)?;
        let other = self
            .cross
            .remove(&port)
            .ok_or(FxcError::NotConnected(port))?;
        let back = self.cross.remove(&other);
        debug_assert_eq!(back, Some(port));
        Ok(())
    }

    /// What `port` is connected to, if anything.
    pub fn peer(&self, port: usize) -> Option<usize> {
        self.cross.get(&port).copied()
    }

    /// Is the port free?
    pub fn is_free(&self, port: usize) -> bool {
        !self.cross.contains_key(&port)
    }

    /// Number of active cross-connections (pairs).
    pub fn connections(&self) -> usize {
        self.cross.len() / 2
    }

    fn check(&self, port: usize) -> Result<(), FxcError> {
        if port < self.ports.len() {
            Ok(())
        } else {
            Err(FxcError::NoSuchPort(port))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fxc3() -> Fxc {
        let mut f = Fxc::new(FxcId::new(0));
        f.add_port("access:dc1");
        f.add_port("ot:ot0");
        f.add_port("otn:sw0/p0");
        f
    }

    #[test]
    fn connect_is_symmetric() {
        let mut f = fxc3();
        f.connect(0, 1).unwrap();
        assert_eq!(f.peer(0), Some(1));
        assert_eq!(f.peer(1), Some(0));
        assert_eq!(f.peer(2), None);
        assert_eq!(f.connections(), 1);
    }

    #[test]
    fn busy_port_rejected() {
        let mut f = fxc3();
        f.connect(0, 1).unwrap();
        assert_eq!(f.connect(0, 2), Err(FxcError::PortBusy(0)));
        assert_eq!(f.connect(2, 1), Err(FxcError::PortBusy(1)));
    }

    #[test]
    fn reroute_via_disconnect() {
        // The controller's layer steering: access pipe moves from the OT
        // (wavelength service) to the OTN switch (sub-wavelength service).
        let mut f = fxc3();
        f.connect(0, 1).unwrap();
        f.disconnect(0).unwrap();
        assert!(f.is_free(1));
        f.connect(0, 2).unwrap();
        assert_eq!(f.peer(0), Some(2));
    }

    #[test]
    fn disconnect_from_either_side() {
        let mut f = fxc3();
        f.connect(0, 1).unwrap();
        f.disconnect(1).unwrap();
        assert!(f.is_free(0));
        assert_eq!(f.disconnect(1), Err(FxcError::NotConnected(1)));
    }

    #[test]
    fn self_connection_rejected() {
        let mut f = fxc3();
        assert_eq!(f.connect(1, 1), Err(FxcError::SelfConnection(1)));
    }

    #[test]
    fn bad_port_rejected() {
        let mut f = fxc3();
        assert_eq!(f.connect(0, 9), Err(FxcError::NoSuchPort(9)));
        assert_eq!(f.disconnect(9), Err(FxcError::NoSuchPort(9)));
    }

    #[test]
    fn label_lookup() {
        let f = fxc3();
        assert_eq!(f.port_by_label("ot:ot0"), Some(1));
        assert_eq!(f.port_by_label("nope"), None);
        assert_eq!(f.ports[2].label, "otn:sw0/p0");
        assert_eq!(f.port_count(), 3);
    }
}
