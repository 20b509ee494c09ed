//! The OTN cross-connect switch.
//!
//! An [`OtnSwitch`] sits at a core PoP. Its *client ports* face customer
//! access pipes (via the FXC); its *line ports* each ride one wavelength
//! of the DWDM layer and expose that wavelength's high-order ODU as a
//! pool of 1.25 G tributary slots. The fabric cross-connects low-order
//! ODUs between any two ports: client→line (add/drop) or line→line
//! (transit grooming — the capability muxponders lack and the reason the
//! OTN layer "can achieve more efficient packing of wavelengths in the
//! transport network", §2.1).
//!
//! Tributary-slot allocation is first-fit over arbitrary slot sets
//! (G.709 does not require contiguity). The fabric itself has a total
//! switching capacity; admission beyond it is refused, modelling the
//! "higher switching capacity and better scalability" axis the paper
//! contrasts with Broadband DCS.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate};

use photonic::{LineRate, RoadmId};

use crate::odu::{ClientSignal, OduRate};

define_id!(
    /// Identifier of an OTN switch.
    OtnSwitchId,
    "otnsw"
);

define_id!(
    /// A line port of a specific OTN switch (local numbering).
    LinePortId,
    "lp"
);

define_id!(
    /// A client port of a specific OTN switch (local numbering).
    ClientPortId,
    "cp"
);

define_id!(
    /// One low-order ODU cross-connect within a switch.
    XcId,
    "xc"
);

/// Newtype tying a line port to the photonic line rate backing it
/// (used by [`OduRate::for_line_rate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct WavelengthLineRate(pub LineRate);

/// One endpoint of a cross-connect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum XcEndpoint {
    /// A client port (the whole port).
    Client(ClientPortId),
    /// A set of tributary slots on a line port.
    Line {
        /// The line port.
        port: LinePortId,
        /// The allocated slot indices.
        ts: Vec<usize>,
    },
}

/// A low-order ODU cross-connect through the fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CrossConnect {
    /// This cross-connect's id.
    pub id: XcId,
    /// The low-order container being switched.
    pub rate: OduRate,
    /// One side.
    pub a: XcEndpoint,
    /// The other side.
    pub b: XcEndpoint,
}

/// Why the switch refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// No such client port.
    NoSuchClientPort(ClientPortId),
    /// No such line port.
    NoSuchLinePort(LinePortId),
    /// The client port is already cross-connected.
    ClientPortBusy(ClientPortId),
    /// Not enough free tributary slots on the line port.
    InsufficientTs {
        /// The port that ran out.
        port: LinePortId,
        /// Slots requested.
        needed: usize,
        /// Slots free.
        free: usize,
    },
    /// The low-order rate does not fit the client's mapped ODU.
    RateMismatch {
        /// What the client maps to.
        expected: OduRate,
        /// What was requested.
        got: OduRate,
    },
    /// Admitting this would exceed the fabric's switching capacity.
    FabricFull,
    /// No such cross-connect.
    NoSuchXc(XcId),
    /// Line-to-line cross-connects need two distinct ports.
    SamePort(LinePortId),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::NoSuchClientPort(p) => write!(f, "no such client port {p}"),
            SwitchError::NoSuchLinePort(p) => write!(f, "no such line port {p}"),
            SwitchError::ClientPortBusy(p) => write!(f, "client port {p} busy"),
            SwitchError::InsufficientTs { port, needed, free } => {
                write!(f, "{port}: need {needed} TS, {free} free")
            }
            SwitchError::RateMismatch { expected, got } => {
                write!(f, "rate mismatch: expected {expected}, got {got}")
            }
            SwitchError::FabricFull => write!(f, "fabric capacity exhausted"),
            SwitchError::NoSuchXc(x) => write!(f, "no such cross-connect {x}"),
            SwitchError::SamePort(p) => write!(f, "cannot cross-connect {p} to itself"),
        }
    }
}

impl std::error::Error for SwitchError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClientPort {
    signal: ClientSignal,
    xc: Option<XcId>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LinePort {
    /// High-order container (from the backing wavelength's rate).
    ho: OduRate,
    /// Slot occupancy: `Some(xc)` = held by that cross-connect.
    ts: Vec<Option<XcId>>,
}

/// An OTN cross-connect switch at one node.
///
/// ```
/// use otn::{ClientSignal, OtnSwitch};
/// use otn::switch::OtnSwitchId;
/// use photonic::{LineRate, RoadmId};
/// use simcore::DataRate;
///
/// let mut sw = OtnSwitch::new(OtnSwitchId::new(0), RoadmId::new(0), DataRate::from_gbps(320));
/// let client = sw.add_client_port(ClientSignal::GbE);
/// let line = sw.add_line_port(LineRate::Gbps10); // an ODU2: 8 tributary slots
/// let xc = sw.connect_client_to_line(client, line).unwrap();
/// assert_eq!(sw.free_ts(line), 7);
/// sw.disconnect(xc).unwrap();
/// assert_eq!(sw.free_ts(line), 8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OtnSwitch {
    /// This switch's id.
    pub id: OtnSwitchId,
    /// The core PoP (ROADM node) it is collocated with.
    pub location: RoadmId,
    clients: Vec<ClientPort>,
    lines: Vec<LinePort>,
    xcs: BTreeMap<XcId, CrossConnect>,
    next_xc: u32,
    /// Total fabric switching capacity.
    pub fabric_capacity: DataRate,
}

impl OtnSwitch {
    /// A switch with the given fabric capacity and no ports.
    pub fn new(id: OtnSwitchId, location: RoadmId, fabric_capacity: DataRate) -> OtnSwitch {
        OtnSwitch {
            id,
            location,
            clients: Vec::new(),
            lines: Vec::new(),
            xcs: BTreeMap::new(),
            next_xc: 0,
            fabric_capacity,
        }
    }

    /// Add a client port accepting `signal`.
    pub fn add_client_port(&mut self, signal: ClientSignal) -> ClientPortId {
        self.clients.push(ClientPort { signal, xc: None });
        ClientPortId::from_index(self.clients.len() - 1)
    }

    /// Add a line port backed by a wavelength of `rate`.
    pub fn add_line_port(&mut self, rate: LineRate) -> LinePortId {
        let ho = OduRate::for_line_rate(WavelengthLineRate(rate));
        self.lines.push(LinePort {
            ho,
            ts: vec![None; ho.ts_capacity()],
        });
        LinePortId::from_index(self.lines.len() - 1)
    }

    /// Active cross-connect count.
    pub fn xc_count(&self) -> usize {
        self.xcs.len()
    }

    /// Free tributary slots on a line port.
    pub fn free_ts(&self, port: LinePortId) -> usize {
        self.lines
            .get(port.index())
            .map(|l| l.ts.iter().filter(|s| s.is_none()).count())
            .unwrap_or(0)
    }

    /// Total slots a line port offers.
    pub fn total_ts(&self, port: LinePortId) -> usize {
        self.lines
            .get(port.index())
            .map(|l| l.ts.len())
            .unwrap_or(0)
    }

    /// Is the client port free?
    pub(crate) fn client_free(&self, port: ClientPortId) -> bool {
        self.clients
            .get(port.index())
            .map(|c| c.xc.is_none())
            .unwrap_or(false)
    }

    /// Bandwidth currently switched through the fabric.
    pub fn fabric_used(&self) -> DataRate {
        self.xcs.values().map(|x| x.rate.payload()).sum()
    }

    /// Add/drop: cross-connect a client port onto tributary slots of a
    /// line port. The low-order rate is the client's standard mapping.
    pub fn connect_client_to_line(
        &mut self,
        client: ClientPortId,
        line: LinePortId,
    ) -> Result<XcId, SwitchError> {
        let signal = self
            .clients
            .get(client.index())
            .ok_or(SwitchError::NoSuchClientPort(client))?
            .signal;
        if !self.client_free(client) {
            return Err(SwitchError::ClientPortBusy(client));
        }
        let rate = signal.odu_mapping();
        self.check_fabric(rate)?;
        let id = self.fresh_xc();
        let ts = self.alloc_ts(line, rate.ts_needed(), id)?;
        self.clients[client.index()].xc = Some(id);
        self.xcs.insert(
            id,
            CrossConnect {
                id,
                rate,
                a: XcEndpoint::Client(client),
                b: XcEndpoint::Line { port: line, ts },
            },
        );
        Ok(id)
    }

    /// Transit grooming: cross-connect a low-order ODU between slots of
    /// two distinct line ports.
    pub fn connect_line_to_line(
        &mut self,
        a: LinePortId,
        b: LinePortId,
        rate: OduRate,
    ) -> Result<XcId, SwitchError> {
        if a == b {
            return Err(SwitchError::SamePort(a));
        }
        self.check_fabric(rate)?;
        let id = self.fresh_xc();
        let ts_a = self.alloc_ts(a, rate.ts_needed(), id)?;
        let ts_b = match self.alloc_ts(b, rate.ts_needed(), id) {
            Ok(ts) => ts,
            Err(e) => {
                // roll back the first allocation
                self.release_ts(a, id);
                return Err(e);
            }
        };
        self.xcs.insert(
            id,
            CrossConnect {
                id,
                rate,
                a: XcEndpoint::Line { port: a, ts: ts_a },
                b: XcEndpoint::Line { port: b, ts: ts_b },
            },
        );
        Ok(id)
    }

    /// Remove a cross-connect, freeing its slots and client port.
    pub fn disconnect(&mut self, xc: XcId) -> Result<(), SwitchError> {
        let x = self.xcs.remove(&xc).ok_or(SwitchError::NoSuchXc(xc))?;
        for ep in [&x.a, &x.b] {
            match ep {
                XcEndpoint::Client(c) => {
                    self.clients[c.index()].xc = None;
                }
                XcEndpoint::Line { port, .. } => {
                    self.release_ts(*port, xc);
                }
            }
        }
        Ok(())
    }

    fn fresh_xc(&mut self) -> XcId {
        let id = XcId::new(self.next_xc);
        self.next_xc += 1;
        id
    }

    fn check_fabric(&self, rate: OduRate) -> Result<(), SwitchError> {
        if self.fabric_used() + rate.payload() > self.fabric_capacity {
            Err(SwitchError::FabricFull)
        } else {
            Ok(())
        }
    }

    fn alloc_ts(
        &mut self,
        port: LinePortId,
        n: usize,
        owner: XcId,
    ) -> Result<Vec<usize>, SwitchError> {
        let line = self
            .lines
            .get_mut(port.index())
            .ok_or(SwitchError::NoSuchLinePort(port))?;
        let free: Vec<usize> = line
            .ts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        if free.len() < n {
            return Err(SwitchError::InsufficientTs {
                port,
                needed: n,
                free: free.len(),
            });
        }
        let picked: Vec<usize> = free.into_iter().take(n).collect();
        for i in &picked {
            line.ts[*i] = Some(owner);
        }
        Ok(picked)
    }

    fn release_ts(&mut self, port: LinePortId, owner: XcId) {
        for slot in &mut self.lines[port.index()].ts {
            if *slot == Some(owner) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch() -> OtnSwitch {
        OtnSwitch::new(
            OtnSwitchId::new(0),
            RoadmId::new(0),
            DataRate::from_gbps(320),
        )
    }

    #[test]
    fn client_add_drop_allocates_slots() {
        let mut s = switch();
        let c = s.add_client_port(ClientSignal::GbE);
        let l = s.add_line_port(LineRate::Gbps10);
        assert_eq!(s.total_ts(l), 8);
        let xc = s.connect_client_to_line(c, l).unwrap();
        assert_eq!(s.free_ts(l), 7);
        assert!(!s.client_free(c));
        assert_eq!(s.xcs[&xc].rate, OduRate::Odu0);
        s.disconnect(xc).unwrap();
        assert_eq!(s.free_ts(l), 8);
        assert!(s.client_free(c));
    }

    #[test]
    fn ten_gig_client_fills_odu2_line() {
        let mut s = switch();
        let c = s.add_client_port(ClientSignal::TenGbE);
        let l = s.add_line_port(LineRate::Gbps10);
        s.connect_client_to_line(c, l).unwrap();
        assert_eq!(s.free_ts(l), 0);
        // A second client cannot fit.
        let c2 = s.add_client_port(ClientSignal::GbE);
        assert!(matches!(
            s.connect_client_to_line(c2, l),
            Err(SwitchError::InsufficientTs {
                needed: 1,
                free: 0,
                ..
            })
        ));
    }

    #[test]
    fn odu3_line_takes_thirty_two_gbe() {
        let mut s = switch();
        let l = s.add_line_port(LineRate::Gbps40);
        assert_eq!(s.total_ts(l), 32);
        for _ in 0..32 {
            let c = s.add_client_port(ClientSignal::GbE);
            s.connect_client_to_line(c, l).unwrap();
        }
        assert_eq!(s.free_ts(l), 0);
        assert_eq!(s.xc_count(), 32);
    }

    #[test]
    fn busy_client_rejected() {
        let mut s = switch();
        let c = s.add_client_port(ClientSignal::GbE);
        let l = s.add_line_port(LineRate::Gbps10);
        s.connect_client_to_line(c, l).unwrap();
        assert_eq!(
            s.connect_client_to_line(c, l),
            Err(SwitchError::ClientPortBusy(c))
        );
    }

    #[test]
    fn line_to_line_grooming_and_rollback() {
        let mut s = switch();
        let l1 = s.add_line_port(LineRate::Gbps10);
        let l2 = s.add_line_port(LineRate::Gbps10);
        let xc = s.connect_line_to_line(l1, l2, OduRate::Odu1).unwrap();
        assert_eq!(s.free_ts(l1), 6);
        assert_eq!(s.free_ts(l2), 6);
        // Fill l2 completely, then a transit attempt must roll back l1.
        let big = s.add_client_port(ClientSignal::GbE);
        for _ in 0..6 {
            let c = s.add_client_port(ClientSignal::GbE);
            s.connect_client_to_line(c, l2).unwrap();
        }
        let _ = big;
        let before = s.free_ts(l1);
        assert!(s.connect_line_to_line(l1, l2, OduRate::Odu1).is_err());
        assert_eq!(s.free_ts(l1), before, "failed attempt must not leak TS");
        s.disconnect(xc).unwrap();
        assert_eq!(s.free_ts(l1), 8);
    }

    #[test]
    fn same_port_rejected() {
        let mut s = switch();
        let l = s.add_line_port(LineRate::Gbps10);
        assert_eq!(
            s.connect_line_to_line(l, l, OduRate::Odu0),
            Err(SwitchError::SamePort(l))
        );
    }

    #[test]
    fn fabric_capacity_enforced() {
        let mut s = OtnSwitch::new(OtnSwitchId::new(0), RoadmId::new(0), DataRate::from_gbps(2));
        let l = s.add_line_port(LineRate::Gbps10);
        let c1 = s.add_client_port(ClientSignal::GbE);
        let c2 = s.add_client_port(ClientSignal::GbE);
        s.connect_client_to_line(c1, l).unwrap();
        // 1.244 + 1.244 > 2 G fabric.
        assert_eq!(
            s.connect_client_to_line(c2, l),
            Err(SwitchError::FabricFull)
        );
        assert_eq!(s.fabric_used(), OduRate::Odu0.payload());
    }

    #[test]
    fn errors_on_unknown_ids() {
        let mut s = switch();
        let c = s.add_client_port(ClientSignal::GbE);
        assert_eq!(
            s.connect_client_to_line(c, LinePortId::new(7)),
            Err(SwitchError::NoSuchLinePort(LinePortId::new(7)))
        );
        assert_eq!(
            s.connect_client_to_line(ClientPortId::new(9), LinePortId::new(0)),
            Err(SwitchError::NoSuchClientPort(ClientPortId::new(9)))
        );
        assert_eq!(
            s.disconnect(XcId::new(5)),
            Err(SwitchError::NoSuchXc(XcId::new(5)))
        );
    }
}
