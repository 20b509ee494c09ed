//! # otn — the sub-wavelength electronic switching layer
//!
//! GRIPhoN's OTN layer (§2.1–2.2 of the paper): ITU G.709 Optical
//! Transport Network switches that cross-connect at ODU0 (1.25 Gbps)
//! granularity, riding on the DWDM layer. The OTN layer is what lets the
//! carrier sell a 1 G circuit without burning a 10–40 G wavelength on it,
//! and is one half of the composite-rate trick the paper highlights
//! (2×1G OTN + 1×10G λ = 12 G instead of a second 10 G wavelength).
//!
//! ## Modules
//!
//! - [`odu`] — the ODU multiplexing hierarchy: rates, tributary-slot
//!   capacities, client-signal mappings.
//! - [`switch`] — the OTN cross-connect fabric: client ports, line ports
//!   (each backed by a wavelength), tributary-slot allocation.
//! - [`grooming`] — packing sub-wavelength demands into wavelengths;
//!   implements both per-link OTN grooming and the muxponder-only
//!   baseline it is compared against (experiment E6).
//! - [`restoration`] — sub-second shared-mesh restoration with shared
//!   backup tributary pools ("similar to today's SONET layer", §2.1).
//! - [`sonet`] — the legacy SONET/VCAT layer: STS-1 granularity, ring
//!   protection, and the ≤622 Mbps BoD ceiling of "today's reality"
//!   (Table 1's middle column).
//! - [`wdcs`] — the n×DS1 wideband layer at the top of Fig. 1's stack,
//!   the lowest-rate guaranteed-bandwidth service.

#![deny(missing_docs)]

pub mod grooming;
pub mod odu;
pub mod restoration;
pub mod sonet;
pub mod switch;
pub mod wdcs;

pub use grooming::{Demand, MuxponderPacker, OtnGroomer};
pub use odu::{ClientSignal, OduRate};
pub use restoration::{MeshRestoration, RestorationOutcome};
pub use sonet::SonetNetwork;
pub use switch::{LinePortId, OtnSwitch, SwitchError, XcId};
pub use wdcs::WdcsNode;
