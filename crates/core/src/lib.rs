//! # griphon — the GRIPhoN controller
//!
//! A from-scratch implementation of the paper's primary contribution:
//! the **G**lobally **R**econfigurable **I**ntelligent **Pho**tonic
//! **N**etwork control plane that turns a statically provisioned optical
//! backbone into a bandwidth-on-demand service for inter-data-center
//! communication.
//!
//! ## What the controller does (paper §2.2)
//!
//! - tracks available network resources in its inventory database
//!   ([`inventory`]);
//! - talks to the network elements (FXC, OTN switch EMS, ROADM EMS)
//!   through a vendor-EMS latency model, so every operation costs what
//!   the paper's testbed measured ([`controller`]);
//! - routes and wavelength-assigns new connections ([`rwa`]);
//! - offers the BoD service at rates from 1 G (OTN sub-wavelength,
//!   electronic, seconds to set up) to 10–40 G (full wavelength, 60–70 s
//!   to set up — Table 2), including composite bundles like
//!   2×1G + 10G = 12G ([`bod`], [`otn_service`]);
//! - detects, localizes and automatically restores failures ([`fault`]);
//! - performs near-hitless bridge-and-roll for planned maintenance and
//!   re-grooming ([`maintenance`]);
//! - actively probes shared paths and estimates available bandwidth, the
//!   feedback signal for estimation-aware BoD ([`measure`]);
//! - isolates tenants behind quotas ([`tenant`]) and shows each customer
//!   only their own connections ([`gui`]);
//! - plans spare resources with Erlang-style tools ([`planning`]);
//! - encodes the paper's service/layer figures as checkable models
//!   ([`layers`]).
//!
//! ## Quick start
//!
//! ```
//! use griphon::controller::{Controller, ControllerConfig};
//! use photonic::{LineRate, PhotonicNetwork};
//! use simcore::DataRate;
//!
//! // The paper's Fig. 4 testbed with 4 transponders per node.
//! let (net, ids) = PhotonicNetwork::testbed(4);
//! let mut ctl = Controller::new(net, ControllerConfig::default());
//! let csp = ctl.tenants.register("acme-cloud", DataRate::from_gbps(100));
//!
//! // Order a 10 G wavelength between data centers at nodes I and IV…
//! let conn = ctl.request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10).unwrap();
//! // …and run the event loop until the EMS workflows complete (~62 s).
//! ctl.run_until_idle();
//! assert!(ctl.connection(conn).unwrap().state.carrying_traffic());
//! ```

#![deny(missing_docs)]

pub mod bod;
pub mod calendar;
pub mod connection;
pub mod controller;
pub mod durability;
pub mod fault;
pub mod gui;
pub mod inventory;
pub mod layers;
pub mod maintenance;
pub mod measure;
pub mod noc;
pub mod otn_service;
pub mod planning;
pub mod protection;
pub mod rwa;
pub mod sla;
pub mod slo;
pub mod tenant;
mod workflow;

pub use bod::{Bundle, BundleId, Decomposition};
pub use calendar::{ReservationId, ReservationState};
pub use connection::{ConnState, Connection, ConnectionId, ConnectionKind, TrunkId};
pub use controller::{Controller, ControllerConfig, RequestError, Trunk};
pub use durability::{
    failover_latency, recover, HaPair, Intent, RecoveryError, RecoveryOutcome, Snapshot,
    SnapshotStore, StandbyController, Wal, WalConfig, WalRecord,
};
pub use inventory::InventorySnapshot;
pub use layers::{Layer, LayerStack};
pub use measure::{AbSample, CrossTraffic, MeasureOutcome, ProbeConfig, ProbePath, Prober};
pub use noc::{Noc, RootCause};
pub use rwa::{RegionMap, RouteCacheStats, RwaConfig, RwaError, WavelengthPlan};
pub use sla::nines;
pub use slo::{SloEngine, SloSpec, TelemetryRollup};
pub use tenant::CustomerId;
