//! # photonic — the DWDM transport plane
//!
//! A behavioural model of the photonic layer GRIPhoN controls: fiber
//! spans with amplifier chains, multi-degree ROADMs with colorless /
//! non-directional add-drop, tunable optical transponders (OT), optical
//! regenerators (REGEN), client-side fiber cross-connects (FXC), and the
//! vendor element-management systems (EMS) whose command latencies
//! dominate the paper's Table 2.
//!
//! ## What is modelled, and what is not
//!
//! In the smoltcp tradition, the feature matrix is explicit:
//!
//! **Modelled**
//! - ITU 50 GHz C-band grid with a configurable channel count (40–100).
//! - Per-degree wavelength occupancy, wavelength-continuity conflicts.
//! - Multi-degree ROADMs: express, add, drop; colorless and
//!   non-directional add/drop banks (any OT → any wavelength × degree).
//! - OT laser tuning time, per-WSS reconfiguration time, and path power
//!   balancing / link equalization whose convergence walks every hop —
//!   the mechanistic source of Table 2's superlinear growth.
//! - Optical reach by line rate, and REGEN placement to extend it.
//! - Fiber cuts with loss-of-signal (LOS) alarm propagation to every
//!   downstream receiver, feeding the controller's fault localization.
//! - EMS emulation: commands have per-type latency distributions
//!   calibrated so end-to-end wavelength setup reproduces the paper's
//!   62–71 s measurements.
//!
//! **Not modelled** (documented omissions)
//! - Analogue waveform propagation: OSNR, chromatic dispersion and
//!   nonlinearities are summarised by a single reach figure per rate,
//!   which is how the paper's own routing treats them.
//! - Wavelength conversion inside a ROADM (a REGEN provides it, as in
//!   real deployments).
//! - Protection switching inside the line system (GRIPhoN restoration is
//!   done by the controller above, which is the paper's point).
//!
//! Everything is deterministic: latency "distributions" draw from a
//! [`simcore::SimRng`] owned by the caller.

#![deny(missing_docs)]

pub mod alarm;
pub mod ems;
pub mod fiber;
pub mod fxc;
pub mod generator;
pub mod grid;
pub mod power;
pub mod reach;
pub mod roadm;
pub mod topology;
pub mod transponder;

pub use alarm::{Alarm, AlarmKind, AlarmSeverity};
pub use ems::{EmsCommand, EmsLatencyModel, EmsProfile, WorkflowLedger};
pub use fiber::{FiberId, FiberState, Span};
pub use fxc::FxcId;
pub use generator::{generate, GeneratedPlant, GeneratorConfig};
pub use grid::{ChannelGrid, LineRate, Wavelength};
pub use power::EqualizationModel;
pub use reach::ReachModel;
pub use roadm::{DegreeId, Roadm, RoadmId};
pub use topology::{PhotonicNetwork, TestbedIds};
pub use transponder::{RegenId, Transponder, TransponderId, TransponderState};
