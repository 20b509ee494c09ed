//! # cloud — the cloud-service-provider side of the paper
//!
//! GRIPhoN's motivation (§1) is inter-data-center bulk transfer:
//! replication, backup and content distribution between geographically
//! distributed sites, with traffic whose peaks are "dominated by
//! background, non-interactive, bulk data transfers" (Chen et al.'s
//! Yahoo! measurements) at terabyte-to-petabyte scale. No such traces
//! are public here, so this crate *synthesises* workloads with those
//! published characteristics and runs them against the `griphon`
//! controller.
//!
//! ## Modules
//!
//! - [`datacenter`] — CSP sites attached to carrier PoPs.
//! - [`workload`] — deterministic generators: diurnal interactive load
//!   plus Poisson-arrival, Pareto-sized bulk jobs (heavy tail: most jobs
//!   are small, the mass is in multi-terabyte transfers).
//! - [`transfer`] — the bulk-transfer bookkeeping: per-job progress under
//!   a time-varying allocated rate.
//! - [`scheduler`] — the transfer strategies experiment E5 compares:
//!   a statically-sized leased line, GRIPhoN BoD (request wavelengths
//!   when a backlog builds, release when drained), and a
//!   store-and-forward relay baseline in the spirit of NetStitcher.
//!   Policies run on two event-driven drivers (cost scales with state
//!   changes, not horizon/tick); the fixed-tick oracles they are held
//!   to live under the workspace's `tests/support/`.
//! - [`profile`] — piecewise-constant interactive-load profiles, the
//!   breakpoint representation the event engine fast-forwards between.
//! - [`cost`] — the carrier-price model: flat monthly leased-line
//!   pricing vs usage-based BoD, the economics behind Table 1.

#![deny(missing_docs)]

pub mod cost;
pub mod datacenter;
mod event;
pub mod portal;
pub mod profile;
pub mod replication;
pub mod scheduler;
pub mod transfer;
pub mod workload;

pub use cost::CostModel;
pub use datacenter::{DataCenter, DataCenterId, DataCenterSet};
pub use portal::{CspPortal, PortalError};
pub use profile::RateProfile;
pub use replication::ReplicationPolicy;
pub use scheduler::{
    BodPolicy, DeadlineBodPolicy, MeasuredBodPolicy, MeasuredMode, MeasuredRun, MultiPairBod,
    PolicyOutcome, StaticLinePolicy, StoreForwardPolicy,
};
pub use transfer::{Transfer, TransferLog};
pub use workload::{BulkJob, JobId, WorkloadConfig, WorkloadGenerator};
