//! # durability — the durable control plane
//!
//! GRIPhoN's controller is a deterministic function of its genesis state
//! and the stream of northbound intents it accepts. This module turns
//! that property into crash tolerance:
//!
//! - [`wal`] — a segmented, CRC-framed **write-ahead intent log**. Every
//!   mutating northbound call is appended before it executes. A torn
//!   tail (crash mid-append) rolls back the never-committed record; a
//!   bad checksum on committed data is a hard, typed error.
//! - [`snapshot`] — versioned, checksummed **snapshots**: a deterministic
//!   fork of the controller plus metadata binding it to a log position.
//! - [`recovery`] — **snapshot + log-tail replay**. Replay drives the
//!   replica through the same public entry points the live controller
//!   used, so the reconstruction is byte-identical (proved by the
//!   canonical state digest). In-flight EMS workflows re-materialise
//!   from the replayed intents; the torn tail's workflow, if any, is
//!   rolled back and accounted.
//! - [`standby`] — a **warm standby** that consumes the log continuously
//!   and takes over on primary failure, with detect → replay → serving
//!   latency accounting.
//!
//! The one rule that makes all of this sound: *nothing* reaches the
//! controller's state except through journaled intents and the
//! deterministic event loop they schedule.

pub mod recovery;
pub mod snapshot;
pub mod standby;
pub mod wal;

pub use recovery::{recover, RecoveryError, RecoveryOutcome};
pub use snapshot::{Snapshot, SnapshotStore};
pub use standby::{failover_latency, HaPair, StandbyController};
pub use wal::{decode_threads, Intent, Wal, WalConfig, WalRecord};
