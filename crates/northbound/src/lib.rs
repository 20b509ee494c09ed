//! # northbound — the GRIPhoN service plane
//!
//! The intent API server the paper's BoD service would expose to
//! tenants, modeled as a deterministic sim-time request plane in front
//! of the `griphon` controller. No sockets, no threads: arrivals,
//! admission decisions, and batched controller hand-offs happen at
//! sim-time instants in one merge loop over the sorted arrival stream
//! and the drain cadence, so a million-tenant load test is a pure
//! function of `(config, seed)` and replays bit-identically.
//!
//! The crate splits along the request path:
//!
//! - [`directory`] — fleet-scale tenant registry: derivational tiers
//!   and keyed-hash bearer tokens, O(1) memory at any fleet size.
//! - [`quota`] — hierarchical budgets: per-tenant and per-tier
//!   gbps-hour integrals plus concurrent-reservation caps.
//! - [`fleet`] — the synthetic workload: Zipf-attributed heavy-tailed
//!   arrivals with diurnal modulation and an optional abuser overlay.
//! - [`server`] — the edge pipeline (auth → token bucket → bounded
//!   queue → quota → priority drain into
//!   [`griphon::Controller::journal_batch`]) and its observability:
//!   per-tier metric families, `api.admit` spans with tail-sampled
//!   exemplars, SLO streams, southbound-pressure gauges.
//!
//! The load-bearing invariant, asserted by [`server::replay_admitted`]
//! consumers: the service plane leaves **zero residue** in controller
//! state. Replaying the admitted-intent stream against a bare
//! controller produces the same `state_digest_crc` as the full
//! server-on run.

pub mod directory;
pub mod fleet;
pub mod quota;
pub mod server;

pub use directory::{TenantDirectory, Tier};
pub use fleet::{generate as generate_fleet, AbuserConfig, FleetConfig, Request};
pub use server::{
    build_testbed, replay_admitted, AdmittedIntent, ApiServer, ServeOutcome, ServerConfig, Testbed,
};
