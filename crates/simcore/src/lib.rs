//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation every other crate in this workspace builds on. The design
//! follows the smoltcp idiom: *explicit state machines with time passed in
//! from the outside*. Nothing in this crate reads a wall clock, allocates
//! hidden global state, or behaves differently across runs with the same
//! seed.
//!
//! ## Components
//!
//! - [`time`] — [`SimTime`]/[`SimDuration`], nanosecond-resolution simulated
//!   time with checked arithmetic and human-readable formatting.
//! - [`queue`] — [`Scheduler`], a future-event list (binary heap with a
//!   monotonic sequence tiebreak) supporting cancellable timers. Events at
//!   equal timestamps pop in scheduling order, which makes every simulation
//!   built on it deterministic; liveness is a generation-stamped slab, so
//!   no path hashes. Also [`FluidQueue`], an exact-integer fluid bottleneck
//!   queue used by the active-probing measurement plane.
//! - [`rng`] — [`SimRng`], a small, fully reproducible PRNG
//!   (SplitMix64-seeded xoshiro256**) with the distributions the workload
//!   generators need (uniform, exponential, normal, lognormal, Pareto,
//!   weighted choice).
//! - [`dist`] — shared heavy-tailed and diurnal sampling helpers
//!   (Zipf rank sampling, bounded Pareto, diurnal factors) used by the
//!   workload, measurement and service planes.
//! - [`flow`] — exact-integer request-plane primitives: [`TokenBucket`]
//!   rate limiting and [`BoundedQueue`] admission queues with explicit
//!   shed-load reporting.
//! - [`metrics`] — counters, gauges, log-linear histograms and time series
//!   for recording experiment output, plus labeled metric families
//!   ([`FamilyRegistry`]) with Prometheus-style text exposition and a
//!   typed JSON snapshot (the NOC telemetry substrate, `DESIGN.md` §10).
//! - [`trace`] — a bounded structured event log for debugging and for
//!   asserting on simulation behaviour in tests.
//! - [`span`] — hierarchical, sim-time-stamped spans for per-phase latency
//!   attribution, with a Chrome trace-event exporter and a rollup
//!   aggregator (the observability substrate; see `DESIGN.md` §9).
//! - [`codec`] — a deterministic, checksummed binary codec (fixed-width
//!   little-endian fields + CRC-32C frames) used by the durability
//!   subsystem's write-ahead log; distinguishes torn tail writes from
//!   corruption.
//! - [`units`] — [`DataRate`] / [`DataSize`] newtypes shared by all layers.
//! - [`ids`] — the [`define_id!`] macro for typed entity identifiers.
//!
//! ## Example
//!
//! ```
//! use simcore::{Scheduler, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_after(SimDuration::from_secs(2), Ev::Pong);
//! sched.schedule_after(SimDuration::from_secs(1), Ev::Ping);
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_secs(1), Ev::Ping));
//! let (t2, e2) = sched.pop().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_secs(2), Ev::Pong));
//! assert_eq!(sched.now(), SimTime::from_secs(2));
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod dist;
pub mod flow;
pub mod ids;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod span;
pub mod time;
pub mod trace;
pub mod units;

pub use codec::{crc32c, CodecError, Crc32c, CrcWriter, Decoder, Encoder};
pub use dist::{bounded_pareto_bits, diurnal_day_factor, diurnal_sin, zipf_weights, ZipfSampler};
pub use flow::{BoundedQueue, PushOutcome, RateLimited, TokenBucket};
pub use metrics::{
    Counter, CounterId, CounterSample, Exemplar, FamilyRegistry, Footprint, Gauge, GaugeId,
    GaugeSample, Histogram, HistogramId, HistogramSample, LatencyRecorder, MetricsRegistry,
    MetricsSnapshot, TimeSeries,
};
pub use queue::{EventId, FluidQueue, Scheduler};
pub use rng::SimRng;
pub use span::{
    AttrValue, Span, SpanId, SpanRecorder, TailSampleConfig, TailSampleStats, TailSampler,
};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLog};
pub use units::{DataRate, DataSize};
