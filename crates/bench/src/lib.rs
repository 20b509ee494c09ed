//! Benchmark and reproduction harness for the GRIPhoN workspace.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! (see `DESIGN.md` §3 for the experiment index).

#![deny(missing_docs)]

use serde::Serialize;

pub mod experiments;
pub mod ha_target;
pub mod measure_target;
pub mod noc_target;
pub mod registry;
pub mod scale_target;
pub mod scenario;
pub mod serve_target;
pub mod slo_target;
pub mod table;
pub mod trace_target;

/// Version of the common `BENCH_*.json` header. Bump when the header
/// shape changes; consumers comparing reports across PRs key on it.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The common header stamped onto every `BENCH_*.json` this workspace
/// emits, so the cross-PR perf trajectory is machine-comparable: a
/// harvester can group files by `target`, check `schema_version`, and
/// refuse to compare runs of different `sweep` profiles.
#[derive(Debug, Clone, Serialize)]
pub struct BenchHeader {
    /// Header schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The `repro` target that wrote the file.
    pub target: String,
    /// Sweep/config profile of the run (`full`, `reduced`, `default`).
    pub sweep: String,
}

impl BenchHeader {
    /// Header for `target` under sweep profile `sweep`.
    pub fn new(target: &str, sweep: &str) -> BenchHeader {
        BenchHeader {
            schema_version: BENCH_SCHEMA_VERSION,
            target: target.to_string(),
            sweep: sweep.to_string(),
        }
    }
}
