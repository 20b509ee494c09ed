//! The five workloads and the loop that measures them.
//!
//! A workload is three steps, so that only the middle one is timed:
//! `setup` (inputs, plant, genesis) → `region` (the calls under test) →
//! `finish` (digest and counts). One *round* runs all three from the same
//! seed; a run repeats rounds for the requested number of seconds, so every
//! round must reproduce the first one's digest and exact counts.

pub mod bod_mesh;
pub mod edge;
pub mod lambda_cold;
pub mod storm_recover;

use std::collections::BTreeMap;
use std::time::Instant;

use griphon::durability::{recover, RecoveryError, RecoveryOutcome, SnapshotStore, WalConfig};
use griphon::{Controller, ControllerConfig, RegionMap};
use photonic::{generate, GeneratedPlant, GeneratorConfig};
use simcore::TraceLog;

use crate::alloc;
use crate::report::nearest_rank;
use crate::trace::Tracer;

/// Named numbers a round or a pass produced (per-layer metric name → value).
pub type Facts = BTreeMap<&'static str, f64>;

/// How much smaller `--quick` makes every workload's size knob.
pub const QUICK_DIVISOR: u64 = 8;

/// Seed of every generated plant and of the controller over it. The plant
/// is the fixed system under test, like a database a query benchmark runs
/// against; `--seed` draws the load (requests, jobs, endpoints, cuts). Plants
/// of one shape but different span lengths cost up to 8 % more or less per
/// operation, more than the host's own noise.
pub const PLANT_SEED: u64 = 0x6121_9401;

/// Capacity of the controller's trace ring in every workload. The default
/// ring (65 536 events) overflows within one round, and a run that drops
/// telemetry fails its checks; the ring grows only as it fills.
pub const TRACE_RING: usize = 1 << 22;

/// What a workload step may read and record into.
pub struct Cx<'a> {
    pub seed: u64,
    pub quick: bool,
    /// Journal on (`Controller::enable_journal`); off only in the WAL
    /// differencing pass.
    pub wal: bool,
    /// NOC scrapes on where the workload has them; off only in the NOC
    /// differencing pass.
    pub noc: bool,
    pub t: &'a mut Tracer,
}

impl Cx<'_> {
    /// `full`, or `full / QUICK_DIVISOR` (at least 1) under `--quick`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.quick {
            (full / QUICK_DIVISOR).max(1)
        } else {
            full
        }
    }
}

/// What a finished round reports.
pub struct Outcome {
    /// Units of work attempted (the `op` of `ops_per_s`).
    pub ops: u64,
    /// Share of the work the system served as asked (`served_share`).
    pub served_share: f64,
    /// Ops that ended in a state the workload is built never to reach.
    pub failed: u64,
    /// `state_digest_crc` of the controller the region drove.
    pub digest: u32,
    /// Exact counts: must repeat bit for bit for a seed.
    pub exact: Facts,
    /// Output checks this round failed.
    pub errors: Vec<String>,
}

pub trait Workload {
    /// Generated inputs plus the system at genesis.
    type Input;
    /// The driven system, as the timed region left it.
    type Live;
    /// What later passes need from a finished round.
    type Kept;

    fn setup(&self, cx: &mut Cx) -> Self::Input;
    /// The timed region: nothing but calls into the product.
    fn region(&self, input: Self::Input, cx: &mut Cx) -> Self::Live;
    fn finish(&self, live: Self::Live, cx: &mut Cx) -> (Outcome, Self::Kept);
    /// Correctness replay (every run): a second execution path must reach
    /// the round's digest. While the tracer is on it goes on to the
    /// attribution passes — on/off differencing and unit-cost loops on the
    /// round's own inputs. `region_s` is the timed seconds of the run's
    /// least disturbed round; what is measured lands in `facts`, failed
    /// checks are returned.
    fn verify(
        &self,
        kept: &Self::Kept,
        region_s: f64,
        cx: &mut Cx,
        facts: &mut Facts,
    ) -> Vec<String>;
}

/// One measured round.
pub struct Round<K> {
    pub setup_s: f64,
    pub wall_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub outcome: Outcome,
    pub kept: K,
    /// Index of the round's first span in the tracer.
    pub span_from: usize,
}

pub fn round<W: Workload>(w: &W, cx: &mut Cx) -> Round<W::Kept> {
    let span_from = cx.t.begin_run();
    let t0 = Instant::now();
    let open = cx.t.enter("setup");
    let input = w.setup(cx);
    cx.t.exit(open);
    let setup_s = t0.elapsed().as_secs_f64();

    let open = cx.t.enter("region");
    alloc::arm();
    let t1 = Instant::now();
    let live = w.region(input, cx);
    let wall_s = t1.elapsed().as_secs_f64();
    let (allocs, alloc_bytes) = alloc::disarm();
    cx.t.exit(open);

    let (outcome, kept) = w.finish(live, cx);
    Round {
        setup_s,
        wall_s,
        allocs,
        alloc_bytes,
        outcome,
        kept,
        span_from,
    }
}

/// Run `pass` twice and keep the faster: every figure that enters a
/// difference is taken from the less disturbed of two passes.
pub fn faster_of_two<T>(mut pass: impl FnMut() -> (T, f64)) -> (T, f64) {
    let (a, b) = (pass(), pass());
    if a.1 <= b.1 {
        a
    } else {
        b
    }
}

/// Which public switch a differencing pass leaves off.
#[derive(Clone, Copy)]
pub enum Switch {
    /// `Controller::enable_journal` is not called.
    Wal,
    /// `ctl.noc.enable` is not called.
    Noc,
}

/// The on/off differencing pass: untraced rounds with one switch off (the
/// faster of two is returned). The switch must be observationally passive:
/// the round's digest has to be `on_digest`.
pub fn switched_off<W: Workload>(
    w: &W,
    cx: &mut Cx,
    switch: Switch,
    on_digest: u32,
    errors: &mut Vec<String>,
) -> Round<W::Kept> {
    let set = |cx: &mut Cx, on: bool| match switch {
        Switch::Wal => cx.wal = on,
        Switch::Noc => cx.noc = on,
    };
    let was = cx.t.pause();
    set(cx, false);
    let (off, _) = faster_of_two(|| {
        let r = round(w, cx);
        let wall_s = r.wall_s;
        (r, wall_s)
    });
    set(cx, true);
    cx.t.resume(was);
    if off.outcome.digest != on_digest {
        let name = match switch {
            Switch::Wal => "WAL",
            Switch::Noc => "NOC",
        };
        errors.push(format!(
            "{name}-off digest {:08x} != {name}-on digest {on_digest:08x}",
            off.outcome.digest
        ));
    }
    off
}

/// A generated plant and a controller at genesis over it: deterministic
/// device profiles, region map installed, nothing journaled yet.
pub struct Plant {
    pub plant: GeneratedPlant,
    pub cfg: ControllerConfig,
}

impl Plant {
    /// Generate the plant, then install `metro_regens` regens at every
    /// interior node. The generator equips only hubs and anchors, and the
    /// reach model regenerates at the last node before the budget runs
    /// out, which on a path just over 2 500 km is a metro node: without
    /// these a fraction of a percent of random endpoint pairs can never be
    /// lit, and the workloads are built so that no intent fails.
    pub fn generate(
        gen: &GeneratorConfig,
        metro_regens: usize,
        cfg: ControllerConfig,
        t: &mut Tracer,
    ) -> Plant {
        let mut plant = t.time("photonic.generate", || generate(gen));
        for node in plant.interior.iter().flatten() {
            for _ in 0..metro_regens {
                plant
                    .net
                    .add_regen(*node, gen.ot_rate)
                    .expect("interior nodes exist");
            }
        }
        Plant { plant, cfg }
    }

    pub fn config() -> ControllerConfig {
        ControllerConfig {
            seed: PLANT_SEED,
            ems: photonic::EmsProfile::calibrated_deterministic(),
            equalization: photonic::EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        }
    }

    pub fn genesis(&self) -> Controller {
        let mut ctl = Controller::new(self.plant.net.clone(), self.cfg.clone());
        ctl.trace = TraceLog::new(TRACE_RING);
        ctl.install_region_map(RegionMap::new(self.plant.region_of.clone()))
            .expect("generated plants satisfy the single-gateway invariant");
        ctl
    }

    pub fn facts(&self, exact: &mut Facts) {
        exact.insert("photonic.roadms", self.plant.net.roadm_count() as f64);
        exact.insert("photonic.fibers", self.plant.net.fiber_count() as f64);
    }
}

/// `state_digest_crc`, spanned so digest cost has a base figure.
pub fn digest(ctl: &Controller, t: &mut Tracer) -> u32 {
    t.time("controller.digest", || ctl.state_digest_crc())
}

/// Exact controller-side counts every workload reports after its region.
pub fn controller_facts(ctl: &Controller, exact: &mut Facts) {
    exact.insert("controller.events", ctl.events_processed() as f64);
    let cache = ctl.route_cache_stats();
    exact.insert("rwa.cache_hit_ratio", cache.hit_rate());
    exact.insert("rwa.cache_evictions", cache.evictions as f64);
    if let Some(wal) = ctl.journal() {
        exact.insert("wal.records", wal.records() as f64);
        exact.insert("wal.bytes", wal.total_bytes() as f64);
        exact.insert("wal.segments", wal.segments().len() as f64);
    }
    // Refusals the controller counts itself; workloads add the orders
    // their own calls saw refused.
    let counter = |name: &str| ctl.metrics.get_counter(name).map_or(0, |c| c.get());
    exact.insert(
        "controller.blocked",
        (counter("resv.activation_failed") + counter("fault.restore_blocked")) as f64,
    );
    exact.insert("noc.scrapes", ctl.noc.scrapes() as f64);
    exact.insert("noc.unattributed", ctl.noc.unattributed() as f64);
    exact.insert("telemetry.span_dropped", ctl.spans.dropped() as f64);
    exact.insert("telemetry.trace_dropped", ctl.trace.dropped() as f64);
    let mut setup_ns: Vec<u64> = ctl
        .connections()
        .filter_map(|c| Some(c.activated_at?.saturating_since(c.requested_at).as_nanos()))
        .collect();
    setup_ns.sort_unstable();
    exact.insert(
        "controller.setup_p50_sim_s",
        nearest_rank(&setup_ns, 0.5) as f64 / 1e9,
    );
}

/// The crash: `durability::recover` from `genesis` over `live`'s own log to
/// the same sim time, spanned as `wal.recover` (decode + replay). `None`
/// while the journal is switched off.
pub fn recover_from_log(
    live: &Controller,
    genesis: impl FnOnce() -> Controller,
    t: &mut Tracer,
) -> Option<Result<RecoveryOutcome, RecoveryError>> {
    let wal = live.journal()?;
    let open = t.enter("wal.recover");
    let recovered = recover(
        genesis,
        wal.segments(),
        &SnapshotStore::new(0),
        live.now(),
        WalConfig::default(),
    );
    t.exit(open);
    Some(recovered)
}

/// Recovery must rebuild `live` exactly and replay its whole log.
pub fn recovery_errors(
    live: &Controller,
    live_digest: u32,
    recovered: &Result<RecoveryOutcome, RecoveryError>,
) -> Vec<String> {
    let records = live.journal().map_or(0, |w| w.records());
    let mut errors = Vec::new();
    match recovered {
        Err(e) => errors.push(format!("recovery from the run's own log failed: {e}")),
        Ok(out) => {
            let got = out.controller.state_digest_crc();
            if got != live_digest {
                errors.push(format!(
                    "recovered digest {got:08x} != live digest {live_digest:08x}"
                ));
            }
            if out.replayed != records {
                errors.push(format!(
                    "recovery replayed {} of {records} WAL records",
                    out.replayed
                ));
            }
        }
    }
    errors
}

/// The correctness replay of the workloads that drive a bare controller:
/// recover from the run's own log, check, and record what recovery cost.
pub fn verify_by_recovery(
    live: &Controller,
    live_digest: u32,
    genesis: impl FnOnce() -> Controller,
    t: &mut Tracer,
    facts: &mut Facts,
) -> Vec<String> {
    let t0 = Instant::now();
    let recovered = recover_from_log(live, genesis, t).expect("workloads journal by default");
    let recover_s = t0.elapsed().as_secs_f64();
    let records = live.journal().map_or(0, |w| w.records());
    facts.insert("wal.recover_s", recover_s);
    facts.insert("wal.recover_records_per_s", records as f64 / recover_s);
    recovery_errors(live, live_digest, &recovered)
}
