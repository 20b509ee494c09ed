//! The GRIPhoN controller.
//!
//! §2.2: *"The controller is responsible for keeping track of the
//! available network resources in its database, communication with the
//! network elements (FXC controllers, OTN switch EMS, ROADM EMS and NTE
//! controllers) in order to create or tear down the connections ordered
//! by the CSPs, capacity and resource management, inventory database
//! management, failure detection, localization and automated
//! restorations."*
//!
//! This module holds the controller's core: state, the event loop, and
//! wavelength connection setup/teardown. Fault management lives in
//! [`crate::fault`], bridge-and-roll and maintenance in
//! [`crate::maintenance`], OTN trunks and sub-wavelength circuits in
//! [`crate::otn_service`], and the composite BoD front door in
//! [`crate::bod`] — all as further `impl Controller` blocks.
//!
//! ## Concurrency & time model
//!
//! The controller *claims* resources synchronously at admission (its
//! inventory database is authoritative, so two in-flight orders can never
//! double-allocate a wavelength or transponder), then simulates the
//! element-management latency by scheduling a completion event. A
//! connection carries traffic only once its workflow completes — exactly
//! the window the paper measures in Table 2.
//!
//! Restorations are processed one at a time (a deliberate model of the
//! per-EMS command serialization the paper observed); see
//! [`crate::fault`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use simcore::{
    LatencyRecorder, MetricsRegistry, Scheduler, SimDuration, SimRng, SimTime, SpanId,
    SpanRecorder, TraceLog,
};

use otn::{OtnSwitch, XcId};
use photonic::alarm::DetectionModel;
use photonic::{
    Alarm, DegreeId, EmsCommand, EmsLatencyModel, EmsProfile, EqualizationModel, FiberId, LineRate,
    PhotonicNetwork, RoadmId,
};

use crate::connection::{ConnState, Connection, ConnectionId, ConnectionKind, Resources, TrunkId};
use crate::rwa::{self, RwaConfig, RwaError, WavelengthPlan};
use crate::tenant::{AdmissionError, CustomerId, TenantRegistry};

/// Tunables of a controller instance.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Routing/wavelength-assignment parameters.
    pub rwa: RwaConfig,
    /// EMS latency profile.
    pub ems: EmsProfile,
    /// Equalization timing model.
    pub equalization: EqualizationModel,
    /// Alarm detection latencies.
    pub detection: DetectionModel,
    /// RNG seed (jitter, workload forks).
    pub seed: u64,
    /// Automatically restore failed connections (GRIPhoN behaviour).
    /// Disable to model "today's reality" manual repair.
    pub auto_restore: bool,
    /// Concurrent restoration workflows the EMS plane sustains. The
    /// paper's testbed serialized commands (1); §4 asks what faster
    /// control planes buy — raise this to find out (experiment E2b).
    pub restoration_parallelism: usize,
    /// Rate remainder (in 1 G units) at or below which composite BoD uses
    /// OTN circuits instead of another wavelength (§2.2's 12 G example).
    pub otn_remainder_max_gbps: u64,
    /// After a repair, automatically migrate restored connections back
    /// to shorter paths via bridge-and-roll (§2.2: "reversion following
    /// a failure restoration (moving traffic from backup paths to
    /// repaired primary)").
    pub auto_revert: bool,
    /// Stage wavelength power ramps to suppress add/remove transients
    /// (§4's "power transient tolerance" requirement). When false, every
    /// add/remove exposes co-propagating channels and the controller
    /// records the disturbances.
    pub staged_power_ramp: bool,
    /// The transient exposure model used when ramps are not staged.
    pub transients: photonic::power::TransientModel,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            rwa: RwaConfig::default(),
            ems: EmsProfile::calibrated(),
            equalization: EqualizationModel::calibrated(),
            detection: DetectionModel::default(),
            seed: 0xC0FFEE,
            auto_restore: true,
            restoration_parallelism: 1,
            auto_revert: true,
            otn_remainder_max_gbps: 4,
            staged_power_ramp: true,
            transients: photonic::power::TransientModel::default(),
        }
    }
}

/// Why a customer order was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Tenant admission failed.
    Admission(AdmissionError),
    /// No provisionable path.
    Rwa(RwaError),
    /// Unknown connection id.
    UnknownConnection(ConnectionId),
    /// The connection is in a state that does not allow the operation.
    BadState(ConnectionId, ConnState),
    /// Sub-wavelength service needs OTN switches at both endpoints.
    NoOtnSwitch(RoadmId),
    /// No trunk route with enough free tributary slots.
    NoTrunkCapacity,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Admission(e) => write!(f, "admission: {e}"),
            RequestError::Rwa(e) => write!(f, "routing: {e}"),
            RequestError::UnknownConnection(c) => write!(f, "unknown {c}"),
            RequestError::BadState(c, s) => write!(f, "{c} in state {s:?}"),
            RequestError::NoOtnSwitch(n) => write!(f, "no OTN switch at {n}"),
            RequestError::NoTrunkCapacity => write!(f, "no trunk capacity"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<AdmissionError> for RequestError {
    fn from(e: AdmissionError) -> Self {
        RequestError::Admission(e)
    }
}

impl From<RwaError> for RequestError {
    fn from(e: RwaError) -> Self {
        RequestError::Rwa(e)
    }
}

/// Workflow completion classes the event loop dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkflowKind {
    /// Initial provisioning finished → Active.
    Setup,
    /// Teardown finished → Released.
    Teardown,
    /// Restoration path in service → Active again.
    Restore,
    /// Bridge path built (traffic still on the old path).
    Bridge,
    /// Traffic rolled to the bridge (the only service hit).
    Roll,
    /// 1+1 tail-end selector finished switching legs.
    ProtectionSwitch,
}

impl WorkflowKind {
    /// Stable label for the workflow ledger and traces.
    pub fn label(self) -> &'static str {
        match self {
            WorkflowKind::Setup => "setup",
            WorkflowKind::Teardown => "teardown",
            WorkflowKind::Restore => "restore",
            WorkflowKind::Bridge => "bridge",
            WorkflowKind::Roll => "roll",
            WorkflowKind::ProtectionSwitch => "protection_switch",
        }
    }
}

/// Events flowing through the controller's scheduler.
#[derive(Debug, Clone)]
pub enum Event {
    /// A provisioning/teardown/restore/bridge/roll workflow completed.
    WorkflowDone {
        /// The connection it belongs to.
        conn: ConnectionId,
        /// Which workflow.
        kind: WorkflowKind,
    },
    /// An OTN trunk's underlying wavelength is in service.
    TrunkReady {
        /// The trunk.
        trunk: TrunkId,
    },
    /// A restored OTN trunk is back in service after a failure.
    TrunkRestored {
        /// The trunk.
        trunk: TrunkId,
    },
    /// An alarm surfaced from the network.
    AlarmDelivered(Alarm),
    /// A fiber repair crew finished.
    FiberRepaired {
        /// The repaired fiber.
        fiber: FiberId,
    },
    /// An advance reservation's lead window opened — provision it.
    ReservationStart {
        /// The reservation.
        reservation: crate::calendar::ReservationId,
    },
    /// An advance reservation's service window closed — release it.
    ReservationEnd {
        /// The reservation.
        reservation: crate::calendar::ReservationId,
    },
}

/// The per-command duration draws of one wavelength setup workflow.
///
/// Sampled once at admission by [`Controller::wavelength_setup_sample`].
/// [`SetupSample::total`] — serial phases, each parallel command group
/// contributing its max — drives the completion event, and the *same*
/// draws feed the trace breakdown and the span tree, so every consumer
/// sees one consistent timeline.
#[derive(Debug, Clone)]
pub(crate) struct SetupSample {
    /// EMS provisioning-session bookkeeping.
    pub session: SimDuration,
    /// Client-side FXC switches (parallel pair).
    pub fxc: [SimDuration; 2],
    /// Per-node ROADM/WSS configuration (parallel; `hops + 1` entries).
    pub roadm: Vec<SimDuration>,
    /// Transponder laser tunes at both ends (parallel pair).
    pub tune: [SimDuration; 2],
    /// End-to-end path validation.
    pub validate: SimDuration,
    /// Power equalization (see `photonic::power`).
    pub equalize: SimDuration,
}

impl SetupSample {
    /// Duration the parallel FXC pair occupies.
    pub fn fxc_max(&self) -> SimDuration {
        self.fxc[0].max(self.fxc[1])
    }

    /// Duration the parallel per-node ROADM group occupies.
    pub fn roadm_max(&self) -> SimDuration {
        self.roadm.iter().copied().max().expect("at least one node")
    }

    /// Duration the parallel tune pair occupies.
    pub fn tune_max(&self) -> SimDuration {
        self.tune[0].max(self.tune[1])
    }

    /// End-to-end workflow duration.
    pub fn total(&self) -> SimDuration {
        self.session
            + self.fxc_max()
            + self.roadm_max()
            + self.tune_max()
            + self.validate
            + self.equalize
    }
}

impl fmt::Display for SetupSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session={} fxc={} roadm={} tune={} validate={} equalize={}",
            self.session,
            self.fxc_max(),
            self.roadm_max(),
            self.tune_max(),
            self.validate,
            self.equalize
        )
    }
}

/// Per-command draws of a wavelength teardown workflow:
/// session → (ROADM deconfigure ∥ OT release) → FXC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TeardownSample {
    /// Teardown-order bookkeeping.
    pub session: SimDuration,
    /// ROADM/WSS deconfiguration (parallel with the laser release).
    pub roadm_deconf: SimDuration,
    /// Transponder laser release (parallel with the deconfigure).
    pub ot_release: SimDuration,
    /// Client-side FXC release.
    pub fxc: SimDuration,
}

impl TeardownSample {
    /// Duration the parallel deconfigure/release group occupies.
    pub fn deconf_max(&self) -> SimDuration {
        self.roadm_deconf.max(self.ot_release)
    }

    /// End-to-end workflow duration.
    pub fn total(&self) -> SimDuration {
        self.session + self.deconf_max() + self.fxc
    }
}

/// Per-command draws of a sub-wavelength (OTN) setup workflow.
#[derive(Debug, Clone)]
pub(crate) struct SubwlSetupSample {
    /// OTN order bookkeeping.
    pub session: SimDuration,
    /// Electronic cross-connects, one per switch (parallel).
    pub xcs: Vec<SimDuration>,
}

impl SubwlSetupSample {
    /// Duration the parallel cross-connect group occupies.
    pub fn xc_max(&self) -> SimDuration {
        self.xcs.iter().copied().max().expect("at least one switch")
    }

    /// End-to-end workflow duration.
    pub fn total(&self) -> SimDuration {
        self.session + self.xc_max()
    }
}

/// Per-command draws of a sub-wavelength teardown workflow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubwlTeardownSample {
    /// OTN order bookkeeping.
    pub session: SimDuration,
    /// Cross-connect removal.
    pub xc: SimDuration,
}

impl SubwlTeardownSample {
    /// End-to-end workflow duration.
    pub fn total(&self) -> SimDuration {
        self.session + self.xc
    }
}

/// An OTN trunk: a carrier-internal wavelength between two OTN switches.
#[derive(Debug, Clone)]
pub struct Trunk {
    /// This trunk's id.
    pub id: TrunkId,
    /// A-end node.
    pub a: RoadmId,
    /// Z-end node.
    pub b: RoadmId,
    /// Its wavelength plan on the photonic layer.
    pub plan: WavelengthPlan,
    /// Line rate (determines tributary capacity).
    pub rate: LineRate,
    /// `(switch index, line port)` at the A end.
    pub line_a: (usize, otn::LinePortId),
    /// `(switch index, line port)` at the Z end.
    pub line_b: (usize, otn::LinePortId),
    /// In service?
    pub ready: bool,
}

/// The GRIPhoN controller (see module docs).
pub struct Controller {
    /// The photonic plant under control.
    pub net: PhotonicNetwork,
    pub(crate) switches: Vec<OtnSwitch>,
    pub(crate) switch_at: BTreeMap<RoadmId, usize>,
    pub(crate) trunks: Vec<Trunk>,
    /// Tenant table (public for scenario setup).
    pub tenants: TenantRegistry,
    pub(crate) cfg: ControllerConfig,
    pub(crate) ems: EmsLatencyModel,
    pub(crate) rng: SimRng,
    pub(crate) sched: Scheduler<Event>,
    pub(crate) conns: BTreeMap<ConnectionId, Connection>,
    next_conn: u32,
    pub(crate) next_trunk: u32,
    pub(crate) restoration_queue: VecDeque<ConnectionId>,
    pub(crate) restorations_in_flight: usize,
    pub(crate) down_fibers: BTreeSet<FiberId>,
    pub(crate) pending_maintenance: BTreeMap<FiberId, BTreeSet<ConnectionId>>,
    pub(crate) reservations: Vec<crate::calendar::Reservation>,
    pub(crate) booking_caps: BTreeMap<(RoadmId, RoadmId), simcore::DataRate>,
    /// Client-side FXC per PoP (created on first use).
    fxc_at: BTreeMap<RoadmId, photonic::FxcId>,
    /// Structured trace of everything the controller did.
    pub trace: TraceLog,
    /// Hierarchical phase spans of every workflow (setup, teardown,
    /// restoration, grooming, policy decisions). **Disabled by default**
    /// — enable with `spans.set_enabled(true)` before driving the
    /// controller; see `simcore::span` for the determinism and overhead
    /// contracts.
    pub spans: SpanRecorder,
    /// Open workflow root spans awaiting their completion event.
    pub(crate) workflow_spans: BTreeMap<(ConnectionId, WorkflowKind), SpanId>,
    /// Open trunk provisioning/restoration root spans.
    pub(crate) trunk_spans: BTreeMap<TrunkId, SpanId>,
    /// When each queued restoration entered the queue (span attribution
    /// of queue wait vs execution; populated only while spans are on).
    pub(crate) restoration_enqueued_at: BTreeMap<ConnectionId, SimTime>,
    /// Experiment metrics.
    pub metrics: MetricsRegistry,
    /// The NOC layer: telemetry scrape engine and alarm-correlation
    /// engine (`DESIGN.md` §10). **Disabled by default** — enable with
    /// `noc.enable(interval)`; a disabled NOC costs nothing and the
    /// simulation outcome is byte-identical either way.
    pub noc: crate::noc::Noc,
    /// The path-computation engine (route cache + Dijkstra scratch),
    /// shared by every planning call this controller makes.
    pub(crate) engine: rwa::PathEngine,
    /// Wall-clock planning latency (host time, *not* simulated time).
    /// Kept out of `metrics` so deterministic scenario reports stay
    /// bit-identical across runs; read it via [`Controller::perf_summary`].
    pub perf: LatencyRecorder,
    /// The write-ahead intent log, when durability is enabled
    /// ([`Controller::enable_journal`]). `None` costs nothing and the
    /// simulation outcome is byte-identical either way.
    pub(crate) journal: Option<crate::durability::Wal>,
    /// Re-entrancy depth of intent execution. Only depth-0 (northbound)
    /// calls journal: nested intents issued by composite operations or by
    /// event handlers are re-derived deterministically on replay.
    pub(crate) journal_depth: u32,
    /// In-flight EMS workflow ledger: which device workflows are open,
    /// and how recovery disposed of them (resumed vs rolled back).
    pub workflows: photonic::WorkflowLedger,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("now", &self.sched.now())
            .field("events", &self.sched.events_delivered())
            .field("conns", &self.conns.len())
            .field("trunks", &self.trunks.len())
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// A controller over `net` with the given configuration.
    pub fn new(net: PhotonicNetwork, cfg: ControllerConfig) -> Controller {
        Controller {
            net,
            switches: Vec::new(),
            switch_at: BTreeMap::new(),
            trunks: Vec::new(),
            tenants: TenantRegistry::new(),
            ems: EmsLatencyModel::new(cfg.ems),
            rng: SimRng::new(cfg.seed),
            sched: Scheduler::new(),
            conns: BTreeMap::new(),
            next_conn: 0,
            next_trunk: 0,
            restoration_queue: VecDeque::new(),
            restorations_in_flight: 0,
            down_fibers: BTreeSet::new(),
            pending_maintenance: BTreeMap::new(),
            reservations: Vec::new(),
            booking_caps: BTreeMap::new(),
            fxc_at: BTreeMap::new(),
            trace: TraceLog::default(),
            spans: SpanRecorder::default(),
            workflow_spans: BTreeMap::new(),
            trunk_spans: BTreeMap::new(),
            restoration_enqueued_at: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
            noc: crate::noc::Noc::new(),
            engine: rwa::PathEngine::new(),
            perf: LatencyRecorder::new(),
            journal: None,
            journal_depth: 0,
            workflows: photonic::WorkflowLedger::default(),
            cfg,
        }
    }

    // ── durability ──────────────────────────────────────────────────

    /// Turn on write-ahead intent logging. Every subsequent northbound
    /// mutating call is appended to the log before it executes.
    pub fn enable_journal(&mut self, cfg: crate::durability::WalConfig) {
        self.journal = Some(crate::durability::Wal::new(cfg));
    }

    /// The write-ahead log, if journaling is enabled.
    pub fn journal(&self) -> Option<&crate::durability::Wal> {
        self.journal.as_ref()
    }

    /// Install an already-populated log (recovery reinstalls the
    /// surviving history so the replica keeps journaling where the
    /// primary left off).
    pub fn install_journal(&mut self, wal: crate::durability::Wal) {
        self.journal = Some(wal);
    }

    /// Detach the log, leaving journaling off.
    pub fn take_journal(&mut self) -> Option<crate::durability::Wal> {
        self.journal.take()
    }

    /// Append an intent to the journal — but only when called from the
    /// northbound surface (depth 0). Composite operations and event
    /// handlers bump [`Self::journal_depth`] around nested intent calls,
    /// so replaying the top-level record regenerates the nested activity
    /// instead of double-applying it. The closure keeps the encoding off
    /// the hot path when journaling is disabled.
    pub(crate) fn journal_record(&mut self, make: impl FnOnce() -> crate::durability::Intent) {
        if self.journal_depth == 0 {
            if let Some(w) = self.journal.as_mut() {
                let now = self.sched.now();
                w.append(now, &make());
            }
        }
    }

    /// Run `f` with journaling suppressed: nested intents it issues are
    /// covered by the caller's (already appended) record.
    pub(crate) fn journaled<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.journal_depth += 1;
        let r = f(self);
        self.journal_depth -= 1;
        r
    }

    /// Group commit: run `f` with the journal in batch mode, so every
    /// intent it issues (an admission burst, a composite workflow's
    /// setup phase) is accumulated and flushed as one contiguous framed
    /// append covered by a single batch CRC. The flushed bytes are
    /// **identical** to the one-record-per-append path — batching changes
    /// when frames hit the segment, never what they are. Returns `f`'s
    /// result and the commit receipt (`None` when journaling is off, the
    /// batch was empty inside a nested call, or no records were issued —
    /// an empty batch still yields a receipt with `records == 0`).
    pub fn journal_batch<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<crate::durability::BatchCommit>) {
        if let Some(w) = self.journal.as_mut() {
            w.begin_batch();
        }
        let r = f(self);
        let commit = self.journal.as_mut().and_then(|w| w.commit_batch());
        (r, commit)
    }

    /// Register a tenant through the journaled northbound surface.
    /// Scenario code that builds genesis state before enabling the
    /// journal can keep using `tenants.register` directly.
    pub fn register_tenant(&mut self, name: &str, quota: simcore::DataRate) -> CustomerId {
        self.register_tenant_with_priority(name, quota, crate::tenant::DEFAULT_PRIORITY)
    }

    /// [`Self::register_tenant`] with an explicit restoration priority.
    pub fn register_tenant_with_priority(
        &mut self,
        name: &str,
        quota: simcore::DataRate,
        priority: u8,
    ) -> CustomerId {
        self.journal_record(|| crate::durability::Intent::RegisterTenant {
            name: name.to_string(),
            quota_bps: quota.bps(),
            priority,
        });
        self.tenants.register_with_priority(name, quota, priority)
    }

    /// Plan a wavelength connection through the controller's
    /// [`rwa::PathEngine`], recording wall-clock planning latency in
    /// [`Controller::perf`]. All internal planning goes through here so
    /// the route cache and scratch buffers are shared and the percentiles
    /// cover every call.
    pub(crate) fn plan_wavelength(
        &mut self,
        from: RoadmId,
        to: RoadmId,
        rate: photonic::LineRate,
        excluded: &[photonic::FiberId],
    ) -> Result<WavelengthPlan, RwaError> {
        let t0 = std::time::Instant::now();
        let r = self
            .engine
            .plan_wavelength(&self.net, &self.cfg.rwa, from, to, rate, excluded);
        let host_ns = t0.elapsed().as_nanos() as u64;
        self.perf.record_ns(host_ns);
        if self.spans.is_enabled() {
            let now = self.sched.now();
            let sp = self.spans.record(now, now, "plan", "rwa.plan", None);
            self.spans.attr_u64(sp, "ok", u64::from(r.is_ok()));
            // Wall-clock readings are non-deterministic; they enter spans
            // only under the explicit host-attrs opt-in (perf pipeline).
            if self.spans.host_attrs_enabled() {
                self.spans.attr_u64(sp, "host_ns", host_ns);
            }
        }
        r
    }

    /// One-line wall-clock performance summary: planning-latency
    /// percentiles and route-cache hit rate.
    pub fn perf_summary(&self) -> String {
        let s = self.engine.route_cache_stats();
        format!(
            "plan_wavelength {} | route-cache {} hits / {} misses / {} evictions ({} resident)",
            self.perf.summary(),
            s.hits,
            s.misses,
            s.evictions,
            s.entries
        )
    }

    /// Route-cache counters of the controller's path engine.
    ///
    /// Deliberately *not* folded into [`Controller::metrics`]: the
    /// metrics registry is part of the state digest, and cache traffic is
    /// derived, host-local state — a failover replica replans cold with
    /// different hit counts while carrying identical persistent state.
    /// Exporters publish these through
    /// [`rwa::PathEngine::export_cache_metrics`] instead.
    pub fn route_cache_stats(&self) -> rwa::RouteCacheStats {
        self.engine.route_cache_stats()
    }

    /// Publish the path engine's route-cache counters into a metrics
    /// family registry (see [`rwa::PathEngine::export_cache_metrics`]).
    pub fn export_route_cache_metrics(&self, reg: &mut simcore::metrics::FamilyRegistry) {
        self.engine.export_cache_metrics(reg);
    }

    /// Install a validated region partition on the path engine: search is
    /// then restricted to the endpoint regions plus the backbone, which
    /// is provably route-identical under the single-gateway invariant
    /// (see [`rwa::RegionMap`]) and keeps per-query cost tracking region
    /// size instead of plant size. Survives [`Controller::fork`].
    pub fn install_region_map(&mut self, map: rwa::RegionMap) -> Result<(), String> {
        self.engine.install_region_map(&self.net, map)
    }

    /// Estimated heap footprint of the controller's hot state in bytes,
    /// itemised per subsystem — the scale benchmark's memory column. An
    /// estimate for capacity planning, not an allocator measurement.
    pub fn memory_footprint(&self) -> simcore::metrics::Footprint {
        use std::mem::size_of_val;
        let mut fp = simcore::metrics::Footprint::new();
        fp.add("photonic plant", self.net.memory_footprint() as u64);
        fp.add(
            "connections",
            (self.conns.len() * 256 + self.trunks.len() * 192) as u64,
        );
        fp.add("scheduler", (self.sched.pending() * 128) as u64);
        fp.add("trace ring", (self.trace.len() * 96) as u64);
        fp.add("rng + counters", size_of_val(&self.rng) as u64);
        fp
    }

    // ── time ────────────────────────────────────────────────────────

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Process one pending event, if any. Returns its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        let (t, ev) = self.sched.pop()?;
        // Event handlers are derived activity: any intents they issue
        // (restoration, reservation activation) replay from the schedule,
        // not the journal.
        self.journaled(|c| c.handle(ev));
        self.noc_pump();
        Some(t)
    }

    /// Run the event loop until `deadline` (events at exactly `deadline`
    /// are processed); the clock ends at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.sched.pop_until(deadline) {
            self.journaled(|c| c.handle(ev));
            self.noc_pump();
        }
        if self.sched.now() < deadline {
            self.sched.advance_to(deadline);
        }
        self.noc_pump();
    }

    /// Run until no events remain.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Timestamp of the next pending controller event, without processing
    /// it. Lets external engines (the event-driven workload scheduler)
    /// fast-forward to exactly the next point at which controller state
    /// can change.
    pub fn peek_event_time(&mut self) -> Option<SimTime> {
        self.sched.peek_time()
    }

    /// Total events the controller has processed (throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.sched.events_delivered()
    }

    /// Live events waiting in the southbound scheduler. Together with
    /// [`Self::peek_event_time`] this is the backlog signal the service
    /// plane exports as a labeled gauge, so NOC scrapes can watch
    /// southbound pressure build during overload scenarios.
    pub fn pending_events(&self) -> usize {
        self.sched.pending()
    }

    // ── lookups ─────────────────────────────────────────────────────

    /// Read a connection.
    pub fn connection(&self, id: ConnectionId) -> Option<&Connection> {
        self.conns.get(&id)
    }

    /// All connections.
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.conns.values()
    }

    /// Read a trunk.
    pub fn trunk(&self, id: TrunkId) -> Option<&Trunk> {
        self.trunks.get(id.index())
    }

    /// All trunks.
    pub fn trunks(&self) -> &[Trunk] {
        &self.trunks
    }

    /// Read an OTN switch by internal index.
    pub fn otn_switch(&self, idx: usize) -> &OtnSwitch {
        &self.switches[idx]
    }

    /// The OTN switch index at a node, if one is installed.
    pub fn otn_switch_at(&self, node: RoadmId) -> Option<usize> {
        self.switch_at.get(&node).copied()
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    // ── wavelength service ──────────────────────────────────────────

    /// Order a full-wavelength connection for `customer`.
    ///
    /// On success the connection is `Provisioning`; it becomes `Active`
    /// when its workflow completes (60–70 s with the calibrated profile).
    pub fn request_wavelength(
        &mut self,
        customer: CustomerId,
        from: RoadmId,
        to: RoadmId,
        rate: LineRate,
    ) -> Result<ConnectionId, RequestError> {
        self.journal_record(|| crate::durability::Intent::Wavelength {
            customer: customer.raw(),
            from: from.raw(),
            to: to.raw(),
            rate: crate::durability::wal::encode_rate(rate),
        });
        self.tenants.admit(customer, rate.rate())?;
        let plan = match self.plan_wavelength(from, to, rate, &[]) {
            Ok(p) => p,
            Err(e) => {
                self.tenants.release(customer, rate.rate());
                return Err(e.into());
            }
        };
        let id = self.fresh_conn_id();
        let mut conn = Connection::new(
            id,
            customer,
            from,
            to,
            ConnectionKind::Wavelength { rate },
            self.now(),
        );
        self.claim_plan(&plan);
        let (hops, lambda) = (plan.hops(), plan.lambda);
        conn.resources = Some(Resources::Wavelength(plan));
        self.conns.insert(id, conn);
        let sample = self.wavelength_setup_sample(hops);
        let dur = sample.total();
        self.trace.emit(
            self.now(),
            "conn",
            format!(
                "{id} setup started {}→{} λ{} hops={hops} eta={dur} [{sample}]",
                self.net.name(from),
                self.net.name(to),
                lambda.0,
            ),
        );
        let t0 = self.now();
        let root = self.open_workflow_span(id, WorkflowKind::Setup, t0, "conn.setup");
        if root.is_valid() {
            self.spans.attr_u64(root, "hops", hops as u64);
            self.spans.attr_u64(root, "lambda", u64::from(lambda.0));
            self.emit_setup_spans(root, t0, &sample);
        }
        self.schedule_workflow(dur, id, WorkflowKind::Setup);
        Ok(id)
    }

    /// Order teardown of a connection (any non-terminal state).
    pub fn request_teardown(&mut self, id: ConnectionId) -> Result<(), RequestError> {
        self.journal_record(|| crate::durability::Intent::Teardown { conn: id.raw() });
        let conn = self
            .conns
            .get_mut(&id)
            .ok_or(RequestError::UnknownConnection(id))?;
        match conn.state {
            ConnState::Active | ConnState::Provisioning | ConnState::Failed => {
                conn.outage_end(self.sched.now());
                conn.transition(ConnState::TearingDown);
            }
            s => return Err(RequestError::BadState(id, s)),
        }
        let is_subwl = matches!(conn.kind, ConnectionKind::SubWavelength { .. });
        let t0 = self.now();
        let dur = if is_subwl {
            let s = self.subwavelength_teardown_sample();
            let root = self.open_workflow_span(id, WorkflowKind::Teardown, t0, "conn.teardown");
            self.emit_subwl_teardown_spans(root, t0, &s);
            s.total()
        } else {
            let s = self.wavelength_teardown_sample();
            let root = self.open_workflow_span(id, WorkflowKind::Teardown, t0, "conn.teardown");
            self.emit_teardown_spans(root, t0, &s);
            s.total()
        };
        self.trace.emit(
            self.now(),
            "conn",
            format!("{id} teardown started eta={dur}"),
        );
        self.schedule_workflow(dur, id, WorkflowKind::Teardown);
        Ok(())
    }

    // ── workflow durations ──────────────────────────────────────────

    /// Sample the per-command durations of a wavelength setup workflow
    /// for an `n`-hop path: session → FXC∥FXC → ROADM configs in
    /// parallel → OT tunes in parallel → validate → equalize. The total
    /// ([`SetupSample::total`]) drives the completion event; the same
    /// draws feed the trace breakdown and the span tree.
    pub(crate) fn wavelength_setup_sample(&mut self, hops: usize) -> SetupSample {
        let session = self.ems.latency(EmsCommand::SetupSession, &mut self.rng);
        let fxc = [
            self.ems.latency(EmsCommand::FxcSwitch, &mut self.rng),
            self.ems.latency(EmsCommand::FxcSwitch, &mut self.rng),
        ];
        let nodes = hops + 1;
        let roadm = (0..nodes)
            .map(|_| self.ems.latency(EmsCommand::RoadmConfigure, &mut self.rng))
            .collect();
        let tune = [
            self.ems.latency(EmsCommand::OtTune, &mut self.rng),
            self.ems.latency(EmsCommand::OtTune, &mut self.rng),
        ];
        let validate = self.ems.latency(EmsCommand::PathValidate, &mut self.rng);
        let eq_model = self.cfg.equalization;
        let equalize = eq_model.duration(hops, &mut self.rng);
        SetupSample {
            session,
            fxc,
            roadm,
            tune,
            validate,
            equalize,
        }
    }

    /// Sample a wavelength teardown workflow:
    /// session → (ROADM deconfigs ∥ OT releases) → FXC.
    pub(crate) fn wavelength_teardown_sample(&mut self) -> TeardownSample {
        let session = self.ems.latency(EmsCommand::TeardownSession, &mut self.rng);
        let roadm_deconf = self
            .ems
            .latency(EmsCommand::RoadmDeconfigure, &mut self.rng);
        let ot_release = self.ems.latency(EmsCommand::OtRelease, &mut self.rng);
        let fxc = self.ems.latency(EmsCommand::FxcSwitch, &mut self.rng);
        TeardownSample {
            session,
            roadm_deconf,
            ot_release,
            fxc,
        }
    }

    /// Sub-wavelength (OTN) setup: light session + parallel electronic
    /// cross-connects, one per traversed switch.
    pub(crate) fn subwavelength_setup_sample(&mut self, switches: usize) -> SubwlSetupSample {
        let session = self.ems.latency(EmsCommand::OtnSession, &mut self.rng);
        let xcs = (0..switches.max(1))
            .map(|_| self.ems.latency(EmsCommand::OtnXconnect, &mut self.rng))
            .collect();
        SubwlSetupSample { session, xcs }
    }

    /// Sub-wavelength teardown: session + cross-connect removal.
    pub(crate) fn subwavelength_teardown_sample(&mut self) -> SubwlTeardownSample {
        let session = self.ems.latency(EmsCommand::OtnSession, &mut self.rng);
        let xc = self
            .ems
            .latency(EmsCommand::OtnXconnectRemove, &mut self.rng);
        SubwlTeardownSample { session, xc }
    }

    // ── span instrumentation ────────────────────────────────────────

    /// Open a workflow root span at `start` and index it under
    /// `(conn, kind)` so the matching `WorkflowDone` event closes it.
    /// Returns [`SpanId::INVALID`] (a no-op id) when recording is off.
    pub(crate) fn open_workflow_span(
        &mut self,
        conn: ConnectionId,
        kind: WorkflowKind,
        start: SimTime,
        name: &'static str,
    ) -> SpanId {
        if !self.spans.is_enabled() {
            return SpanId::INVALID;
        }
        let root = self.spans.open(start, "conn", name, None);
        self.spans.attr_u64(root, "conn", u64::from(conn.raw()));
        if root.is_valid() {
            self.workflow_spans.insert((conn, kind), root);
        }
        root
    }

    /// Close the root span a `WorkflowDone { conn, kind }` event belongs
    /// to, if one is open.
    pub(crate) fn close_workflow_span(&mut self, conn: ConnectionId, kind: WorkflowKind) {
        if let Some(root) = self.workflow_spans.remove(&(conn, kind)) {
            let now = self.now();
            self.spans.close(root, now);
        }
    }

    /// Lay a setup workflow's phase and device-operation spans out under
    /// `root`, starting at `t0`. Phases are sequential, each parallel
    /// command group occupying its max sampled duration — the exact
    /// arithmetic of [`SetupSample::total`] — so the phase spans tile
    /// `[t0, t0 + total]` and per-phase sums reproduce the end-to-end
    /// latency the controller reports. Each phase carries the time it
    /// spent queued behind earlier commands (`queue_wait_ns`); device
    /// operations under a phase start when the phase starts and show
    /// their individual sampled execution times.
    pub(crate) fn emit_setup_spans(&mut self, root: SpanId, t0: SimTime, s: &SetupSample) {
        if !self.spans.is_enabled() || !root.is_valid() {
            return;
        }
        let hops = s.roadm.len().saturating_sub(1).max(1);
        let mut t = t0;
        let phase = |spans: &mut SpanRecorder, t: SimTime, d: SimDuration, name| {
            let ph = spans.record(t, t + d, "phase", name, Some(root));
            spans.attr_u64(ph, "queue_wait_ns", t.since(t0).as_nanos());
            ph
        };
        // EMS provisioning session (serial bookkeeping).
        phase(&mut self.spans, t, s.session, "phase.session");
        t += s.session;
        // Client-side FXC pair, in parallel.
        let ph = phase(&mut self.spans, t, s.fxc_max(), "phase.fxc");
        for (i, d) in s.fxc.iter().enumerate() {
            let op = self.spans.record(
                t,
                t + *d,
                "device",
                EmsCommand::FxcSwitch.span_name(),
                Some(ph),
            );
            self.spans.attr_u64(op, "end", i as u64);
        }
        t += s.fxc_max();
        // Per-node ROADM/WSS configuration, in parallel across nodes.
        let ph = phase(&mut self.spans, t, s.roadm_max(), "phase.roadm");
        for (i, d) in s.roadm.iter().enumerate() {
            let op = self.spans.record(
                t,
                t + *d,
                "device",
                EmsCommand::RoadmConfigure.span_name(),
                Some(ph),
            );
            self.spans.attr_u64(op, "node", i as u64);
        }
        t += s.roadm_max();
        // Transponder laser tunes at both ends, in parallel.
        let ph = phase(&mut self.spans, t, s.tune_max(), "phase.tune");
        for (i, d) in s.tune.iter().enumerate() {
            let op = self.spans.record(
                t,
                t + *d,
                "device",
                EmsCommand::OtTune.span_name(),
                Some(ph),
            );
            self.spans.attr_u64(op, "end", i as u64);
        }
        t += s.tune_max();
        // End-to-end validation (serial).
        phase(&mut self.spans, t, s.validate, "phase.validate");
        t += s.validate;
        // Power equalization: per-iteration convergence rounds, each
        // measuring and adjusting every hop (see photonic::power).
        let ph = phase(&mut self.spans, t, s.equalize, "phase.equalize");
        let mut it_t = t;
        for (i, it_d) in self
            .cfg
            .equalization
            .iteration_splits(hops, s.equalize)
            .iter()
            .enumerate()
        {
            let it = self
                .spans
                .record(it_t, it_t + *it_d, "device", "equalize.iter", Some(ph));
            self.spans.attr_u64(it, "iter", i as u64);
            let mut hop_t = it_t;
            for (h, hop_d) in photonic::power::split_even(*it_d, hops).iter().enumerate() {
                let op =
                    self.spans
                        .record(hop_t, hop_t + *hop_d, "device", "equalize.hop", Some(it));
                self.spans.attr_u64(op, "hop", h as u64);
                hop_t += *hop_d;
            }
            it_t += *it_d;
        }
    }

    /// Teardown counterpart of [`Self::emit_setup_spans`]: session →
    /// (WSS deconfigure ∥ laser release) → FXC, tiling `[t0, t0+total]`.
    pub(crate) fn emit_teardown_spans(&mut self, root: SpanId, t0: SimTime, s: &TeardownSample) {
        if !self.spans.is_enabled() || !root.is_valid() {
            return;
        }
        let mut t = t0;
        let ph = self
            .spans
            .record(t, t + s.session, "phase", "phase.session", Some(root));
        self.spans.attr_u64(ph, "queue_wait_ns", 0);
        t += s.session;
        let ph = self.spans.record(
            t,
            t + s.deconf_max(),
            "phase",
            "phase.deconfigure",
            Some(root),
        );
        self.spans
            .attr_u64(ph, "queue_wait_ns", t.since(t0).as_nanos());
        self.spans.record(
            t,
            t + s.roadm_deconf,
            "device",
            EmsCommand::RoadmDeconfigure.span_name(),
            Some(ph),
        );
        self.spans.record(
            t,
            t + s.ot_release,
            "device",
            EmsCommand::OtRelease.span_name(),
            Some(ph),
        );
        t += s.deconf_max();
        let ph = self
            .spans
            .record(t, t + s.fxc, "phase", "phase.fxc", Some(root));
        self.spans
            .attr_u64(ph, "queue_wait_ns", t.since(t0).as_nanos());
        self.spans.record(
            t,
            t + s.fxc,
            "device",
            EmsCommand::FxcSwitch.span_name(),
            Some(ph),
        );
    }

    /// Sub-wavelength setup spans: OTN session → parallel electronic
    /// cross-connects, one per traversed switch.
    pub(crate) fn emit_subwl_setup_spans(
        &mut self,
        root: SpanId,
        t0: SimTime,
        s: &SubwlSetupSample,
    ) {
        if !self.spans.is_enabled() || !root.is_valid() {
            return;
        }
        self.spans
            .record(t0, t0 + s.session, "phase", "phase.otn_session", Some(root));
        let t = t0 + s.session;
        let ph = self
            .spans
            .record(t, t + s.xc_max(), "phase", "phase.xconnect", Some(root));
        self.spans
            .attr_u64(ph, "queue_wait_ns", s.session.as_nanos());
        for (i, d) in s.xcs.iter().enumerate() {
            let op = self.spans.record(
                t,
                t + *d,
                "device",
                EmsCommand::OtnXconnect.span_name(),
                Some(ph),
            );
            self.spans.attr_u64(op, "switch", i as u64);
        }
    }

    /// Sub-wavelength teardown spans: OTN session → cross-connect removal.
    pub(crate) fn emit_subwl_teardown_spans(
        &mut self,
        root: SpanId,
        t0: SimTime,
        s: &SubwlTeardownSample,
    ) {
        if !self.spans.is_enabled() || !root.is_valid() {
            return;
        }
        self.spans
            .record(t0, t0 + s.session, "phase", "phase.otn_session", Some(root));
        let t = t0 + s.session;
        let ph = self
            .spans
            .record(t, t + s.xc, "phase", "phase.xconnect", Some(root));
        self.spans.record(
            t,
            t + s.xc,
            "device",
            EmsCommand::OtnXconnectRemove.span_name(),
            Some(ph),
        );
    }

    // ── plan claim / release ────────────────────────────────────────

    /// Record §4 power-transient exposure for an add/remove event on
    /// every fiber of `path`, unless staged ramps suppress it.
    pub(crate) fn account_transients(&mut self, path: &[FiberId], adding: bool) {
        if self.cfg.staged_power_ramp {
            return;
        }
        let now = self.now();
        for f in path {
            // Survivors: channels already lit on the fiber, excluding the
            // one being added/removed (on add it is not yet counted; on
            // remove it still is).
            let lit = self.net.lit_lambdas_on_fiber(*f);
            let survivors = if adding { lit } else { lit.saturating_sub(1) };
            if self.cfg.transients.disturbs(survivors) {
                self.metrics
                    .counter("transient.disturbed_channels")
                    .add(survivors as u64);
                self.metrics.counter("transient.events").incr();
                self.trace.emit(
                    now,
                    "power",
                    format!(
                        "{} on {f}: {:.2} dB transient across {survivors} survivors",
                        if adding { "add" } else { "remove" },
                        self.cfg.transients.depth_db(survivors)
                    ),
                );
            }
        }
    }

    /// Apply a wavelength plan to the inventory: tune OTs, claim regens,
    /// configure add/drop at the ends and express at intermediates.
    pub(crate) fn claim_plan(&mut self, plan: &WavelengthPlan) {
        self.account_transients(&plan.path, true);
        let from = self.net.transponder(plan.ot_src).location;
        let to = self.net.transponder(plan.ot_dst).location;
        self.fxc_patch(from, plan.ot_src);
        self.fxc_patch(to, plan.ot_dst);
        self.net
            .transponder_mut(plan.ot_src)
            .start_tuning(plan.lambda);
        self.net
            .transponder_mut(plan.ot_dst)
            .start_tuning(plan.lambda);
        for r in &plan.regens {
            self.net.regen_mut(*r).claim();
        }
        // Source add/drop.
        let (src_node, src_port) = self.net.ot_port(plan.ot_src);
        debug_assert_eq!(src_node, from);
        let d0 = self.degree_for(from, plan.path[0]);
        self.net
            .roadm_mut(from)
            .connect_add_drop(src_port, plan.lambda, d0)
            .expect("planner verified λ free at source");
        // Intermediate expresses, walking the path from the source.
        let mut node = from;
        for hop in plan.path.windows(2) {
            node = self.net.fiber(hop[0]).other_end(node);
            let din = self.degree_for(node, hop[0]);
            let dout = self.degree_for(node, hop[1]);
            self.net
                .roadm_mut(node)
                .connect_express(plan.lambda, din, dout)
                .expect("planner verified λ free at intermediate");
        }
        // Destination add/drop.
        let last = plan.path[plan.path.len() - 1];
        let end = self.net.fiber(last).other_end(node);
        let (dst_node, dst_port) = self.net.ot_port(plan.ot_dst);
        debug_assert_eq!(dst_node, end);
        let dl = self.degree_for(end, last);
        self.net
            .roadm_mut(end)
            .connect_add_drop(dst_port, plan.lambda, dl)
            .expect("planner verified λ free at destination");
    }

    /// Undo everything [`Self::claim_plan`] did.
    pub(crate) fn release_plan(&mut self, plan: &WavelengthPlan) {
        self.account_transients(&plan.path, false);
        let from = self.net.transponder(plan.ot_src).location;
        let to = self.net.transponder(plan.ot_dst).location;
        self.fxc_unpatch(from, plan.ot_src);
        self.fxc_unpatch(to, plan.ot_dst);
        let (_, src_port) = self.net.ot_port(plan.ot_src);
        self.net
            .roadm_mut(from)
            .disconnect_add_drop(src_port)
            .expect("claimed plan must be configured");
        let mut node = from;
        for hop in plan.path.windows(2) {
            node = self.net.fiber(hop[0]).other_end(node);
            let din = self.degree_for(node, hop[0]);
            let dout = self.degree_for(node, hop[1]);
            self.net
                .roadm_mut(node)
                .disconnect_express(plan.lambda, din, dout)
                .expect("claimed plan must be configured");
        }
        let end = self
            .net
            .fiber(plan.path[plan.path.len() - 1])
            .other_end(node);
        let (_, dst_port) = self.net.ot_port(plan.ot_dst);
        self.net
            .roadm_mut(end)
            .disconnect_add_drop(dst_port)
            .expect("claimed plan must be configured");
        self.net.transponder_mut(plan.ot_src).release();
        self.net.transponder_mut(plan.ot_dst).release();
        for r in &plan.regens {
            self.net.regen_mut(*r).release();
        }
    }

    /// The client-side FXC at a PoP, created on first use.
    pub fn fxc_at(&mut self, node: RoadmId) -> photonic::FxcId {
        if let Some(id) = self.fxc_at.get(&node) {
            return *id;
        }
        let id = self.net.add_fxc();
        self.fxc_at.insert(node, id);
        id
    }

    /// Patch a service's access fiber through the node's FXC to an OT's
    /// client port (§2.2: the FXC steers the customer signal to an OT for
    /// wavelength service, enabling "dynamic sharing of transponders").
    pub(crate) fn fxc_patch(&mut self, node: RoadmId, ot: photonic::TransponderId) {
        let fxc = self.fxc_at(node);
        let f = self.net.fxc_mut(fxc);
        let ot_label = format!("ot:{ot}");
        let ot_port = f
            .port_by_label(&ot_label)
            .unwrap_or_else(|| f.add_port(ot_label));
        // Reuse a previously cabled service position when free, else add
        // a new patch-panel position.
        let svc_label = format!("svc:{ot}");
        let svc_port = f
            .port_by_label(&svc_label)
            .filter(|p| f.is_free(*p))
            .unwrap_or_else(|| f.add_port(svc_label));
        f.connect(svc_port, ot_port)
            .expect("service port and pooled OT port are free");
    }

    /// Undo [`Self::fxc_patch`].
    pub(crate) fn fxc_unpatch(&mut self, node: RoadmId, ot: photonic::TransponderId) {
        let fxc = self.fxc_at(node);
        let f = self.net.fxc_mut(fxc);
        if let Some(port) = f.port_by_label(&format!("ot:{ot}")) {
            let _ = f.disconnect(port);
        }
    }

    pub(crate) fn degree_for(&self, node: RoadmId, fiber: FiberId) -> DegreeId {
        self.net
            .roadm(node)
            .degree_to(fiber)
            .expect("path fiber must touch node")
    }

    pub(crate) fn fresh_conn_id(&mut self) -> ConnectionId {
        let id = ConnectionId::new(self.next_conn);
        self.next_conn += 1;
        id
    }

    /// Schedule a connection workflow's completion event and open it in
    /// the in-flight EMS ledger — the single gate every device workflow
    /// passes through, so recovery knows exactly what was outstanding.
    pub(crate) fn schedule_workflow(
        &mut self,
        dur: SimDuration,
        conn: ConnectionId,
        kind: WorkflowKind,
    ) {
        self.workflows.begin(conn.raw(), kind.label());
        self.sched
            .schedule_after(dur, Event::WorkflowDone { conn, kind });
    }

    /// [`Self::schedule_workflow`] for trunk workflows.
    pub(crate) fn schedule_trunk_workflow(&mut self, dur: SimDuration, trunk: TrunkId, ev: Event) {
        let label = match ev {
            Event::TrunkRestored { .. } => "trunk_restore",
            _ => "trunk_provision",
        };
        self.workflows.begin(trunk.raw(), label);
        self.sched.schedule_after(dur, ev);
    }

    // ── event dispatch ──────────────────────────────────────────────

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::WorkflowDone { conn, kind } => self.on_workflow_done(conn, kind),
            Event::TrunkReady { trunk } => self.on_trunk_ready(trunk),
            Event::TrunkRestored { trunk } => self.on_trunk_restored(trunk),
            Event::AlarmDelivered(alarm) => self.on_alarm(alarm),
            Event::FiberRepaired { fiber } => self.on_fiber_repaired(fiber),
            Event::ReservationStart { reservation } => self.on_reservation_start(reservation),
            Event::ReservationEnd { reservation } => self.on_reservation_end(reservation),
        }
    }

    fn on_workflow_done(&mut self, id: ConnectionId, kind: WorkflowKind) {
        // Close the workflow's root span before any state checks so the
        // span stream stays well-formed even when a teardown or failure
        // raced the workflow and the completion is a no-op.
        self.close_workflow_span(id, kind);
        self.workflows.complete(id.raw(), kind.label());
        match kind {
            WorkflowKind::Setup => {
                let now = self.now();
                // A completion for a connection the controller no longer
                // knows is stale — tolerated (not a panic) so a corrupt or
                // hand-edited log surfaces as a recovery error upstream
                // instead of tearing the process down.
                let Some(conn) = self.conns.get_mut(&id) else {
                    self.metrics.counter("workflow.orphaned").incr();
                    self.trace
                        .emit(self.sched.now(), "conn", format!("{id} orphan setup done"));
                    return;
                };
                // A teardown or failure may have raced the setup; only a
                // still-provisioning connection activates.
                if conn.state != ConnState::Provisioning {
                    return;
                }
                conn.transition(ConnState::Active);
                conn.activated_at = Some(now);
                let setup_secs = now.saturating_since(conn.requested_at).as_secs_f64();
                let to_tune: Vec<photonic::TransponderId> = match &conn.resources {
                    Some(Resources::Wavelength(plan)) => vec![plan.ot_src, plan.ot_dst],
                    Some(Resources::Protected {
                        working, protect, ..
                    }) => vec![
                        working.ot_src,
                        working.ot_dst,
                        protect.ot_src,
                        protect.ot_dst,
                    ],
                    _ => Vec::new(),
                };
                for ot in to_tune {
                    self.net.transponder_mut(ot).tuning_complete();
                }
                self.metrics.histogram("setup.secs").record(setup_secs);
                self.metrics.counter("setup.completed").incr();
                self.trace
                    .emit(now, "conn", format!("{id} active after {setup_secs:.2}s"));
            }
            WorkflowKind::Teardown => {
                let now = self.now();
                let Some(conn) = self.conns.get_mut(&id) else {
                    self.metrics.counter("workflow.orphaned").incr();
                    self.trace
                        .emit(now, "conn", format!("{id} orphan teardown done"));
                    return;
                };
                if conn.state != ConnState::TearingDown {
                    return;
                }
                conn.transition(ConnState::Released);
                let rate = conn.kind.rate();
                let customer = conn.customer;
                let resources = conn.resources.take();
                match resources {
                    Some(Resources::Wavelength(plan)) => self.release_plan(&plan),
                    Some(Resources::SubWavelength(route)) => self.release_subwavelength(&route),
                    Some(Resources::Protected {
                        working, protect, ..
                    }) => {
                        self.release_plan(&working);
                        self.release_plan(&protect);
                    }
                    None => {}
                }
                self.tenants.release(customer, rate);
                self.metrics.counter("teardown.completed").incr();
                self.trace.emit(now, "conn", format!("{id} released"));
            }
            WorkflowKind::Restore => self.on_restore_done(id),
            WorkflowKind::Bridge => self.on_bridge_done(id),
            WorkflowKind::Roll => self.on_roll_done(id),
            WorkflowKind::ProtectionSwitch => self.on_protection_switch(id),
        }
    }

    /// Release the cross-connects of a sub-wavelength route.
    pub(crate) fn release_subwavelength(&mut self, route: &crate::connection::SubWavelengthRoute) {
        for (sw, xc) in &route.xcs {
            // The xc may already be gone if its trunk was torn down.
            let _ = self.switches[*sw].disconnect(*xc);
        }
    }

    /// Internal: used by otn_service teardown paths.
    pub(crate) fn switch_disconnect(&mut self, sw: usize, xc: XcId) {
        let _ = self.switches[sw].disconnect(xc);
    }

    /// `(total, in use)` regen counts — inventory reporting.
    pub fn regen_stats(&self) -> (usize, usize) {
        let total = self.net.regen_count();
        let used = self
            .net
            .regen_ids()
            .filter(|r| self.net.regen(*r).in_use)
            .count();
        (total, used)
    }

    // ── durable-state capture ───────────────────────────────────────

    /// A deterministic deep copy of this controller: the snapshot
    /// primitive. Persistent state — inventory, scheduler, RNG, tenants,
    /// traces, metrics — is cloned field by field; *derived* state is
    /// reset: the journal detaches (a replica journals independently),
    /// the wall-clock perf recorder starts fresh (host time is not
    /// state), and the path engine restarts cold (its route cache is
    /// proven outcome-neutral by `tests/determinism.rs`).
    pub fn fork(&self) -> Controller {
        Controller {
            net: self.net.clone(),
            switches: self.switches.clone(),
            switch_at: self.switch_at.clone(),
            trunks: self.trunks.clone(),
            tenants: self.tenants.clone(),
            cfg: self.cfg.clone(),
            ems: self.ems.clone(),
            rng: self.rng.clone(),
            sched: self.sched.clone(),
            conns: self.conns.clone(),
            next_conn: self.next_conn,
            next_trunk: self.next_trunk,
            restoration_queue: self.restoration_queue.clone(),
            restorations_in_flight: self.restorations_in_flight,
            down_fibers: self.down_fibers.clone(),
            pending_maintenance: self.pending_maintenance.clone(),
            reservations: self.reservations.clone(),
            booking_caps: self.booking_caps.clone(),
            fxc_at: self.fxc_at.clone(),
            trace: self.trace.clone(),
            spans: self.spans.clone(),
            workflow_spans: self.workflow_spans.clone(),
            trunk_spans: self.trunk_spans.clone(),
            restoration_enqueued_at: self.restoration_enqueued_at.clone(),
            metrics: self.metrics.clone(),
            noc: self.noc.clone(),
            engine: self.engine.fresh_like(),
            perf: LatencyRecorder::new(),
            journal: None,
            journal_depth: 0,
            workflows: self.workflows.clone(),
        }
    }

    /// A canonical multi-line rendering of every byte of *persistent*
    /// controller state — the byte-identity oracle behind the durable
    /// control plane: recovery is correct iff the recovered replica's
    /// digest equals the primary's.
    ///
    /// Includes the clock, event counter, id counters, the full RNG
    /// state, the scheduler's pending events in delivery order, the
    /// entire inventory (network, switches, trunks, connections), the
    /// tenant table, calendar, maintenance and restoration state, the
    /// workflow ledger, metrics, and a checksum of the trace. Excludes
    /// observational or host-bound layers that are proven
    /// outcome-neutral: the NOC (its scrape values depend on event-loop
    /// boundaries replay need not reproduce), the span recorder, the
    /// wall-clock perf recorder, the path-engine cache, and the journal
    /// itself.
    pub fn state_digest(&self) -> String {
        let mut out = String::new();
        self.write_state_digest(&mut out)
            .expect("String never fails fmt::Write");
        out
    }

    /// CRC-32C of [`Controller::state_digest`], computed by streaming the
    /// digest straight through a [`simcore::CrcWriter`] — the hot path
    /// snapshots and sync barriers use. Never materializes the (multi-
    /// megabyte at scale) string; byte-for-byte equal to
    /// `crc32c(state_digest().as_bytes())` by construction, asserted by
    /// `streaming_digest_crc_matches_string`.
    pub fn state_digest_crc(&self) -> u32 {
        let mut w = simcore::CrcWriter::new();
        self.write_state_digest(&mut w)
            .expect("CrcWriter never fails fmt::Write");
        w.finish()
    }

    /// Stream the canonical digest rendering into any [`std::fmt::Write`]
    /// sink. [`Controller::state_digest`] (the golden/debug string) and
    /// [`Controller::state_digest_crc`] (the streaming checksum) are both
    /// thin wrappers over this single source of truth, so they cannot
    /// drift apart.
    pub fn write_state_digest<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        writeln!(out, "now={}", self.sched.now().as_nanos())?;
        writeln!(out, "events={}", self.sched.events_delivered())?;
        writeln!(out, "next_conn={}", self.next_conn)?;
        writeln!(out, "next_trunk={}", self.next_trunk)?;
        writeln!(out, "rng={:?}", self.rng.state_words())?;
        writeln!(out, "pending:")?;
        for (at, seq, ev) in self.sched.pending_entries() {
            writeln!(out, "  {} #{seq} {ev:?}", at.as_nanos())?;
        }
        writeln!(out, "tenants={:?}", self.tenants)?;
        writeln!(out, "conns={:?}", self.conns)?;
        writeln!(out, "trunks={:?}", self.trunks)?;
        writeln!(out, "switch_at={:?}", self.switch_at)?;
        writeln!(out, "switches={:?}", self.switches)?;
        writeln!(out, "reservations={:?}", self.reservations)?;
        writeln!(out, "booking_caps={:?}", self.booking_caps)?;
        writeln!(out, "down_fibers={:?}", self.down_fibers)?;
        writeln!(out, "pending_maint={:?}", self.pending_maintenance)?;
        writeln!(out, "restore_q={:?}", self.restoration_queue)?;
        writeln!(out, "restore_inflight={}", self.restorations_in_flight)?;
        writeln!(out, "fxc_at={:?}", self.fxc_at)?;
        writeln!(out, "{}", self.workflows.dump())?;
        writeln!(out, "metrics={:?}", self.metrics)?;
        let trace_dump = self.trace.dump();
        writeln!(
            out,
            "trace lines={} crc={:#010x}",
            trace_dump.lines().count(),
            simcore::crc32c(trace_dump.as_bytes())
        )?;
        writeln!(out, "net={:?}", self.net)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photonic::Wavelength;

    fn testbed_controller(jitter: bool) -> (Controller, photonic::TestbedIds, CustomerId) {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut cfg = ControllerConfig::default();
        if !jitter {
            cfg.ems = EmsProfile::calibrated_deterministic();
            cfg.equalization = EqualizationModel::calibrated_deterministic();
        }
        let mut ctl = Controller::new(net, cfg);
        let csp = ctl
            .tenants
            .register("acme-cloud", simcore::DataRate::from_gbps(100));
        (ctl, ids, csp)
    }

    #[test]
    fn one_hop_setup_matches_table2_row1() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        assert_eq!(ctl.connection(id).unwrap().state, ConnState::Provisioning);
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Active);
        let elapsed = conn
            .activated_at
            .unwrap()
            .since(conn.requested_at)
            .as_secs_f64();
        assert!((elapsed - 62.48).abs() < 0.01, "elapsed={elapsed}");
    }

    #[test]
    fn setup_claims_and_activates_resources() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        // λ0 occupied on the direct fiber during provisioning.
        assert!(!ctl.net.lambda_free_on_fiber(ids.f_i_iv, Wavelength(0)));
        ctl.run_until_idle();
        let plan = ctl
            .connection(id)
            .unwrap()
            .wavelength_plan()
            .unwrap()
            .clone();
        assert_eq!(
            ctl.net.transponder(plan.ot_src).wavelength(),
            Some(Wavelength(0))
        );
    }

    #[test]
    fn teardown_frees_everything() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let t_active = ctl.now();
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Released);
        assert!(conn.resources.is_none());
        assert!(ctl.net.lambda_free_on_fiber(ids.f_i_iv, Wavelength(0)));
        assert_eq!(ctl.net.idle_ots_at(ids.i, LineRate::Gbps10).len(), 4);
        assert_eq!(
            ctl.tenants.get(csp).unwrap().in_use,
            simcore::DataRate::ZERO
        );
        // Teardown ≈ 9–10 s per the paper.
        let teardown = ctl.now().since(t_active).as_secs_f64();
        assert!((8.0..=11.0).contains(&teardown), "teardown={teardown}");
    }

    /// Sum the durations of `root`'s direct `phase` children.
    fn phase_sum(spans: &[simcore::Span], root: simcore::SpanId) -> SimDuration {
        spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.category == "phase")
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration().unwrap())
    }

    #[test]
    fn setup_spans_tile_the_workflow_exactly() {
        let (mut ctl, ids, csp) = testbed_controller(true); // jitter on
        ctl.spans.set_enabled(true);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        simcore::span::validate(ctl.spans.spans()).unwrap();
        let conn = ctl.connection(id).unwrap();

        let setup_root = ctl
            .spans
            .spans()
            .iter()
            .find(|s| s.name == "conn.setup")
            .expect("setup root span");
        assert_eq!(setup_root.start, conn.requested_at);
        assert_eq!(setup_root.end, conn.activated_at);
        assert_eq!(setup_root.attr_u64("hops"), Some(1));
        // Phases tile the root: their sum IS the end-to-end setup time.
        assert_eq!(
            phase_sum(ctl.spans.spans(), setup_root.id),
            setup_root.duration().unwrap()
        );
        // Device operations nest under phases and include the dominant
        // laser tune pair.
        assert_eq!(
            ctl.spans
                .spans()
                .iter()
                .filter(|s| s.name == "laser.tune")
                .count(),
            2
        );

        let td_root = ctl
            .spans
            .spans()
            .iter()
            .find(|s| s.name == "conn.teardown")
            .expect("teardown root span");
        assert_eq!(
            phase_sum(ctl.spans.spans(), td_root.id),
            td_root.duration().unwrap()
        );
        // Planning produced an instant span too.
        assert!(ctl.spans.spans().iter().any(|s| s.name == "rwa.plan"));
    }

    #[test]
    fn spans_disabled_by_default_and_cost_nothing() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        assert!(ctl.spans.is_empty());
        assert_eq!(ctl.spans.dropped(), 0);
        // The disabled recorder never allocates its buffer.
        assert_eq!(ctl.spans.buffered_capacity(), 0);
    }

    #[test]
    fn restoration_spans_attribute_queue_wait() {
        let (net, ids) = PhotonicNetwork::testbed(8);
        let cfg = ControllerConfig {
            ems: EmsProfile::calibrated_deterministic(),
            equalization: EqualizationModel::calibrated_deterministic(),
            ..ControllerConfig::default()
        };
        let mut ctl = Controller::new(net, cfg);
        ctl.spans.set_enabled(true);
        let csp = ctl
            .tenants
            .register("acme", simcore::DataRate::from_gbps(100));
        let a = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        let b = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.run_until_idle();
        assert_eq!(ctl.connection(a).unwrap().state, ConnState::Active);
        assert_eq!(ctl.connection(b).unwrap().state, ConnState::Active);
        simcore::span::validate(ctl.spans.spans()).unwrap();
        let restores: Vec<&simcore::Span> = ctl
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "conn.restore")
            .collect();
        assert_eq!(restores.len(), 2);
        // EMS serialization: the second restoration's root includes a
        // genuine queue-wait phase at least one whole setup long.
        let waits: Vec<SimDuration> = restores
            .iter()
            .map(|r| {
                ctl.spans
                    .spans()
                    .iter()
                    .filter(|s| s.parent == Some(r.id) && s.name == "restore.queue_wait")
                    .fold(SimDuration::ZERO, |acc, s| acc + s.duration().unwrap())
            })
            .collect();
        let longest = waits.iter().copied().max().unwrap();
        assert!(
            longest >= SimDuration::from_secs(60),
            "serialized restoration must wait a full setup, waited {longest}"
        );
        // Queue wait + phases still tile each root exactly.
        for r in &restores {
            let children: SimDuration = ctl
                .spans
                .spans()
                .iter()
                .filter(|s| s.parent == Some(r.id) && s.category == "phase")
                .fold(SimDuration::ZERO, |acc, s| acc + s.duration().unwrap());
            assert_eq!(children, r.duration().unwrap());
        }
    }

    #[test]
    fn concurrent_requests_get_different_lambdas() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let a = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        let b = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let la = ctl.connection(a).unwrap().wavelength_plan().unwrap().lambda;
        let lb = ctl.connection(b).unwrap().wavelength_plan().unwrap().lambda;
        assert_ne!(la, lb, "no double-allocation under concurrent setup");
    }

    #[test]
    fn quota_admission_blocks_and_releases_nothing() {
        let (mut ctl, ids, _) = testbed_controller(false);
        let small = ctl
            .tenants
            .register("small-fry", simcore::DataRate::from_gbps(5));
        let err = ctl
            .request_wavelength(small, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap_err();
        assert!(matches!(err, RequestError::Admission(_)));
        assert_eq!(
            ctl.tenants.get(small).unwrap().in_use,
            simcore::DataRate::ZERO
        );
        assert_eq!(ctl.net.idle_ots_at(ids.i, LineRate::Gbps10).len(), 4);
    }

    #[test]
    fn rwa_failure_refunds_quota() {
        let (net, ids) = PhotonicNetwork::testbed(0); // no OTs anywhere
        let mut ctl = Controller::new(net, ControllerConfig::default());
        let csp = ctl
            .tenants
            .register("acme", simcore::DataRate::from_gbps(100));
        let err = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap_err();
        assert!(matches!(err, RequestError::Rwa(_)));
        assert_eq!(
            ctl.tenants.get(csp).unwrap().in_use,
            simcore::DataRate::ZERO
        );
    }

    #[test]
    fn teardown_during_provisioning_wins() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        // Tear down 10 s in, long before setup completes.
        ctl.run_until(SimTime::from_secs(10));
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        let conn = ctl.connection(id).unwrap();
        assert_eq!(conn.state, ConnState::Released);
        assert!(ctl.net.lambda_free_on_fiber(ids.f_i_iv, Wavelength(0)));
        // OT pool restored (release() from Tuning is legal).
        assert_eq!(ctl.net.idle_ots_at(ids.i, LineRate::Gbps10).len(), 4);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let (mut ctl, _, _) = testbed_controller(false);
        ctl.run_until(SimTime::from_secs(100));
        assert_eq!(ctl.now(), SimTime::from_secs(100));
    }

    #[test]
    fn fxc_patches_follow_connection_lifecycle() {
        let (mut ctl, ids, csp) = testbed_controller(false);
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let ot = ctl
            .connection(id)
            .unwrap()
            .wavelength_plan()
            .unwrap()
            .ot_src;
        let fxc = ctl.fxc_at(ids.i);
        let f = ctl.net.fxc(fxc);
        let ot_port = f.port_by_label(&format!("ot:{ot}")).unwrap();
        assert!(f.peer(ot_port).is_some(), "OT patched through the FXC");
        assert_eq!(f.connections(), 1);
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        let f = ctl.net.fxc(fxc);
        let ot_port = f.port_by_label(&format!("ot:{ot}")).unwrap();
        assert!(f.peer(ot_port).is_none(), "unpatched at teardown");
        // Re-ordering reuses the same panel positions (no port leak).
        let before = f.port_count();
        let id2 = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.request_teardown(id2).unwrap();
        ctl.run_until_idle();
        assert_eq!(ctl.net.fxc(fxc).port_count(), before);
    }

    #[test]
    fn metrics_record_setups() {
        let (mut ctl, ids, csp) = testbed_controller(true);
        for _ in 0..3 {
            let id = ctl
                .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap();
            ctl.run_until_idle();
            ctl.request_teardown(id).unwrap();
            ctl.run_until_idle();
        }
        assert_eq!(ctl.metrics.counter("setup.completed").get(), 3);
        let h = ctl.metrics.get_histogram("setup.secs").unwrap();
        assert_eq!(h.count(), 3);
        assert!((55.0..75.0).contains(&h.mean()), "mean={}", h.mean());
    }
}
