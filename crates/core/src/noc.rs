//! The NOC layer: deterministic telemetry scraping and cross-layer alarm
//! correlation (DESIGN.md §10).
//!
//! A carrier NOC does two things this module models:
//!
//! 1. **Telemetry.** A scrape engine driven by its own
//!    [`simcore::Scheduler`] samples every layer of the stack at a fixed
//!    sim-time cadence — per-degree wavelength occupancy and
//!    fragmentation, power-transient margins, EMS queue state, ODU
//!    grooming fill, controller connection/restoration/calendar state and
//!    cloud scheduler backlog — into a labeled
//!    [`simcore::FamilyRegistry`] with Prometheus-style exposition.
//! 2. **Alarm correlation.** A fiber cut raises a cascade — per-span LOS
//!    at the adjacent degrees, ODU AIS on riding trunks, terminal OT LOS
//!    and finally client-port drops. The correlation engine reduces the
//!    storm to one *root-cause domain* per injected fault, counts every
//!    secondary alarm as suppressed against its root, and records the
//!    detection → localization → restoration-start latency chain that
//!    feeds [`crate::sla`] availability accounting.
//!
//! ## Determinism contract
//!
//! The NOC is an **observer**. It owns its own scheduler, never touches
//! the controller's event queue, RNG, trace, span recorder or
//! [`simcore::MetricsRegistry`], and all of its state lives in `BTreeMap`s. Scrapes
//! execute at controller event boundaries (simulation state is
//! piecewise-constant between events, so sampling at the boundary equals
//! sampling at the nominal cadence instant) and are stamped with the
//! *nominal* scrape time. Simulation outcomes are therefore byte-identical
//! with the NOC enabled or disabled — `tests/determinism.rs` enforces it.

use std::collections::BTreeMap;

use photonic::{FiberId, RoadmId};
use simcore::{FamilyRegistry, GaugeId, Scheduler, SimDuration, SimTime};

/// §4 power transients: when a channel is added or removed, constant-gain
/// EDFAs divide the line's power swing among the surviving channels, so a
/// single survivor sees this depth (dB) and `k` survivors a `k`-th of it.
const TRANSIENT_WORST_CASE_DB: f64 = 3.0;
/// Transient depth (dB) below which receivers ride through without errors.
const TRANSIENT_TOLERANCE_DB: f64 = 0.5;

/// The root cause a domain of correlated alarms is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RootCause {
    /// A fiber cut (raw [`photonic::FiberId`]).
    FiberCut(u32),
    /// A transponder hardware fault (raw [`photonic::TransponderId`]).
    OtFault(u32),
}

impl std::fmt::Display for RootCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootCause::FiberCut(id) => write!(f, "fiber{id} cut"),
            RootCause::OtFault(id) => write!(f, "ot{id} fault"),
        }
    }
}

impl RootCause {
    /// Label value used in metric families.
    fn cause_label(&self) -> &'static str {
        match self {
            RootCause::FiberCut(_) => "fiber_cut",
            RootCause::OtFault(_) => "ot_fault",
        }
    }
}

/// Correlation state of one root-cause event.
#[derive(Debug, Clone)]
pub struct Domain {
    /// When the physical fault was injected.
    pub injected_at: SimTime,
    /// First alarm of any kind attributed here (detection).
    pub first_alarm_at: Option<SimTime>,
    /// When the root-cause alarm itself arrived (localization /
    /// notification).
    pub localized_at: Option<SimTime>,
    /// When the first restoration for this domain started.
    pub restoration_started_at: Option<SimTime>,
    /// Secondary alarms suppressed against this root.
    pub suppressed: u64,
}

/// One label value of a scrape sample, kept in the form the sweep has it
/// in; rendered to a string only when the sample's gauge is first
/// resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelValue {
    Roadm(RoadmId),
    Fiber(FiberId),
    Index(u32),
    Name(&'static str),
}

impl std::fmt::Display for LabelValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelValue::Roadm(r) => r.fmt(f),
            LabelValue::Fiber(fiber) => fiber.fmt(f),
            LabelValue::Index(i) => i.fmt(f),
            LabelValue::Name(n) => n.fmt(f),
        }
    }
}

/// Which gauge child a scrape sample writes: the family and up to two
/// labels. Plain `Copy` data, so comparing it against a cache slot
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SampleKey {
    family: &'static str,
    labels: [Option<(&'static str, LabelValue)>; 2],
}

impl SampleKey {
    /// Render the label strings and resolve (creating if need be) the
    /// gauge child this key names.
    fn resolve(&self, families: &mut FamilyRegistry) -> GaugeId {
        let rendered: Vec<(&str, String)> = self
            .labels
            .iter()
            .flatten()
            .map(|(k, v)| (*k, v.to_string()))
            .collect();
        let labels: Vec<(&str, &str)> = rendered.iter().map(|(k, v)| (*k, v.as_str())).collect();
        families.gauge_id(self.family, &labels)
    }
}

/// The NOC: scrape engine + correlation engine. Lives on
/// [`crate::controller::Controller`] as the `noc` field; disabled (and
/// free) by default — call [`Noc::enable`] before driving the controller.
#[derive(Default, Clone)]
pub struct Noc {
    enabled: bool,
    interval: SimDuration,
    /// Drives the scrape cadence; deliberately separate from the
    /// controller's scheduler so enabling the NOC adds no events there.
    sched: Scheduler<()>,
    /// All telemetry and correlation metric families.
    families: FamilyRegistry,
    /// Scrape id cache: slot `i` holds the key of the `i`-th sample of the
    /// last scrape and the gauge in `families` it resolved to. A sweep
    /// over an unchanged inventory emits the same keys in the same order,
    /// so every write is one indexed store; a slot whose key differs
    /// (inventory changed) re-resolves by name. The ids are only valid
    /// for `families`, which is why both fields are private and clone
    /// together.
    scrape_slots: Vec<(SampleKey, GaugeId)>,
    domains: BTreeMap<RootCause, Domain>,
    /// Inventory joins populated at fault-injection time: which fiber a
    /// symptom's reporting entity was riding. Keyed by raw ids because
    /// symptoms name entities across layers.
    ot_hint: BTreeMap<u32, u32>,
    trunk_hint: BTreeMap<u32, u32>,
    client_hint: BTreeMap<(u32, u32), u32>,
    unattributed: u64,
    scrapes: u64,
}

impl Noc {
    /// A disabled NOC (all observation hooks are no-ops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn the NOC on with the given scrape cadence. The first scrape is
    /// due one interval after the current controller time.
    pub fn enable(&mut self, interval: SimDuration) {
        assert!(
            interval > SimDuration::ZERO,
            "scrape interval must be positive"
        );
        self.enabled = true;
        self.interval = interval;
        self.sched.schedule_after(interval, ());
    }

    /// Is the NOC observing?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of completed scrapes.
    pub fn scrapes(&self) -> u64 {
        self.scrapes
    }

    /// All telemetry and correlation metric families.
    pub fn families(&self) -> &FamilyRegistry {
        &self.families
    }

    /// If a scrape is due at or before `now`, consume it, schedule the
    /// next one and return the *nominal* scrape time. The controller
    /// calls this after every event boundary and performs the actual
    /// layer sampling.
    pub(crate) fn take_due_scrape(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.enabled {
            return None;
        }
        let due = self.sched.peek_time()?;
        if due > now {
            return None;
        }
        let (t, ()) = self.sched.pop().expect("peeked event exists");
        self.sched.schedule_after(self.interval, ());
        self.scrapes += 1;
        self.families.counter("noc_scrapes_total", &[]).incr();
        Some(t)
    }

    /// Write sample number `pos` of the current scrape (see
    /// `scrape_slots`).
    fn put_sample(&mut self, pos: usize, key: SampleKey, v: f64) {
        let id = match self.scrape_slots.get(pos) {
            Some((cached, id)) if *cached == key => *id,
            _ => {
                let id = key.resolve(&mut self.families);
                self.scrape_slots.truncate(pos);
                self.scrape_slots.push((key, id));
                id
            }
        };
        self.families.gauge_at(id).set(v);
    }

    // ── fault-injection hooks (controller-facing) ───────────────────

    /// A physical fault was injected; open its root-cause domain.
    pub(crate) fn on_fault_injected(&mut self, cause: RootCause, at: SimTime) {
        if !self.enabled {
            return;
        }
        self.domains.entry(cause).or_insert(Domain {
            injected_at: at,
            first_alarm_at: None,
            localized_at: None,
            restoration_started_at: None,
            suppressed: 0,
        });
    }

    /// Inventory join: transponder `ot` was riding `fiber` when it was
    /// cut (its OT LOS will be attributed there).
    pub(crate) fn hint_ot(&mut self, ot: u32, fiber: u32) {
        if self.enabled {
            self.ot_hint.insert(ot, fiber);
        }
    }

    /// Inventory join: OTN trunk `trunk` was riding `fiber`.
    pub(crate) fn hint_trunk(&mut self, trunk: u32, fiber: u32) {
        if self.enabled {
            self.trunk_hint.insert(trunk, fiber);
        }
    }

    /// Inventory join: client port `(switch, port)` depended on `fiber`.
    pub(crate) fn hint_client(&mut self, switch: u32, port: u32, fiber: u32) {
        if self.enabled {
            self.client_hint.insert((switch, port), fiber);
        }
    }

    /// Resolve an OT LOS symptom to its root cause via the inventory join.
    pub(crate) fn resolve_ot(&self, ot: u32) -> Option<RootCause> {
        self.ot_hint.get(&ot).map(|f| RootCause::FiberCut(*f))
    }

    /// Resolve an ODU AIS symptom.
    pub(crate) fn resolve_trunk(&self, trunk: u32) -> Option<RootCause> {
        self.trunk_hint.get(&trunk).map(|f| RootCause::FiberCut(*f))
    }

    /// Resolve a client-port-down symptom.
    pub(crate) fn resolve_client(&self, switch: u32, port: u32) -> Option<RootCause> {
        self.client_hint
            .get(&(switch, port))
            .map(|f| RootCause::FiberCut(*f))
    }

    // ── alarm-arrival hooks ─────────────────────────────────────────

    /// The root-cause alarm itself arrived (FiberDown telemetry, OtFail
    /// equipment alarm). Records the detection and localization
    /// latencies relative to the injected fault.
    pub(crate) fn on_root_alarm(&mut self, cause: RootCause, at: SimTime) {
        if !self.enabled {
            return;
        }
        let label = cause.cause_label();
        let Some(d) = self.domains.get_mut(&cause) else {
            // A root alarm with no known injection (spontaneous telemetry)
            // opens its own domain with zero latency baseline.
            self.domains.insert(
                cause,
                Domain {
                    injected_at: at,
                    first_alarm_at: Some(at),
                    localized_at: Some(at),
                    restoration_started_at: None,
                    suppressed: 0,
                },
            );
            return;
        };
        if d.first_alarm_at.is_none() {
            d.first_alarm_at = Some(at);
            let secs = at.saturating_since(d.injected_at).as_secs_f64();
            self.families
                .histogram("noc_detect_secs", &[("cause", label)])
                .record(secs);
        }
        if d.localized_at.is_none() {
            d.localized_at = Some(at);
            let secs = at.saturating_since(d.injected_at).as_secs_f64();
            self.families
                .histogram("noc_localize_secs", &[("cause", label)])
                .record(secs);
        }
    }

    /// A secondary (symptom) alarm arrived, pre-resolved by the
    /// controller to its root cause (or `None` when no inventory join
    /// matched). Counts suppression or unattributed fallout.
    pub(crate) fn on_symptom(
        &mut self,
        resolved: Option<RootCause>,
        kind: &'static str,
        at: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        match resolved.and_then(|c| self.domains.get_mut(&c).map(|d| (c, d))) {
            Some((cause, d)) => {
                d.suppressed += 1;
                if d.first_alarm_at.is_none() {
                    d.first_alarm_at = Some(at);
                    let secs = at.saturating_since(d.injected_at).as_secs_f64();
                    self.families
                        .histogram("noc_detect_secs", &[("cause", cause.cause_label())])
                        .record(secs);
                }
                self.families
                    .counter("noc_alarms_suppressed_total", &[("kind", kind)])
                    .incr();
            }
            None => {
                self.unattributed += 1;
                self.families
                    .counter("noc_alarms_unattributed_total", &[("kind", kind)])
                    .incr();
            }
        }
    }

    /// The controller started the first restoration workflow after a
    /// fault. Attributed to the earliest localized domain that has not
    /// yet seen a restoration start; records the injection →
    /// restoration-start latency that bounds the outage the SLA ledger
    /// will account.
    pub(crate) fn on_restoration_started(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        let Some((cause, d)) = self
            .domains
            .iter_mut()
            .find(|(_, d)| d.localized_at.is_some() && d.restoration_started_at.is_none())
            .map(|(c, d)| (*c, d))
        else {
            return;
        };
        d.restoration_started_at = Some(at);
        let secs = at.saturating_since(d.injected_at).as_secs_f64();
        self.families
            .histogram("noc_restore_start_secs", &[("cause", cause.cause_label())])
            .record(secs);
    }

    /// An SLO burn-rate alert fired. Attribute it to the most recent
    /// root-cause domain already open at `at` — the fault whose fallout
    /// the burning error budget is measuring — and count it as an
    /// alarm-grade event in the families. Returns the attributed cause
    /// (`None` when no fault predates the alert: a burn with no known
    /// physical trigger is itself worth surfacing, as `cause="unknown"`).
    pub fn on_slo_alert(
        &mut self,
        slo: &str,
        severity: &'static str,
        at: SimTime,
    ) -> Option<RootCause> {
        if !self.enabled {
            return None;
        }
        let attributed = self
            .domains
            .iter()
            .filter(|(_, d)| d.injected_at <= at)
            .max_by_key(|(c, d)| (d.injected_at, **c))
            .map(|(c, _)| *c);
        let cause = attributed.map_or("unknown", |c| c.cause_label());
        self.families
            .counter(
                "noc_slo_alerts_total",
                &[("cause", cause), ("severity", severity), ("slo", slo)],
            )
            .incr();
        attributed
    }

    // ── reporting ───────────────────────────────────────────────────

    /// All root-cause domains, in deterministic order.
    pub fn domains(&self) -> impl Iterator<Item = (&RootCause, &Domain)> {
        self.domains.iter()
    }

    /// Total secondary alarms suppressed across all domains.
    pub fn suppressed_total(&self) -> u64 {
        self.domains.values().map(|d| d.suppressed).sum()
    }

    /// Secondary alarms that resolved to no known root cause. A healthy
    /// correlation run ends with zero.
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// Multi-line text dashboard: one row per root-cause domain with its
    /// suppression count and latency chain, plus totals.
    pub fn dashboard(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "NOC: {} scrapes @ {} | {} root cause(s), {} suppressed, {} unattributed",
            self.scrapes,
            self.interval,
            self.domains.len(),
            self.suppressed_total(),
            self.unattributed
        );
        for (cause, d) in &self.domains {
            let fmt_lat = |t: Option<SimTime>| match t {
                Some(t) => format!("{:.2}s", t.saturating_since(d.injected_at).as_secs_f64()),
                None => "—".to_string(),
            };
            let _ = writeln!(
                out,
                "  {cause}: injected [{}] detect={} localize={} restore-start={} suppressed={}",
                d.injected_at,
                fmt_lat(d.first_alarm_at),
                fmt_lat(d.localized_at),
                fmt_lat(d.restoration_started_at),
                d.suppressed
            );
        }
        out
    }

    /// Decision-point observation pushed by the cloud schedulers: the
    /// bulk-transfer backlog of one data-center pair. (The scrape engine
    /// cannot reach into a policy's run loop, so policies report their
    /// queue state at each decision tick; the gauges hold the latest.)
    pub fn observe_cloud_backlog(&mut self, pair: usize, backlog_tb: f64, active_members: u64) {
        if !self.enabled {
            return;
        }
        let p = pair.to_string();
        self.families
            .gauge("noc_cloud_backlog_tb", &[("pair", &p)])
            .set(backlog_tb);
        self.families
            .gauge("noc_cloud_pair_members", &[("pair", &p)])
            .set(active_members as f64);
    }

    /// Decision-point observation pushed by the measurement plane: the
    /// latest available-bandwidth estimate for one probed path and its
    /// error against the fluid ground truth. Mis-estimation is a NOC
    /// signal like any alarm — the gauges make it attributable next to
    /// the backlog it mis-sized.
    pub fn observe_available_bw(&mut self, path: &str, estimate_gbps: f64, error_pct: f64) {
        if !self.enabled {
            return;
        }
        self.families
            .gauge("noc_measure_available_gbps", &[("path", path)])
            .set(estimate_gbps);
        self.families
            .gauge("noc_measure_error_pct", &[("path", path)])
            .set(error_pct);
    }
}

/// Share of free channels *not* reachable in the largest contiguous free
/// block: 0 when the free space is one run (or the mask is empty), →1 as
/// the free space shatters into single-channel slivers.
fn fragmentation(free_mask: u128) -> f64 {
    let free = free_mask.count_ones() as f64;
    if free == 0.0 {
        return 0.0;
    }
    let mut largest: u32 = 0;
    let mut run: u32 = 0;
    let mut m = free_mask;
    while m != 0 {
        if m & 1 == 1 {
            run += 1;
            largest = largest.max(run);
        } else {
            run = 0;
        }
        m >>= 1;
    }
    1.0 - f64::from(largest) / free
}

impl crate::controller::Controller {
    /// Run every scrape whose nominal time has been reached. Called at
    /// each event boundary by `step`/`run_until`; a no-op while the NOC
    /// is disabled.
    pub(crate) fn noc_pump(&mut self) {
        if !self.noc.is_enabled() {
            return;
        }
        let now = self.now();
        while let Some(t) = self.noc.take_due_scrape(now) {
            self.noc_scrape(t);
        }
    }

    /// One full multi-layer telemetry sweep, stamped with the nominal
    /// scrape time `t`. Each sample goes straight into the NOC's families
    /// through the scrape id cache; the sweep itself reads only the other
    /// controller fields.
    fn noc_scrape(&mut self, t: SimTime) {
        use crate::calendar::ReservationState;
        use crate::connection::ConnState;
        use LabelValue::{Fiber, Index, Name, Roadm};

        let index = |i: usize| Index(u32::try_from(i).expect("inventory index fits u32"));
        let noc = &mut self.noc;
        let mut pos = 0;
        let mut put =
            |family: &'static str, labels: [Option<(&'static str, LabelValue)>; 2], v: f64| {
                noc.put_sample(pos, SampleKey { family, labels }, v);
                pos += 1;
            };

        let secs = t.saturating_since(SimTime::ZERO).as_secs_f64();
        put("noc_scrape_time_secs", [None, None], secs);
        // Photonic layer: per-degree wavelength occupancy + fragmentation.
        for r in self.net.roadm_ids() {
            let roadm = self.net.roadm(r);
            for di in 0..roadm.degree_count() {
                let d = photonic::DegreeId::from_index(di);
                let labels = [Some(("roadm", Roadm(r))), Some(("degree", index(di)))];
                put("noc_degree_lit_lambdas", labels, roadm.lit_count(d) as f64);
                put(
                    "noc_degree_fragmentation",
                    labels,
                    fragmentation(roadm.free_mask(d)),
                );
            }
        }
        // Power layer: per-fiber transient margin — how many dB of
        // tolerance remain if one channel drops off the line right now.
        // Negative on thin lines: the channel count is below the safe
        // survivor threshold.
        for f in self.net.fiber_ids() {
            let lit = self.net.lit_lambdas_on_fiber(f);
            let survivors = lit.saturating_sub(1);
            let depth = if survivors == 0 {
                0.0
            } else {
                TRANSIENT_WORST_CASE_DB / survivors as f64
            };
            let margin = TRANSIENT_TOLERANCE_DB - depth;
            put(
                "noc_power_margin_db",
                [Some(("fiber", Fiber(f))), None],
                margin,
            );
        }
        // EMS plane: serialized command queue and in-flight workflows.
        put(
            "noc_ems_queue_depth",
            [Some(("queue", Name("restoration"))), None],
            self.restoration_queue.len() as f64,
        );
        put(
            "noc_ems_inflight",
            [Some(("kind", Name("restoration"))), None],
            self.restorations_in_flight as f64,
        );
        for (kind, state) in [
            ("provisioning", ConnState::Provisioning),
            ("tearing_down", ConnState::TearingDown),
            ("restoring", ConnState::Restoring),
        ] {
            let n = self.conns.values().filter(|c| c.state == state).count();
            put(
                "noc_ems_inflight",
                [Some(("kind", Name(kind))), None],
                n as f64,
            );
        }
        // OTN layer: switch fabric load and trunk tributary fill.
        for (i, sw) in self.switches.iter().enumerate() {
            let labels = [Some(("switch", index(i))), None];
            put("noc_otn_fabric_gbps", labels, sw.fabric_used().gbps_f64());
            put("noc_otn_xc_count", labels, sw.xc_count() as f64);
        }
        for tr in &self.trunks {
            let (sw, port) = tr.line_a;
            let total = self.switches[sw].total_ts(port);
            let fill = if total == 0 {
                0.0
            } else {
                1.0 - self.switches[sw].free_ts(port) as f64 / total as f64
            };
            let labels = [Some(("trunk", Index(tr.id.raw()))), None];
            put("noc_trunk_fill", labels, fill);
            put("noc_trunk_ready", labels, f64::from(u8::from(tr.ready)));
        }
        // Controller: connection census, fault state, calendar.
        for (label, state) in [
            ("provisioning", ConnState::Provisioning),
            ("active", ConnState::Active),
            ("failed", ConnState::Failed),
            ("restoring", ConnState::Restoring),
            ("tearing_down", ConnState::TearingDown),
            ("released", ConnState::Released),
            ("blocked", ConnState::Blocked),
        ] {
            let n = self.conns.values().filter(|c| c.state == state).count();
            put(
                "noc_connections",
                [Some(("state", Name(label))), None],
                n as f64,
            );
        }
        put(
            "noc_down_fibers",
            [None, None],
            self.down_fibers.len() as f64,
        );
        for (label, pred) in [
            (
                "booked",
                (&|s: &ReservationState| matches!(s, ReservationState::Booked))
                    as &dyn Fn(&ReservationState) -> bool,
            ),
            ("active", &|s| matches!(s, ReservationState::Active(_))),
            ("completed", &|s| matches!(s, ReservationState::Completed)),
            ("failed", &|s| {
                matches!(s, ReservationState::ActivationFailed(_))
            }),
        ] {
            let n = self.reservations.iter().filter(|r| pred(&r.state)).count();
            put(
                "noc_reservations",
                [Some(("state", Name(label))), None],
                n as f64,
            );
        }
    }

    /// Feed one delivered alarm to the correlation engine, resolving
    /// symptoms to their root cause via topology state and the NOC's
    /// inventory joins. Called from the alarm handler; a no-op while the
    /// NOC is disabled.
    pub(crate) fn noc_observe_alarm(&mut self, alarm: &photonic::Alarm) {
        if !self.noc.is_enabled() {
            return;
        }
        use photonic::alarm::AlarmKind;
        match alarm.kind {
            AlarmKind::FiberDown { fiber } => self
                .noc
                .on_root_alarm(RootCause::FiberCut(fiber.raw()), alarm.at),
            AlarmKind::OtFail { ot } => self
                .noc
                .on_root_alarm(RootCause::OtFault(ot.raw()), alarm.at),
            AlarmKind::DegreeLos { roadm, degree, .. } => {
                let cause = self
                    .net
                    .roadm(roadm)
                    .fiber_of(degree)
                    .ok()
                    .map(|f| RootCause::FiberCut(f.raw()));
                self.noc.on_symptom(cause, "degree_los", alarm.at);
            }
            AlarmKind::OtLos { ot } => {
                let cause = self.noc.resolve_ot(ot.raw());
                self.noc.on_symptom(cause, "ot_los", alarm.at);
            }
            AlarmKind::OduAis { trunk } => {
                let cause = self.noc.resolve_trunk(trunk);
                self.noc.on_symptom(cause, "odu_ais", alarm.at);
            }
            AlarmKind::ClientPortDown { switch, port } => {
                let cause = self.noc.resolve_client(switch, port);
                self.noc.on_symptom(cause, "client_port_down", alarm.at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noc_is_inert() {
        let mut noc = Noc::new();
        noc.on_fault_injected(RootCause::FiberCut(1), SimTime::ZERO);
        noc.on_root_alarm(RootCause::FiberCut(1), SimTime::from_secs(1));
        noc.on_symptom(
            Some(RootCause::FiberCut(1)),
            "degree_los",
            SimTime::from_secs(1),
        );
        noc.on_restoration_started(SimTime::from_secs(2));
        assert!(noc.families().is_empty());
        assert_eq!(noc.domains().count(), 0);
        assert_eq!(noc.take_due_scrape(SimTime::from_secs(100)), None);
    }

    #[test]
    fn scrape_cadence_is_exact() {
        let mut noc = Noc::new();
        noc.enable(SimDuration::from_secs(60));
        assert_eq!(noc.take_due_scrape(SimTime::from_secs(59)), None);
        assert_eq!(
            noc.take_due_scrape(SimTime::from_secs(60)),
            Some(SimTime::from_secs(60))
        );
        // A long gap releases every missed tick at its nominal time.
        assert_eq!(
            noc.take_due_scrape(SimTime::from_secs(200)),
            Some(SimTime::from_secs(120))
        );
        assert_eq!(
            noc.take_due_scrape(SimTime::from_secs(200)),
            Some(SimTime::from_secs(180))
        );
        assert_eq!(noc.take_due_scrape(SimTime::from_secs(200)), None);
        assert_eq!(noc.scrapes(), 3);
    }

    #[test]
    fn cascade_correlates_to_one_root() {
        let mut noc = Noc::new();
        noc.enable(SimDuration::from_secs(60));
        let t0 = SimTime::from_secs(100);
        noc.on_fault_injected(RootCause::FiberCut(7), t0);
        noc.hint_ot(3, 7);
        noc.hint_trunk(1, 7);
        noc.hint_client(0, 5, 7);
        // Symptoms arrive before the root telemetry (DegreeLos at +50 ms
        // beats FiberDown at +500 ms).
        let ms = |m: u64| t0 + SimDuration::from_millis(m);
        noc.on_symptom(Some(RootCause::FiberCut(7)), "degree_los", ms(50));
        noc.on_symptom(Some(RootCause::FiberCut(7)), "degree_los", ms(50));
        noc.on_root_alarm(RootCause::FiberCut(7), ms(500));
        noc.on_symptom(noc.resolve_trunk(1), "odu_ais", ms(1000));
        noc.on_symptom(noc.resolve_ot(3), "ot_los", ms(2500));
        noc.on_symptom(noc.resolve_client(0, 5), "client_port_down", ms(3000));
        noc.on_restoration_started(ms(600));
        assert_eq!(noc.suppressed_total(), 5);
        assert_eq!(noc.unattributed(), 0);
        let (_, d) = noc.domains().next().unwrap();
        assert_eq!(d.first_alarm_at, Some(ms(50)));
        assert_eq!(d.localized_at, Some(ms(500)));
        assert_eq!(d.restoration_started_at, Some(ms(600)));
        // Latency chain landed in the families.
        let h = noc
            .families
            .get_histogram("noc_detect_secs", &[("cause", "fiber_cut")])
            .unwrap();
        assert!((h.mean() - 0.05).abs() < 1e-9);
        let dash = noc.dashboard();
        assert!(dash.contains("fiber7 cut"), "{dash}");
        assert!(dash.contains("suppressed=5"), "{dash}");
    }

    #[test]
    fn slo_alerts_attribute_to_latest_open_domain() {
        let mut noc = Noc::new();
        noc.enable(SimDuration::from_secs(60));
        // No fault yet: the alert is surfaced but unattributed.
        assert_eq!(
            noc.on_slo_alert("availability", "page", SimTime::from_secs(5)),
            None
        );
        noc.on_fault_injected(RootCause::FiberCut(3), SimTime::from_secs(10));
        noc.on_fault_injected(RootCause::OtFault(8), SimTime::from_secs(40));
        // Alert between the two faults → the fiber cut owns it.
        assert_eq!(
            noc.on_slo_alert("availability", "page", SimTime::from_secs(20)),
            Some(RootCause::FiberCut(3))
        );
        // Alert after both → the most recent fault owns it.
        assert_eq!(
            noc.on_slo_alert("setup_latency_p99", "ticket", SimTime::from_secs(90)),
            Some(RootCause::OtFault(8))
        );
        let exp = noc.families().expose();
        assert!(
            exp.contains(
                "noc_slo_alerts_total{cause=\"unknown\",severity=\"page\",slo=\"availability\"} 1"
            ),
            "{exp}"
        );
        assert!(
            exp.contains(
                "noc_slo_alerts_total{cause=\"fiber_cut\",severity=\"page\",slo=\"availability\"} 1"
            ),
            "{exp}"
        );
        // Disabled NOCs ignore alerts entirely.
        let mut off = Noc::new();
        assert_eq!(
            off.on_slo_alert("availability", "page", SimTime::ZERO),
            None
        );
        assert!(off.families().is_empty());
    }

    fn scraping_controller() -> crate::controller::Controller {
        let (net, _) = photonic::PhotonicNetwork::testbed(4);
        let mut ctl = crate::controller::Controller::new(net, Default::default());
        ctl.noc.enable(SimDuration::from_secs(60));
        ctl
    }

    /// The same controller state scraped at `t` by a NOC that has never
    /// scraped before.
    fn cold_scrape(ctl: &crate::controller::Controller, t: SimTime) -> String {
        let mut cold = ctl.fork();
        cold.noc = Noc::new();
        cold.noc.enable(SimDuration::from_secs(60));
        cold.noc_scrape(t);
        cold.noc.families().expose()
    }

    #[test]
    fn scrape_after_inventory_change_matches_a_cold_noc() {
        let mut ctl = scraping_controller();
        ctl.noc_scrape(SimTime::from_secs(60));
        let warm_slots = ctl.noc.scrape_slots.len();
        assert_eq!(
            ctl.noc.families().expose(),
            cold_scrape(&ctl, SimTime::from_secs(60))
        );
        // A new ROADM and fibre land in the middle of the sweep order, so
        // every later slot's cached key no longer matches its sample.
        let first = ctl.net.roadm_ids().next().expect("testbed has nodes");
        let added = ctl.net.add_roadm("added");
        ctl.net.link(first, added, 40.0).expect("fresh link");
        let t = SimTime::from_secs(120);
        ctl.noc_scrape(t);
        assert!(ctl.noc.scrape_slots.len() > warm_slots);
        assert_eq!(ctl.noc.families().expose(), cold_scrape(&ctl, t));
        // And the re-resolved cache is itself right on the next sweep.
        let t = SimTime::from_secs(180);
        ctl.noc_scrape(t);
        assert_eq!(ctl.noc.families().expose(), cold_scrape(&ctl, t));
    }

    #[test]
    fn fork_carries_cache_and_registry_together() {
        let mut ctl = scraping_controller();
        ctl.noc_scrape(SimTime::from_secs(60));
        let mut replica = ctl.fork();
        assert_eq!(replica.noc.scrape_slots, ctl.noc.scrape_slots);
        // The replica's inventory moves on; its cached ids must still
        // name children of *its* registry.
        let first = replica.net.roadm_ids().next().expect("testbed has nodes");
        let added = replica.net.add_roadm("added");
        replica.net.link(first, added, 40.0).expect("fresh link");
        let t = SimTime::from_secs(120);
        replica.noc_scrape(t);
        ctl.noc_scrape(t);
        assert_eq!(replica.noc.families().expose(), cold_scrape(&replica, t));
        assert_eq!(ctl.noc.families().expose(), cold_scrape(&ctl, t));
        assert_ne!(
            replica.noc.families().expose(),
            ctl.noc.families().expose(),
            "the replica's registry is its own"
        );
    }

    #[test]
    fn unresolvable_symptom_counts_as_unattributed() {
        let mut noc = Noc::new();
        noc.enable(SimDuration::from_secs(60));
        noc.on_symptom(None, "ot_los", SimTime::from_secs(1));
        assert_eq!(noc.unattributed(), 1);
        assert_eq!(
            noc.families
                .counter_family_total("noc_alarms_unattributed_total"),
            1
        );
    }
}
