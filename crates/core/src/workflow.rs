//! The EMS workflow interpreter.
//!
//! Every controller workflow is serial phases of parallel EMS commands
//! (DESIGN §9), written down once below as a table of phases.
//! [`Controller::start`] runs any of them: it draws every command's
//! latency in table order, schedules the completion after the sum of
//! each phase's widest draw, and lays the *same* draws out as phase and
//! device spans under the workflow's root — so the completion time, the
//! trace breakdown and the span tree share one set of draws, and the
//! phases tile the workflow in integer nanoseconds. The draws live in
//! one controller-owned scratch buffer, so a workflow allocates nothing
//! for its sample.

use std::fmt;

use photonic::power::split_even;
use photonic::EmsCommand::{self, *};
use photonic::EqualizationModel;
use simcore::{SimDuration, SimTime, SpanId, SpanRecorder};

use crate::connection::{ConnectionId, TrunkId};
use crate::controller::{Controller, Event, WorkflowKind};
use Count::{Fixed, PerNode};
use Step::{Device, Equalize, Serial};

/// How many parallel commands a step issues on an `n`-hop path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Count {
    /// A fixed number.
    Fixed(usize),
    /// One per node (`n + 1`): the ROADMs of a path, or the OTN
    /// switches along `n` trunks.
    PerNode,
}

/// One command group of a phase.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Controller-side bookkeeping: one draw, timed, no device span.
    Serial(EmsCommand),
    /// Parallel device commands, one span each, indexed by the named
    /// attribute if there is one.
    Device(EmsCommand, Count, Option<&'static str>),
    /// Power equalization over the path's hops (`photonic::power`): one
    /// draw, laid out as convergence iterations of per-hop adjustments.
    Equalize,
}

/// Every command `steps` issue on an `n`-hop path, in table order, with
/// its index within its step.
fn commands(steps: &'static [Step], n: usize) -> impl Iterator<Item = (Step, usize)> {
    steps.iter().flat_map(move |&step| {
        let count = match step {
            Device(_, Fixed(k), _) => k,
            Device(_, PerNode, _) => n + 1,
            Serial(_) | Equalize => 1,
        };
        (0..count).map(move |i| (step, i))
    })
}

/// A phase: its span name and the steps it runs in parallel.
pub(crate) type Phase = (&'static str, &'static [Step]);

/// A workflow: its phases, run one after another.
pub(crate) type Workflow = &'static [Phase];

/// Wavelength setup: session → FXC pair → per-node ROADM configuration
/// → OT tune pair → path validation → power equalization. Bridges,
/// re-grooming, restoration and both trunk workflows run it too.
pub(crate) const SETUP: Workflow = &[
    ("phase.session", &[Serial(SetupSession)]),
    ("phase.fxc", &[Device(FxcSwitch, Fixed(2), Some("end"))]),
    (
        "phase.roadm",
        &[Device(RoadmConfigure, PerNode, Some("node"))],
    ),
    ("phase.tune", &[Device(OtTune, Fixed(2), Some("end"))]),
    ("phase.validate", &[Serial(PathValidate)]),
    ("phase.equalize", &[Equalize]),
];

/// Wavelength teardown: session → (ROADM deconfigure ∥ OT release) → FXC.
pub(crate) const TEARDOWN: Workflow = &[
    ("phase.session", &[Serial(TeardownSession)]),
    (
        "phase.deconfigure",
        &[
            Device(RoadmDeconfigure, Fixed(1), None),
            Device(OtRelease, Fixed(1), None),
        ],
    ),
    ("phase.fxc", &[Device(FxcSwitch, Fixed(1), None)]),
];

/// Sub-wavelength setup over `n` trunks: OTN session → one electronic
/// cross-connect per switch.
pub(crate) const SUBWL_SETUP: Workflow = &[
    ("phase.otn_session", &[Serial(OtnSession)]),
    (
        "phase.xconnect",
        &[Device(OtnXconnect, PerNode, Some("switch"))],
    ),
];

/// Sub-wavelength teardown: OTN session → cross-connect removal.
pub(crate) const SUBWL_TEARDOWN: Workflow = &[
    ("phase.otn_session", &[Serial(OtnSession)]),
    (
        "phase.xconnect",
        &[Device(OtnXconnectRemove, Fixed(1), None)],
    ),
];

/// Bridge-and-roll's roll: one FXC switch at each end — the service hit.
pub(crate) const ROLL: Workflow = &[("phase.fxc", &[Device(FxcSwitch, Fixed(2), Some("end"))])];

/// Whose completion a workflow schedules.
#[derive(Debug)]
pub(crate) enum Owner {
    /// A connection workflow, completed by `WorkflowDone { conn, kind }`.
    Conn(ConnectionId, WorkflowKind),
    /// A restoration queued since the given instant: its root opens
    /// there, and the wait shows as a `restore.queue_wait` phase.
    Restore(ConnectionId, SimTime),
    /// A trunk workflow, completed by `TrunkReady` or `TrunkRestored`.
    Trunk(TrunkId, Event),
}

impl Controller {
    /// Start a workflow for `owner`: draw `flows` (run one after another)
    /// for an `n`-hop path, open the root span `name` with `attrs`, lay
    /// the phases out under it and schedule the completion. Returns the
    /// workflow's duration.
    pub(crate) fn start(
        &mut self,
        owner: Owner,
        name: &'static str,
        attrs: &[(&'static str, u64)],
        flows: &[Workflow],
        n: usize,
    ) -> SimDuration {
        let now = self.now();
        let (at, category, key, id) = match owner {
            Owner::Conn(conn, _) => (now, "conn", "conn", conn.raw()),
            Owner::Restore(conn, since) => (since, "conn", "conn", conn.raw()),
            Owner::Trunk(trunk, _) => (now, "otn", "trunk", trunk.raw()),
        };
        let root = self.spans.open(at, category, name, None);
        for &(key, value) in [(key, u64::from(id))].iter().chain(attrs) {
            self.spans.attr_u64(root, key, value);
        }
        if at < now {
            let qw = self
                .spans
                .record(at, now, "phase", "restore.queue_wait", Some(root));
            self.spans
                .attr_u64(qw, "queue_wait_ns", now.since(at).as_nanos());
        }
        self.draws.clear();
        let mut end = now;
        for flow in flows {
            end = self.run_flow(root, end, flow, n);
        }
        let total = end.since(now);
        let conn = match owner {
            Owner::Conn(conn, kind) => (conn, kind),
            Owner::Restore(conn, _) => (conn, WorkflowKind::Restore),
            Owner::Trunk(trunk, ev) => {
                if root.is_valid() {
                    self.trunk_spans.insert(trunk, root);
                }
                let label = match ev {
                    Event::TrunkRestored { .. } => "trunk_restore",
                    _ => "trunk_provision",
                };
                self.workflows.begin(trunk.raw(), label);
                self.sched.schedule_after(total, ev);
                return total;
            }
        };
        if root.is_valid() {
            self.workflow_spans.insert(conn, root);
        }
        self.schedule_workflow(total, conn.0, conn.1);
        total
    }

    /// Run `flow` from `t0` on an `n`-hop path and return when it ends.
    /// Phases run in sequence: each draws its commands into the scratch
    /// buffer in table order and is as wide as its widest draw. Under a
    /// valid `root` each phase becomes a span carrying the time it waited
    /// behind the flow's earlier phases (`queue_wait_ns`), with one device
    /// span per command starting with the phase and lasting its own draw.
    fn run_flow(&mut self, root: SpanId, t0: SimTime, flow: Workflow, n: usize) -> SimTime {
        let mut t = t0;
        for &(name, steps) in flow {
            let first = self.draws.len();
            for (step, _) in commands(steps, n) {
                let d = match step {
                    Serial(cmd) | Device(cmd, ..) => self.ems.latency(cmd, &mut self.rng),
                    Equalize => self.cfg.equalization.duration(n, &mut self.rng),
                };
                self.draws.push(d);
            }
            let (spans, eq) = (&mut self.spans, &self.cfg.equalization);
            let draws = self.draws[first..].iter().copied();
            let width = draws.clone().max().unwrap_or_default();
            if root.is_valid() {
                let ph = spans.record(t, t + width, "phase", name, Some(root));
                spans.attr_u64(ph, "queue_wait_ns", t.since(t0).as_nanos());
                for ((step, i), d) in commands(steps, n).zip(draws) {
                    match step {
                        Serial(_) => {}
                        Device(cmd, _, index) => {
                            let op = spans.record(t, t + d, "device", cmd.span_name(), Some(ph));
                            if let Some(key) = index {
                                spans.attr_u64(op, key, i as u64);
                            }
                        }
                        Equalize => equalize_spans(spans, eq, ph, t, d, n.max(1)),
                    }
                }
            }
            t += width;
        }
        t
    }

    /// The per-phase widths of the last workflow started, if it ran
    /// `flow` alone on an `n`-hop path: `session=… fxc=… …`, each phase
    /// named without its `phase.` prefix.
    pub(crate) fn breakdown(&self, flow: Workflow, n: usize) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            let mut draws = self.draws.iter().copied();
            for (i, &(name, steps)) in flow.iter().enumerate() {
                let count = commands(steps, n).count();
                let width = draws.by_ref().take(count).max().unwrap_or_default();
                let name = name.trim_start_matches("phase.");
                write!(f, "{}{name}={width}", if i == 0 { "" } else { " " })?;
            }
            Ok(())
        })
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
}

/// Equalization under phase `ph`: convergence iterations tiling `total`
/// from `t`, each measuring and adjusting every one of `hops` in turn.
fn equalize_spans(
    spans: &mut SpanRecorder,
    eq: &EqualizationModel,
    ph: SpanId,
    t: SimTime,
    total: SimDuration,
    hops: usize,
) {
    let mut it_t = t;
    for (i, it_d) in eq.iteration_splits(hops, total).into_iter().enumerate() {
        let it = spans.record(it_t, it_t + it_d, "device", "equalize.iter", Some(ph));
        spans.attr_u64(it, "iter", i as u64);
        let mut hop_t = it_t;
        for (h, hop_d) in split_even(it_d, hops).into_iter().enumerate() {
            let op = spans.record(hop_t, hop_t + hop_d, "device", "equalize.hop", Some(it));
            spans.attr_u64(op, "hop", h as u64);
            hop_t += hop_d;
        }
        it_t += it_d;
    }
}
