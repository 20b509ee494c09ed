//! Element Management System (EMS) emulation.
//!
//! The GRIPhoN controller never touches hardware directly: every action
//! goes through a vendor-supplied EMS (§2.2 — "The GRIPhoN controller
//! communicates with the network elements via the appropriate
//! vendor-supplied EMS"). The paper found that EMS configuration steps
//! plus optical tasks put wavelength setup at 60–70 s, and stresses these
//! times reflect "a lack of current carrier requirements for speed", not
//! physics.
//!
//! This module models the EMS as a *latency oracle*: each
//! [`EmsCommand`] has a mean duration and relative jitter in an
//! [`EmsProfile`]; [`EmsLatencyModel`] samples concrete durations. The
//! controller's workflow engine (in the `griphon` crate) owns sequencing:
//! which commands run sequentially, which in parallel, and what state
//! change is applied when each completes.
//!
//! ## Calibration (Table 2)
//!
//! End-to-end wavelength setup on the testbed decomposes as
//!
//! ```text
//! T(n) = session + 2·(FXC in parallel ≈ fxc)   [client-side switching]
//!        + roadm_configure (all nodes in parallel)
//!        + ot_tune (both ends in parallel)      [dominant fixed cost]
//!        + path_validate
//!        + equalization(n)                      [see crate::power]
//!      = 20.0 + 0.05 + 5.0 + 30.0 + 6.32 + (1.04·n² + 0.07·n)
//!      = 61.37 + 0.07·n + 1.04·n²
//! ```
//!
//! which reproduces the paper's 62.48 / 65.67 / 70.94 s at n = 1/2/3.
//! Teardown is `teardown_session + roadm_deconfigure ∥ ot_release ≈ 10 s`.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimRng};

/// A command the controller can issue to some element's EMS.
///
/// OTN-switch commands are included alongside photonic ones because the
/// controller drives every element class through the same vendor-EMS
/// abstraction; the latency profile differs per command, not per module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmsCommand {
    /// Open a provisioning session: order validation, route/database
    /// bookkeeping inside the EMS, inventory locks.
    SetupSession,
    /// Close-out bookkeeping for a teardown order.
    TeardownSession,
    /// Reconfigure a fiber cross-connect (one port pair).
    FxcSwitch,
    /// Configure one ROADM (add/drop or express) for a wavelength.
    RoadmConfigure,
    /// Remove one ROADM's configuration for a wavelength.
    RoadmDeconfigure,
    /// Tune a transponder's laser to a wavelength and bring it up.
    OtTune,
    /// Turn a transponder's laser off.
    OtRelease,
    /// End-to-end continuity/quality validation of the new path.
    PathValidate,
    /// Create one ODU cross-connect in an OTN switch.
    OtnXconnect,
    /// Remove one ODU cross-connect.
    OtnXconnectRemove,
    /// Order bookkeeping for an OTN-layer (electronic) service — much
    /// lighter than a DWDM provisioning session.
    OtnSession,
}

impl EmsCommand {
    /// The device-operation span name the tracing layer records for this
    /// command (`simcore::span`): EMS bookkeeping keeps an `ems.` prefix,
    /// element commands are named after the hardware they drive.
    pub fn span_name(self) -> &'static str {
        match self {
            EmsCommand::SetupSession => "ems.session",
            EmsCommand::TeardownSession => "ems.teardown_session",
            EmsCommand::FxcSwitch => "fxc.switch",
            EmsCommand::RoadmConfigure => "wss.reconfigure",
            EmsCommand::RoadmDeconfigure => "wss.deconfigure",
            EmsCommand::OtTune => "laser.tune",
            EmsCommand::OtRelease => "laser.release",
            EmsCommand::PathValidate => "ems.path_validate",
            EmsCommand::OtnXconnect => "otn.xconnect",
            EmsCommand::OtnXconnectRemove => "otn.xconnect_remove",
            EmsCommand::OtnSession => "otn.session",
        }
    }
}

/// Mean latency (seconds) and relative jitter for each command class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmsProfile {
    /// Mean seconds for [`EmsCommand::SetupSession`].
    pub setup_session: f64,
    /// Mean seconds for [`EmsCommand::TeardownSession`].
    pub teardown_session: f64,
    /// Mean seconds for [`EmsCommand::FxcSwitch`].
    pub fxc_switch: f64,
    /// Mean seconds for [`EmsCommand::RoadmConfigure`].
    pub roadm_configure: f64,
    /// Mean seconds for [`EmsCommand::RoadmDeconfigure`].
    pub roadm_deconfigure: f64,
    /// Mean seconds for [`EmsCommand::OtTune`].
    pub ot_tune: f64,
    /// Mean seconds for [`EmsCommand::OtRelease`].
    pub ot_release: f64,
    /// Mean seconds for [`EmsCommand::PathValidate`].
    pub path_validate: f64,
    /// Mean seconds for [`EmsCommand::OtnXconnect`] — electronic switching
    /// is orders of magnitude faster than optical turn-up (§1: low-rate
    /// BoD is "achievable today by re-configuring electronic circuit
    /// switches").
    pub otn_xconnect: f64,
    /// Mean seconds for [`EmsCommand::OtnXconnectRemove`].
    pub otn_xconnect_remove: f64,
    /// Mean seconds for [`EmsCommand::OtnSession`].
    pub otn_session: f64,
    /// Relative jitter (std-dev / mean) applied to every command.
    pub jitter_rel_sigma: f64,
}

impl EmsProfile {
    /// The profile calibrated to the paper's testbed (see module docs).
    pub fn calibrated() -> EmsProfile {
        EmsProfile {
            setup_session: 20.0,
            teardown_session: 5.0,
            fxc_switch: 0.05,
            roadm_configure: 5.0,
            roadm_deconfigure: 4.0,
            ot_tune: 30.0,
            ot_release: 1.0,
            path_validate: 6.32,
            otn_xconnect: 0.25,
            otn_xconnect_remove: 0.15,
            otn_session: 1.0,
            jitter_rel_sigma: 0.02,
        }
    }

    /// Calibrated profile with jitter disabled (exact-value tests).
    pub fn calibrated_deterministic() -> EmsProfile {
        EmsProfile {
            jitter_rel_sigma: 0.0,
            ..Self::calibrated()
        }
    }

    /// A hypothetical fast EMS (§4: no fundamental limitation) — every
    /// command 20× faster. Used by the ablation bench.
    pub fn optimized() -> EmsProfile {
        let c = Self::calibrated();
        EmsProfile {
            setup_session: c.setup_session / 20.0,
            teardown_session: c.teardown_session / 20.0,
            fxc_switch: c.fxc_switch,
            roadm_configure: c.roadm_configure / 20.0,
            roadm_deconfigure: c.roadm_deconfigure / 20.0,
            ot_tune: c.ot_tune / 20.0,
            ot_release: c.ot_release / 20.0,
            path_validate: c.path_validate / 20.0,
            otn_xconnect: c.otn_xconnect,
            otn_xconnect_remove: c.otn_xconnect_remove,
            otn_session: c.otn_session,
            jitter_rel_sigma: c.jitter_rel_sigma,
        }
    }

    /// Mean seconds for a command.
    pub fn mean_secs(&self, cmd: EmsCommand) -> f64 {
        match cmd {
            EmsCommand::SetupSession => self.setup_session,
            EmsCommand::TeardownSession => self.teardown_session,
            EmsCommand::FxcSwitch => self.fxc_switch,
            EmsCommand::RoadmConfigure => self.roadm_configure,
            EmsCommand::RoadmDeconfigure => self.roadm_deconfigure,
            EmsCommand::OtTune => self.ot_tune,
            EmsCommand::OtRelease => self.ot_release,
            EmsCommand::PathValidate => self.path_validate,
            EmsCommand::OtnXconnect => self.otn_xconnect,
            EmsCommand::OtnXconnectRemove => self.otn_xconnect_remove,
            EmsCommand::OtnSession => self.otn_session,
        }
    }
}

/// Samples concrete command durations from a profile.
#[derive(Debug, Clone)]
pub struct EmsLatencyModel {
    profile: EmsProfile,
}

impl EmsLatencyModel {
    /// Wrap a profile.
    pub fn new(profile: EmsProfile) -> EmsLatencyModel {
        EmsLatencyModel { profile }
    }

    /// Sample the duration of one command.
    pub fn latency(&self, cmd: EmsCommand, rng: &mut SimRng) -> SimDuration {
        let mean = self.profile.mean_secs(cmd);
        let secs = if self.profile.jitter_rel_sigma > 0.0 {
            rng.normal_min(mean, mean * self.profile.jitter_rel_sigma, 0.0)
        } else {
            mean
        };
        SimDuration::from_secs_f64(secs)
    }
}

/// Tracks in-flight multi-step EMS workflows for crash recovery.
///
/// Every EMS workflow (connection setup, teardown, restoration,
/// bridge-and-roll, trunk turn-up…) spans many vendor-EMS commands; a
/// controller crash mid-workflow leaves the question of what happens to
/// the half-issued command sequence. The ledger answers it: the
/// controller `begin`s an entry when it schedules a workflow's
/// completion and `complete`s it when the completion event fires, so at
/// any instant the open set *is* the in-flight EMS work. On recovery,
/// deterministic replay re-issues every open workflow from its logged
/// intent (`mark_resumed`); intents lost to a torn log tail were never
/// executed and are rolled back (`mark_rolled_back`).
///
/// Keys are `(entity raw id, workflow label)` with a count, so two
/// concurrent workflows of the same kind on one entity (legal during
/// races) are tracked exactly. Contents are a deterministic function of
/// the event stream — safe to include in controller state digests.
#[derive(Debug, Clone, Default)]
pub struct WorkflowLedger {
    open: std::collections::BTreeMap<(u32, &'static str), u32>,
    begun: u64,
    completed: u64,
    resumed: u64,
    rolled_back: u64,
}

impl WorkflowLedger {
    /// A workflow on `entity` was scheduled against the EMS plane.
    pub fn begin(&mut self, entity: u32, kind: &'static str) {
        *self.open.entry((entity, kind)).or_insert(0) += 1;
        self.begun += 1;
    }

    /// A workflow's completion event fired. Unknown completions (e.g. a
    /// replayed event racing a pruned entry) are ignored rather than
    /// underflowing.
    pub fn complete(&mut self, entity: u32, kind: &'static str) {
        if let Some(n) = self.open.get_mut(&(entity, kind)) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&(entity, kind));
            }
            self.completed += 1;
        }
    }

    /// Number of workflows currently in flight.
    pub fn open_count(&self) -> u32 {
        self.open.values().sum()
    }

    /// Recovery re-issued `n` in-flight workflows by replaying their
    /// logged intents.
    pub fn mark_resumed(&mut self, n: u64) {
        self.resumed += n;
    }

    /// Recovery rolled back `n` intents lost to a torn log tail (never
    /// executed, so no EMS state to undo).
    pub fn mark_rolled_back(&mut self, n: u64) {
        self.rolled_back += n;
    }

    /// Canonical multi-line dump for state digests: open workflows in
    /// key order plus lifetime counters.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workflows begun={} completed={} open={}",
            self.begun,
            self.completed,
            self.open_count()
        );
        for ((entity, kind), n) in &self.open {
            let _ = writeln!(out, "  open {kind} entity={entity} x{n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_ledger_tracks_open_and_totals() {
        let mut l = WorkflowLedger::default();
        l.begin(1, "conn.setup");
        l.begin(1, "conn.setup");
        l.begin(2, "conn.teardown");
        assert_eq!(l.open_count(), 3);
        l.complete(1, "conn.setup");
        assert_eq!(l.open_count(), 2);
        // Unknown completion is ignored, not an underflow.
        l.complete(9, "conn.setup");
        assert_eq!((l.begun, l.completed), (3, 1));
        let dump = l.dump();
        assert!(dump.contains("conn.setup entity=1 x1"), "{dump}");
        assert!(dump.contains("conn.teardown entity=2 x1"), "{dump}");
    }

    #[test]
    fn calibration_sums_to_table2_fixed_part() {
        let p = EmsProfile::calibrated_deterministic();
        // Parallel commands contribute their max; both FXCs and both OT
        // tunes overlap, all ROADM configures overlap.
        let fixed =
            p.setup_session + p.fxc_switch + p.roadm_configure + p.ot_tune + p.path_validate;
        assert!((fixed - 61.37).abs() < 1e-9, "fixed={fixed}");
    }

    #[test]
    fn teardown_sums_to_ten_seconds() {
        let p = EmsProfile::calibrated_deterministic();
        // teardown = session + max(roadm_deconfigure, ot_release) + fxc
        let teardown = p.teardown_session + p.roadm_deconfigure.max(p.ot_release) + p.fxc_switch;
        assert!((teardown - 9.05).abs() < 1e-9, "teardown={teardown}");
        assert!((8.0..=11.0).contains(&teardown), "≈10 s per the paper");
    }

    #[test]
    fn electronic_switching_much_faster_than_optical() {
        let p = EmsProfile::calibrated();
        assert!(p.otn_xconnect * 50.0 < p.ot_tune);
    }

    #[test]
    fn latency_sampling_deterministic_per_seed() {
        let m = EmsLatencyModel::new(EmsProfile::calibrated());
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        assert_eq!(
            m.latency(EmsCommand::OtTune, &mut a),
            m.latency(EmsCommand::OtTune, &mut b)
        );
    }

    #[test]
    fn deterministic_profile_has_no_jitter() {
        let m = EmsLatencyModel::new(EmsProfile::calibrated_deterministic());
        let mut rng = SimRng::new(1);
        let d = m.latency(EmsCommand::SetupSession, &mut rng);
        assert_eq!(d, SimDuration::from_secs(20));
    }

    #[test]
    fn optimized_profile_is_much_faster() {
        let fast = EmsProfile::optimized();
        let slow = EmsProfile::calibrated();
        assert!(fast.ot_tune < slow.ot_tune / 10.0);
        assert!(fast.setup_session < slow.setup_session / 10.0);
        // FXC was already fast; unchanged.
        assert_eq!(fast.fxc_switch, slow.fxc_switch);
    }

    #[test]
    fn every_command_has_positive_mean() {
        let p = EmsProfile::calibrated();
        for cmd in [
            EmsCommand::SetupSession,
            EmsCommand::TeardownSession,
            EmsCommand::FxcSwitch,
            EmsCommand::RoadmConfigure,
            EmsCommand::RoadmDeconfigure,
            EmsCommand::OtTune,
            EmsCommand::OtRelease,
            EmsCommand::PathValidate,
            EmsCommand::OtnXconnect,
            EmsCommand::OtnXconnectRemove,
            EmsCommand::OtnSession,
        ] {
            assert!(p.mean_secs(cmd) > 0.0, "{cmd:?}");
        }
    }
}
