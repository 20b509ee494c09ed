//! Warm-standby controller and primary/standby failover.
//!
//! The standby consumes the primary's shipped WAL records and applies
//! them through [`super::recovery::replay`] — the same code path crash
//! recovery takes — so its state is always a true prefix of the
//! primary's history. On a crash, takeover is: detect (a missed
//! heartbeat), replay whatever log tail the standby had not yet
//! consumed, and start serving. [`FailoverReport`] breaks the outage
//! into those phases using an analytic latency model
//! ([`failover_latency`]) so experiments can sweep log length × shipping
//! cadence without simulating the standby's wall clock.
//!
//! The correctness contract is the same byte identity recovery promises:
//! a standby that took over and a cold [`super::recover`] over the same
//! surviving segments produce controllers with equal
//! [`Controller::state_digest`]s.

use simcore::{SimDuration, SimTime};

use crate::controller::Controller;
use crate::durability::recovery::{recover, replay, RecoveryError};
use crate::durability::snapshot::SnapshotStore;
use crate::durability::wal::{Wal, WalConfig, WalRecord};

/// Heartbeat interval; a crash is detected after one missed beat.
const HEARTBEAT: SimDuration = SimDuration::from_secs(1);
/// Fixed cost of promoting the standby (fencing, address takeover).
const BASE_SWITCHOVER: SimDuration = SimDuration::from_millis(500);
/// Replay cost per log-tail record not yet consumed at the crash.
const PER_RECORD_REPLAY: SimDuration = SimDuration::from_millis(2);

/// The analytic failover latency when the standby must replay
/// `tail_records` records: `(detect, replay)`, where detect is one
/// missed heartbeat and replay is the promotion cost plus a fixed cost
/// per record.
pub fn failover_latency(tail_records: u64) -> (SimDuration, SimDuration) {
    (
        HEARTBEAT,
        BASE_SWITCHOVER + PER_RECORD_REPLAY * tail_records,
    )
}

/// How a failover went: phase latencies and replay accounting.
#[derive(Debug, Clone, Copy)]
pub struct FailoverReport {
    /// Time to notice the primary is gone (one heartbeat interval).
    pub detect: SimDuration,
    /// Time to replay the unconsumed log tail and promote.
    pub replay: SimDuration,
    /// Total time to serving: `detect + replay`.
    pub serving: SimDuration,
    /// Records the standby had already applied before the crash.
    pub applied_before: u64,
    /// Log-tail records replayed during takeover.
    pub tail_records: u64,
    /// Trailing bytes discarded as a torn tail.
    pub torn_bytes: usize,
    /// Whether a torn (never-committed) record was rolled back.
    pub rolled_back_tail: bool,
    /// EMS workflows in flight at the crash, re-issued by replay.
    pub resumed_workflows: u32,
    /// Whether the standby had consumed records the surviving log lost
    /// and had to rebuild from genesis instead of replaying a tail.
    pub rebuilt_from_genesis: bool,
}

/// A warm standby: a genesis-identical controller that applies shipped
/// WAL records as they arrive.
pub struct StandbyController {
    state: Controller,
    applied: u64,
}

impl StandbyController {
    /// Wrap a genesis controller (its journal, if any, is dropped — the
    /// standby replays the primary's log, it does not write its own).
    pub fn new(mut genesis: Controller) -> StandbyController {
        let _ = genesis.take_journal();
        StandbyController {
            state: genesis,
            applied: 0,
        }
    }

    /// Records applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Apply every record past the already-consumed prefix. Returns how
    /// many were newly applied.
    pub fn catch_up(&mut self, records: &[WalRecord]) -> Result<u64, RecoveryError> {
        if (records.len() as u64) < self.applied {
            // The caller handed us a shorter history than we consumed —
            // the surviving log lost records the standby already has.
            // Takeover handles this by rebuilding; incremental catch-up
            // cannot.
            return Ok(0);
        }
        let tail = &records[self.applied as usize..];
        let n = replay(&mut self.state, tail)?;
        self.applied = records.len() as u64;
        Ok(n)
    }

    /// Promote to primary: consume the final log tail, run to `target`,
    /// and start journaling over the surviving history.
    pub fn promote(
        mut self,
        records: &[WalRecord],
        target: SimTime,
        wal_cfg: WalConfig,
    ) -> Result<Controller, RecoveryError> {
        self.catch_up(records)?;
        self.state.run_until(target);
        self.state
            .install_journal(Wal::from_records(wal_cfg, records));
        Ok(self.state)
    }
}

/// A journaling primary, a warm standby, and a snapshot store, driven in
/// lockstep: mutate `primary`, call [`HaPair::sync`] at shipping
/// barriers, and [`HaPair::failover`] to crash the primary at an
/// arbitrary byte offset in its log.
pub struct HaPair {
    /// The serving controller. Drive the scenario through this.
    pub primary: Controller,
    /// The snapshot store (cadence-driven; see [`SnapshotStore`]).
    pub store: SnapshotStore,
    standby: StandbyController,
    genesis: Box<dyn Fn() -> Controller>,
    wal_cfg: WalConfig,
}

impl HaPair {
    /// Build a pair from a deterministic genesis factory. `genesis()`
    /// must return byte-identical controllers on every call (all the
    /// repo's topology builders do).
    pub fn new(
        genesis: Box<dyn Fn() -> Controller>,
        wal_cfg: WalConfig,
        snapshot_cadence: u64,
    ) -> HaPair {
        let mut primary = genesis();
        primary.enable_journal(wal_cfg);
        let standby = StandbyController::new(genesis());
        HaPair {
            primary,
            store: SnapshotStore::new(snapshot_cadence),
            standby,
            genesis,
            wal_cfg,
        }
    }

    /// A shipping barrier: snapshot if due, then stream new log records
    /// to the standby. Returns how many records the standby consumed.
    pub fn sync(&mut self) -> Result<u64, RecoveryError> {
        self.store.maybe_snapshot(&self.primary);
        // Decode straight off the primary's segments — no byte copies.
        let records = match self.primary.journal() {
            Some(w) => Wal::decode(w.segments())?.0,
            None => Vec::new(),
        };
        self.standby.catch_up(&records)
    }

    /// Crash the primary with `cut` bytes of its log durable (`None` =
    /// everything flushed), fail over to the standby, and run the new
    /// primary to `target`. Consumes the pair; returns the new primary
    /// and the phase-latency report.
    pub fn failover(
        self,
        cut: Option<usize>,
        target: SimTime,
    ) -> Result<(Controller, FailoverReport), RecoveryError> {
        // Destructure so the borrowed segment views into `primary`'s
        // journal can coexist with moving `genesis` and `standby` out.
        let HaPair {
            primary,
            store,
            standby,
            genesis,
            wal_cfg,
        } = self;
        let journal = primary.journal().expect("primary journals");
        let segments: Vec<&[u8]> = match cut {
            Some(bytes) => journal.truncated_view(bytes),
            None => journal.segments().iter().map(Vec::as_slice).collect(),
        };
        let (records, report) = Wal::decode(&segments)?;

        let applied_before = standby.applied();
        let rebuilt = applied_before > records.len() as u64;
        let tail_records = (records.len() as u64).saturating_sub(applied_before);
        let replay_cost = if rebuilt {
            records.len() as u64
        } else {
            tail_records
        };

        let controller = if rebuilt {
            // The standby is ahead of the surviving log: rebuild from the
            // snapshot store instead (cold recovery path).
            recover(genesis, &segments, &store, target, wal_cfg)?.controller
        } else {
            standby.promote(&records, target, wal_cfg)?
        };

        let (detect, replay_t) = failover_latency(replay_cost);
        let resumed = controller.workflows.open_count();
        Ok((
            controller,
            FailoverReport {
                detect,
                replay: replay_t,
                serving: detect + replay_t,
                applied_before,
                tail_records,
                torn_bytes: report.torn_bytes,
                rolled_back_tail: report.rolled_back_tail,
                resumed_workflows: resumed,
                rebuilt_from_genesis: rebuilt,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::{LineRate, PhotonicNetwork};
    use simcore::DataRate;

    fn genesis() -> Controller {
        let (net, _) = PhotonicNetwork::testbed(4);
        Controller::new(net, ControllerConfig::default())
    }

    fn drive(pair: &mut HaPair) {
        let csp = pair
            .primary
            .register_tenant("acme", DataRate::from_gbps(200));
        pair.primary.run_until(SimTime::from_secs(1));
        let a = photonic::RoadmId::new(0);
        let z = photonic::RoadmId::new(3);
        let c1 = pair
            .primary
            .request_wavelength(csp, a, z, LineRate::Gbps10)
            .unwrap();
        pair.primary.run_until(SimTime::from_secs(30));
        pair.sync().unwrap();
        let _c2 = pair
            .primary
            .request_wavelength(csp, a, z, LineRate::Gbps10)
            .unwrap();
        pair.primary.run_until(SimTime::from_secs(60));
        let _ = pair.primary.request_teardown(c1);
        pair.primary.run_until(SimTime::from_secs(90));
    }

    #[test]
    fn standby_takeover_matches_primary_digest() {
        let mut pair = HaPair::new(Box::new(genesis), WalConfig::default(), 2);
        drive(&mut pair);
        let target = SimTime::from_secs(120);
        let mut primary_image = pair.primary.fork();
        primary_image.run_until(target);
        let want = primary_image.state_digest();

        let (recovered, report) = pair.failover(None, target).unwrap();
        assert_eq!(recovered.state_digest(), want);
        assert!(!report.rebuilt_from_genesis);
        assert!(report.tail_records > 0, "standby lagged behind sync point");
        assert_eq!(report.serving, report.detect + report.replay);
    }

    #[test]
    fn takeover_equals_cold_recovery_at_torn_cut() {
        let mut pair = HaPair::new(Box::new(genesis), WalConfig::default(), 0);
        drive(&mut pair);
        let target = SimTime::from_secs(120);
        let total = pair.primary.journal().map_or(0, Wal::total_bytes);
        let cut = total - 3; // tear the final record
        let segments = pair
            .primary
            .journal()
            .expect("journal on")
            .truncated_view(cut);

        let cold = recover(
            genesis,
            &segments,
            &SnapshotStore::new(0),
            target,
            WalConfig::default(),
        )
        .unwrap();
        assert!(cold.rolled_back_tail);

        let (warm, report) = pair.failover(Some(cut), target).unwrap();
        assert!(report.rolled_back_tail);
        assert_eq!(warm.state_digest(), cold.controller.state_digest());
    }

    #[test]
    fn standby_ahead_of_surviving_log_rebuilds() {
        let mut pair = HaPair::new(Box::new(genesis), WalConfig::default(), 0);
        drive(&mut pair);
        pair.sync().unwrap(); // standby fully caught up
        let target = SimTime::from_secs(120);
        // Crash with only the first few bytes durable: the standby has
        // consumed records the surviving log lost.
        let cut = 64;
        let segments = pair
            .primary
            .journal()
            .expect("journal on")
            .truncated_view(cut);
        let cold = recover(
            genesis,
            &segments,
            &SnapshotStore::new(0),
            target,
            WalConfig::default(),
        )
        .unwrap();
        let (warm, report) = pair.failover(Some(cut), target).unwrap();
        assert!(report.rebuilt_from_genesis);
        assert_eq!(warm.state_digest(), cold.controller.state_digest());
    }
}
