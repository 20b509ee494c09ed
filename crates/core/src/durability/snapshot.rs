//! Versioned, checksummed controller snapshots.
//!
//! A snapshot is a deterministic [`Controller::fork`] of the primary plus
//! a [`SnapshotMeta`] binding it to a log position: the
//! sequence number of the next WAL record at capture time. Recovery
//! restores the newest snapshot at or before the surviving log prefix
//! and replays only the tail — bounding recovery time by the snapshot
//! cadence instead of the full history.
//!
//! The metadata carries a CRC-32C of the canonical state digest; a
//! snapshot whose restored fork no longer matches its recorded digest is
//! refused (the store was corrupted), and recovery falls back to an
//! older snapshot or genesis.

use simcore::SimTime;

use crate::controller::Controller;

/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// Metadata binding a snapshot to a log position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Format version (`SNAPSHOT_VERSION`).
    pub version: u32,
    /// Sequence number of the *next* WAL record at capture time — the
    /// snapshot reflects every record in `[0, seq)`.
    pub seq: u64,
    /// Sim time of capture.
    pub at: SimTime,
    /// CRC-32C of the captured state digest.
    pub state_crc: u32,
}

/// A captured controller state plus its metadata.
#[derive(Debug)]
pub struct Snapshot {
    /// Position and checksum.
    pub meta: SnapshotMeta,
    /// The forked controller state.
    pub state: Controller,
}

impl Snapshot {
    /// Capture `ctl` as of WAL position `seq`. The state checksum is
    /// streamed ([`Controller::state_digest_crc`]) — the digest string is
    /// never materialized on the capture path.
    pub fn capture(ctl: &Controller, seq: u64) -> Snapshot {
        let state = ctl.fork();
        let meta = SnapshotMeta {
            version: SNAPSHOT_VERSION,
            seq,
            at: ctl.now(),
            state_crc: state.state_digest_crc(),
        };
        Snapshot { meta, state }
    }

    /// Does the stored state still hash to the recorded checksum?
    pub fn verify(&self) -> bool {
        self.state.state_digest_crc() == self.meta.state_crc
    }
}

/// A cadence-driven collection of snapshots, owned by the harness (the
/// controller itself stays snapshot-agnostic).
#[derive(Debug)]
pub struct SnapshotStore {
    /// Take a snapshot every this many WAL records (0 disables).
    pub cadence: u64,
    snaps: Vec<Snapshot>,
}

impl SnapshotStore {
    /// A store snapshotting every `cadence` records (0 = never).
    pub fn new(cadence: u64) -> SnapshotStore {
        SnapshotStore {
            cadence,
            snaps: Vec::new(),
        }
    }

    /// Snapshots captured so far, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snaps
    }

    /// Capture a snapshot bound to an explicit log position. Used by
    /// harnesses that rebuild a store offline by replaying a decoded
    /// log (where the replica has no journal of its own).
    pub fn capture_at(&mut self, ctl: &Controller, seq: u64) {
        self.snaps.push(Snapshot::capture(ctl, seq));
    }

    /// Capture iff the journal has advanced `cadence` records past the
    /// last snapshot. Returns whether a snapshot was taken.
    pub fn maybe_snapshot(&mut self, ctl: &Controller) -> bool {
        if self.cadence == 0 {
            return false;
        }
        let seq = ctl.journal().map_or(0, |w| w.records());
        let last = self.snaps.last().map_or(0, |s| s.meta.seq);
        if seq >= last + self.cadence {
            self.snaps.push(Snapshot::capture(ctl, seq));
            true
        } else {
            false
        }
    }

    /// The newest verified snapshot covering at most `max_seq` records.
    /// Snapshots failing their checksum are skipped (fall back to an
    /// older one).
    pub(crate) fn best_at_or_before(&self, max_seq: u64) -> Option<&Snapshot> {
        self.snaps
            .iter()
            .rev()
            .find(|s| s.meta.seq <= max_seq && s.verify())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::PhotonicNetwork;

    fn small_controller() -> Controller {
        let (net, _) = PhotonicNetwork::testbed(2);
        Controller::new(net, ControllerConfig::default())
    }

    #[test]
    fn streaming_digest_crc_matches_string() {
        let mut ctl = small_controller();
        assert_eq!(
            ctl.state_digest_crc(),
            simcore::crc32c(ctl.state_digest().as_bytes())
        );
        // And again on a state with real content (pending events, conns).
        let csp = ctl.register_tenant("acme", simcore::DataRate::from_gbps(100));
        let _ = ctl.request_wavelength(
            csp,
            photonic::RoadmId::new(0),
            photonic::RoadmId::new(1),
            photonic::LineRate::Gbps10,
        );
        ctl.run_until(SimTime::from_secs(10));
        assert_eq!(
            ctl.state_digest_crc(),
            simcore::crc32c(ctl.state_digest().as_bytes())
        );
    }

    #[test]
    fn capture_verifies_and_fork_digest_matches() {
        let ctl = small_controller();
        let snap = Snapshot::capture(&ctl, 0);
        assert!(snap.verify());
        assert_eq!(snap.state.state_digest(), ctl.state_digest());
    }

    #[test]
    fn cadence_controls_captures() {
        let mut ctl = small_controller();
        ctl.enable_journal(crate::durability::WalConfig::default());
        let mut store = SnapshotStore::new(2);
        assert!(!store.maybe_snapshot(&ctl)); // 0 records < cadence... first fires at 2
        let csp = ctl.register_tenant("a", simcore::DataRate::from_gbps(10));
        let _ = csp;
        assert!(!store.maybe_snapshot(&ctl)); // 1 record
        ctl.register_tenant("b", simcore::DataRate::from_gbps(10));
        assert!(store.maybe_snapshot(&ctl)); // 2 records
        assert!(!store.maybe_snapshot(&ctl)); // no new records
        assert_eq!(store.snapshots().len(), 1);
        assert_eq!(store.snapshots()[0].meta.seq, 2);
    }

    #[test]
    fn best_snapshot_respects_position_and_checksum() {
        let mut ctl = small_controller();
        ctl.enable_journal(crate::durability::WalConfig::default());
        let mut store = SnapshotStore::new(0);
        store.capture_at(&ctl, 0);
        ctl.register_tenant("a", simcore::DataRate::from_gbps(10));
        store.capture_at(&ctl, 1);
        assert_eq!(store.best_at_or_before(0).unwrap().meta.seq, 0);
        assert_eq!(store.best_at_or_before(5).unwrap().meta.seq, 1);
        // Corrupt the newest snapshot: recovery falls back to the older.
        store.snaps[1].meta.state_crc ^= 1;
        assert_eq!(store.best_at_or_before(5).unwrap().meta.seq, 0);
    }
}
