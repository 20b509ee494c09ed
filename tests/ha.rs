//! Durability contract, end to end at the workspace level: the
//! controller is a deterministic function of genesis plus its intent
//! log, so recovery from **any** crash point — including torn mid-record
//! writes — reconstructs a byte-identical controller (proven against a
//! precomputed digest-per-log-prefix truth table), and a warm standby's
//! takeover equals cold recovery.

use proptest::prelude::*;

use griphon::controller::{Controller, ControllerConfig};
use griphon::durability::recovery::replay;
use griphon::{recover, HaPair, SnapshotStore, Wal, WalConfig, WalRecord};
use photonic::{LineRate, PhotonicNetwork};
use simcore::{DataRate, SimDuration, SimTime};

fn genesis() -> Controller {
    let (net, _) = PhotonicNetwork::testbed(4);
    Controller::new(net, ControllerConfig::default())
}

/// Drive a journaling controller through a mixed intent stream:
/// tenancy, wavelengths, a calendar booking and its cancellation, a
/// fiber cut with repair, and a teardown.
fn driven_primary() -> Controller {
    let mut ctl = genesis();
    ctl.enable_journal(WalConfig::default());
    let csp = ctl.register_tenant("acme", DataRate::from_gbps(200));
    let a = photonic::RoadmId::new(0);
    let z = photonic::RoadmId::new(3);
    ctl.run_until(SimTime::from_secs(1));
    let c1 = ctl.request_wavelength(csp, a, z, LineRate::Gbps10).unwrap();
    ctl.run_until(SimTime::from_secs(30));
    let _c2 = ctl.request_wavelength(csp, a, z, LineRate::Gbps10).unwrap();
    ctl.run_until(SimTime::from_secs(60));
    let r = ctl
        .reserve_bandwidth(
            csp,
            a,
            z,
            DataRate::from_gbps(10),
            SimTime::from_secs(7200),
            SimTime::from_secs(10800),
        )
        .unwrap();
    ctl.run_until(SimTime::from_secs(90));
    assert!(ctl.cancel_reservation(r));
    let fiber = photonic::FiberId::new(0);
    ctl.inject_fiber_cut(fiber, 0);
    ctl.schedule_repair(fiber, SimDuration::from_secs(600));
    ctl.run_until(SimTime::from_secs(800));
    let _ = ctl.request_teardown(c1);
    ctl.run_until(SimTime::from_secs(900));
    ctl
}

/// The byte-identity truth table: the canonical digest a controller
/// must have after replaying exactly the first `k` log records and
/// running to `target`.
fn digest_after(records: &[WalRecord], k: usize, target: SimTime) -> String {
    let mut ctl = genesis();
    replay(&mut ctl, &records[..k]).unwrap();
    ctl.run_until(target);
    ctl.state_digest()
}

#[test]
fn full_log_replay_reconstructs_the_primary_exactly() {
    let primary = driven_primary();
    let wal = primary.journal().expect("journal on");
    let (records, report) = Wal::decode(wal.segments()).unwrap();
    assert!(records.len() >= 8, "scenario should journal a rich stream");
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(
        digest_after(&records, records.len(), primary.now()),
        primary.state_digest(),
        "replaying the full log must rebuild the primary byte for byte"
    );
}

#[test]
fn torn_tail_rolls_back_to_the_previous_record() {
    let primary = driven_primary();
    let wal = primary.journal().expect("journal on");
    let (full, _) = Wal::decode(wal.segments()).unwrap();
    let total = wal.total_bytes();
    let target = primary.now();
    let segments = wal.truncated_view(total - 3);
    let outcome = recover(
        genesis,
        &segments,
        &SnapshotStore::new(0),
        target,
        WalConfig::default(),
    )
    .expect("torn tail is a clean crash");
    assert!(outcome.rolled_back_tail);
    assert!(outcome.torn_bytes > 0);
    assert_eq!(outcome.replayed, full.len() as u64 - 1);
    assert_eq!(
        outcome.controller.state_digest(),
        digest_after(&full, full.len() - 1, target)
    );
}

#[test]
fn warm_failover_matches_a_surviving_primary() {
    let mut pair = HaPair::new(Box::new(genesis), WalConfig::default(), 2);
    let csp = pair
        .primary
        .register_tenant("acme", DataRate::from_gbps(200));
    let a = photonic::RoadmId::new(0);
    let z = photonic::RoadmId::new(3);
    pair.primary.run_until(SimTime::from_secs(1));
    let c = pair
        .primary
        .request_wavelength(csp, a, z, LineRate::Gbps10)
        .unwrap();
    pair.primary.run_until(SimTime::from_secs(30));
    pair.sync().unwrap();
    let _ = pair.primary.request_teardown(c);
    pair.primary.run_until(SimTime::from_secs(60));

    let target = SimTime::from_secs(120);
    let mut image = pair.primary.fork();
    image.run_until(target);
    let want = image.state_digest();

    let (recovered, report) = pair.failover(None, target).unwrap();
    assert_eq!(recovered.state_digest(), want);
    assert_eq!(report.serving, report.detect + report.replay);
    assert!(report.tail_records > 0, "teardown shipped only at failover");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-point fuzzing: truncate the log at an arbitrary byte offset
    /// — record boundaries, mid-record tears, inside the segment header —
    /// and recovery must either reconstruct the exact state the surviving
    /// prefix encodes (per the truth table) or, below the header, yield
    /// an empty history. Snapshot-assisted recovery must agree with full
    /// replay at every offset.
    #[test]
    fn any_crash_offset_recovers_byte_identically(cut_bp in 0u64..10_001) {
        // One shared fixture across cases (drive + truth table are
        // deterministic, so recomputing per case would only cost time).
        use std::sync::OnceLock;
        struct Fixture {
            segments: Vec<Vec<u8>>,
            records: Vec<WalRecord>,
            total: usize,
            target: SimTime,
            digests: Vec<String>,
        }
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        let fx = FIXTURE.get_or_init(|| {
            let primary = driven_primary();
            let wal = primary.journal().expect("journal on");
            let (records, _) = Wal::decode(wal.segments()).unwrap();
            let target = primary.now();
            let digests = (0..=records.len())
                .map(|k| digest_after(&records, k, target))
                .collect();
            Fixture {
                segments: wal.segments().to_vec(),
                records,
                total: wal.total_bytes(),
                target,
                digests,
            }
        });

        // cut_bp is basis points of the log length: 0 ..= 100.00 %.
        let cut = (fx.total as u64 * cut_bp / 10_000) as usize;
        // Borrowed truncation view — the crash harness copies no bytes.
        let surviving: Vec<&[u8]> = Wal::truncate_segments(&fx.segments, cut);

        // Cold, snapshot-free recovery.
        let cold = recover(genesis, &surviving, &SnapshotStore::new(0), fx.target, WalConfig::default())
            .expect("every truncation of the final segment is recoverable");
        let k = cold.replayed as usize;
        prop_assert!(k <= fx.records.len());
        prop_assert_eq!(&cold.controller.state_digest(), &fx.digests[k]);
        if cut == fx.total {
            prop_assert_eq!(k, fx.records.len());
            prop_assert!(!cold.rolled_back_tail);
        }

        // Snapshot-assisted recovery lands on the same bytes.
        let mut store = SnapshotStore::new(0);
        let mut replica = genesis();
        for (i, rec) in fx.records.iter().enumerate() {
            replay(&mut replica, std::slice::from_ref(rec)).unwrap();
            if (i + 1) % 3 == 0 {
                store.capture_at(&replica, (i + 1) as u64);
            }
        }
        let snap = recover(genesis, &surviving, &store, fx.target, WalConfig::default())
            .expect("snapshot recovery holds wherever cold recovery does");
        prop_assert_eq!(snap.snapshot_seq.unwrap_or(0) + snap.replayed, k as u64);
        prop_assert_eq!(&snap.controller.state_digest(), &fx.digests[k]);
    }
}
