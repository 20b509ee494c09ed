//! `repro ha` — durable control plane under a crash schedule
//! (DESIGN.md §11).
//!
//! Replays the same two scenarios as `repro noc` — the Fig. 4 testbed
//! outage and the NSFNET backbone week — with every northbound intent
//! journaled to the write-ahead log, a cadence-driven snapshot store,
//! and a warm standby consuming shipped records at every third scenario
//! barrier. It then crashes the primary at a fuzzed schedule of byte
//! offsets in its log (including deliberately mid-record tears) and
//! **asserts** — not logs — the durability contract:
//!
//! * WAL on and WAL off produce byte-identical scenario transcripts and
//!   state digests (journaling is observation, not behavior);
//! * at every crash point, snapshot-based recovery and full-log replay
//!   reconstruct byte-identical controllers, and a clean (un-torn)
//!   crash reconstructs the primary's exact digest;
//! * the warm standby's takeover state equals cold recovery over the
//!   same surviving log.
//!
//! Failover latency is reported per crash point through the analytic
//! detect → replay → serving model ([`griphon::FailoverConfig`]) in
//! **sim time** — no host wall clock touches the report, so
//! `BENCH_ha.json` is golden-filed and byte-identical across runs.
//! A snapshot-cadence sweep closes the report: replay-tail length is
//! bounded by the cadence, demonstrating recovery time is O(cadence),
//! not O(history).

use serde::Serialize;
use simcore::SimTime;

use griphon::durability::recovery::replay;
use griphon::{
    recover, FailoverConfig, SnapshotStore, StandbyController, Wal, WalConfig, WalRecord,
};

use crate::noc_target::{BACKBONE_WEEK_FAULTS, TESTBED_OUTAGE};
use crate::scenario::{self, ScenarioSpec};

/// Ship log records to the standby every this many scenario barriers,
/// so the standby realistically lags the primary at most crash points.
const SYNC_EVERY: u64 = 3;

/// Snapshot cadence (WAL records) for the main crash-schedule runs.
const SNAPSHOT_CADENCE: u64 = 4;

/// Evenly spaced crash offsets per scenario; each also contributes a
/// `-3`-byte neighbour to land mid-record.
const CRASH_POINTS: usize = 8;

/// One fuzzed crash of the primary.
#[derive(Serialize)]
pub struct CrashSample {
    /// Bytes of the log durable at the crash.
    pub cut_bytes: usize,
    /// Complete records that survived the cut.
    pub records_survived: u64,
    /// Trailing bytes discarded as a torn (never-acknowledged) record.
    pub torn_bytes: usize,
    /// Whether a torn tail was rolled back.
    pub rolled_back_tail: bool,
    /// Log position of the snapshot recovery started from.
    pub snapshot_seq: Option<u64>,
    /// Records replayed on top of the snapshot (or genesis).
    pub replayed: u64,
    /// EMS workflows in flight at the crash, re-issued by replay.
    pub resumed_workflows: u32,
    /// Crash detection latency (one heartbeat), sim milliseconds.
    pub detect_ms: f64,
    /// Log-tail replay + promotion latency, sim milliseconds.
    pub replay_ms: f64,
    /// Total outage: detect + replay, sim milliseconds.
    pub serving_ms: f64,
}

/// One cumulative histogram bucket of time-to-serving.
#[derive(Serialize)]
pub struct HistBucket {
    /// Upper bound, sim milliseconds (last bucket covers everything).
    pub le_ms: f64,
    /// Crash points whose serving time is ≤ `le_ms`.
    pub count: u64,
}

/// Per-scenario block of `BENCH_ha.json`.
#[derive(Serialize)]
pub struct ScenarioHa {
    /// Scenario name.
    pub name: String,
    /// Records in the primary's full log.
    pub log_records: u64,
    /// Bytes in the primary's full log.
    pub log_bytes: usize,
    /// Log segments (8 KiB default roll).
    pub log_segments: usize,
    /// Snapshots the cadence-driven store captured.
    pub snapshots: usize,
    /// Records the standby had consumed at the final shipping barrier.
    pub standby_applied: u64,
    /// Crash points fuzzed.
    pub crash_points: u64,
    /// Crash points where snapshot recovery == full replay (must equal
    /// `crash_points`).
    pub recovered_identical: u64,
    /// Crash points that tore a record mid-write and rolled it back.
    pub torn_tails: u64,
    /// Whether the warm standby's takeover digest matched cold recovery.
    pub warm_takeover_identical: bool,
    /// The fuzzed crashes, in byte-offset order.
    pub crashes: Vec<CrashSample>,
    /// Cumulative detect→replay→serving histogram over the schedule.
    pub serving_ms_hist: Vec<HistBucket>,
}

/// One point of the snapshot-cadence sweep.
#[derive(Serialize)]
pub struct CadencePoint {
    /// Snapshot every this many WAL records.
    pub cadence: u64,
    /// Snapshots captured over the full log.
    pub snapshots: usize,
    /// Records replayed after restoring the newest snapshot — always
    /// `< cadence`: recovery time is bounded by cadence, not history.
    pub replayed_tail: u64,
    /// Records in the full log.
    pub log_records: u64,
}

/// The machine-readable report written to `BENCH_ha.json`.
#[derive(Serialize)]
pub struct HaReport {
    /// Common `BENCH_*.json` header.
    pub header: crate::BenchHeader,
    /// Report name, fixed to `ha`.
    pub benchmark: String,
    /// Shipping cadence (scenario barriers between standby syncs).
    pub sync_every_barriers: u64,
    /// Snapshot cadence (WAL records) for the crash-schedule runs.
    pub snapshot_cadence: u64,
    /// One block per replayed scenario.
    pub scenarios: Vec<ScenarioHa>,
    /// Snapshot-cadence sweep over the testbed scenario's log.
    pub cadence_sweep: Vec<CadencePoint>,
}

/// One scenario's HA run: the journaling primary's full state, its log,
/// the snapshot store, and the (lagging) standby.
struct HaRun {
    name: &'static str,
    spec: ScenarioSpec,
    reference_digest: String,
    target: SimTime,
    segments: Vec<Vec<u8>>,
    records: Vec<WalRecord>,
    store: SnapshotStore,
    standby: StandbyController,
    log_bytes: usize,
}

fn parse(name: &'static str, json: &str) -> ScenarioSpec {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("{name}: bad scenario JSON: {e}"))
}

/// Drive one scenario twice — WAL off, then WAL on with snapshotting and
/// standby shipping — and assert the transcripts and digests are
/// byte-identical (journaling must not perturb behavior).
fn run_one(name: &'static str, json: &str) -> HaRun {
    let spec = parse(name, json);

    // Reference: WAL off.
    let (text_off, ctl_off) =
        scenario::run_with(&spec).unwrap_or_else(|e| panic!("{name}: scenario failed: {e}"));
    let digest_off = ctl_off.state_digest();

    // WAL on, with a snapshot store and a warm standby fed at every
    // SYNC_EVERY-th barrier.
    let mut primary = scenario::genesis(&spec);
    primary.enable_journal(WalConfig::default());
    let mut store = SnapshotStore::new(SNAPSHOT_CADENCE);
    let mut standby = StandbyController::new(scenario::genesis(&spec));
    let mut barriers = 0u64;
    let text_on = {
        let standby = &mut standby;
        let store = &mut store;
        scenario::drive(&spec, &mut primary, &mut |ctl| {
            barriers += 1;
            if !barriers.is_multiple_of(SYNC_EVERY) {
                return;
            }
            store.maybe_snapshot(ctl);
            // Decode straight off the live journal's segments — the
            // shipping barrier copies no log bytes.
            let records = match ctl.journal() {
                Some(w) => Wal::decode(w.segments()).expect("live log decodes").0,
                None => Vec::new(),
            };
            standby.catch_up(&records).expect("standby catches up");
        })
        .unwrap_or_else(|e| panic!("{name}: scenario failed under WAL: {e}"))
    };

    assert_eq!(
        text_on, text_off,
        "{name}: journaling changed the scenario transcript"
    );
    let reference_digest = primary.state_digest();
    assert_eq!(
        reference_digest, digest_off,
        "{name}: journaling changed the controller state"
    );

    // Take the journal whole — the run owns its segments, no copy.
    let journal = primary.take_journal().expect("journal enabled");
    let log_bytes = journal.total_bytes();
    let (records, report) = Wal::decode(journal.segments()).expect("full log decodes");
    assert_eq!(report.torn_bytes, 0, "{name}: flushed log cannot be torn");
    let segments = journal.into_segments();

    HaRun {
        name,
        spec,
        reference_digest,
        target: primary.now(),
        segments,
        records,
        store,
        standby,
        log_bytes,
    }
}

/// Deterministic crash schedule: `n` evenly spaced byte offsets over the
/// log (the last one clean), each paired with a 3-byte-earlier neighbour
/// that lands mid-record.
fn crash_offsets(total: usize, n: usize) -> Vec<usize> {
    let mut cuts = Vec::new();
    for i in 1..=n {
        let c = total * i / n;
        if c >= 3 {
            cuts.push(c - 3);
        }
        cuts.push(c);
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

fn ms(d: simcore::SimDuration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Fuzz the crash schedule against one scenario run and build its
/// report block. Consumes the run (the warm standby is promoted once,
/// at the clean crash).
fn crash_schedule(run: HaRun) -> ScenarioHa {
    let HaRun {
        name,
        spec,
        reference_digest,
        target,
        segments,
        records,
        store,
        standby,
        log_bytes,
    } = run;
    let cfg = FailoverConfig::default();
    let empty = SnapshotStore::new(0);
    let standby_applied = standby.applied();

    // Every crash point is an independent cell — its own truncated view
    // of the (shared, read-only) log, its own pair of recoveries — so
    // the schedule fans out across threads via `parallel_cells`. Output
    // order is the input cut order, and every per-cut assertion still
    // fires (a worker panic fails the run), so the report bytes are
    // identical to the sequential loop's.
    let cuts = crash_offsets(log_bytes, CRASH_POINTS);
    let crashes: Vec<CrashSample> = crate::experiments::parallel_cells(cuts, |cut| {
        let surviving = Wal::truncate_segments(&segments, cut);
        let snap_path = recover(
            || scenario::genesis(&spec),
            &surviving,
            &store,
            target,
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: recovery at cut {cut} failed: {e}"));
        let full_replay = recover(
            || scenario::genesis(&spec),
            &surviving,
            &empty,
            target,
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: full replay at cut {cut} failed: {e}"));

        // The durability contract: both paths reconstruct the same bytes.
        let digest = snap_path.controller.state_digest();
        assert_eq!(
            digest,
            full_replay.controller.state_digest(),
            "{name}: snapshot recovery diverged from full replay at cut {cut}"
        );
        if cut == log_bytes {
            assert_eq!(
                digest, reference_digest,
                "{name}: clean recovery diverged from the lost primary"
            );
            assert!(!snap_path.rolled_back_tail);
        }

        let survived = snap_path.snapshot_seq.unwrap_or(0) + snap_path.replayed;
        // Analytic failover latency had the standby taken over here.
        let rebuilt = standby_applied > survived;
        let tail = if rebuilt {
            survived
        } else {
            survived - standby_applied
        };
        let detect = cfg.heartbeat;
        let replay_t = cfg.base_switchover + cfg.per_record_replay * tail;
        CrashSample {
            cut_bytes: cut,
            records_survived: survived,
            torn_bytes: snap_path.torn_bytes,
            rolled_back_tail: snap_path.rolled_back_tail,
            snapshot_seq: snap_path.snapshot_seq,
            replayed: snap_path.replayed,
            resumed_workflows: snap_path.resumed_workflows,
            detect_ms: ms(detect),
            replay_ms: ms(replay_t),
            serving_ms: ms(detect + replay_t),
        }
    });
    let recovered_identical = crashes.len() as u64;
    let torn_tails = crashes.iter().filter(|c| c.rolled_back_tail).count() as u64;

    // The warm standby takes over at the clean crash: its promoted state
    // must equal cold recovery's (and therefore the primary's).
    let warm = standby
        .promote(&records, target, WalConfig::default())
        .unwrap_or_else(|e| panic!("{name}: warm takeover failed: {e}"));
    let warm_takeover_identical = warm.state_digest() == reference_digest;
    assert!(
        warm_takeover_identical,
        "{name}: warm standby takeover diverged from the primary"
    );

    let edges = [1510.0, 1530.0, 1550.0, 1600.0, 1700.0, 10_000.0];
    let serving_ms_hist = edges
        .iter()
        .map(|&le_ms| HistBucket {
            le_ms,
            count: crashes.iter().filter(|c| c.serving_ms <= le_ms).count() as u64,
        })
        .collect();

    ScenarioHa {
        name: name.to_string(),
        log_records: records.len() as u64,
        log_bytes,
        log_segments: segments.len(),
        snapshots: store.snapshots().len(),
        standby_applied,
        crash_points: crashes.len() as u64,
        recovered_identical,
        torn_tails,
        warm_takeover_identical,
        crashes,
        serving_ms_hist,
    }
}

/// Snapshot-cadence sweep over the testbed scenario's log: rebuild a
/// store offline at each cadence, recover cleanly, and confirm the
/// replay tail is bounded by the cadence (and the digest unchanged).
fn cadence_sweep(run: &HaRun) -> Vec<CadencePoint> {
    let mut points = Vec::new();
    for cadence in [1u64, 2, 4, 8] {
        let mut replica = scenario::genesis(&run.spec);
        let _ = replica.take_journal();
        let mut store = SnapshotStore::new(0);
        for (i, rec) in run.records.iter().enumerate() {
            replay(&mut replica, std::slice::from_ref(rec))
                .unwrap_or_else(|e| panic!("{}: offline replay: {e}", run.name));
            let seq = (i + 1) as u64;
            if seq.is_multiple_of(cadence) {
                store.capture_at(&replica, seq);
            }
        }
        let outcome = recover(
            || scenario::genesis(&run.spec),
            &run.segments,
            &store,
            run.target,
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: cadence {cadence} recovery: {e}", run.name));
        assert_eq!(
            outcome.controller.state_digest(),
            run.reference_digest,
            "{}: cadence {cadence} recovery diverged",
            run.name
        );
        assert!(
            outcome.replayed < cadence.max(1),
            "{}: cadence {cadence} replayed {} records — tail not bounded",
            run.name,
            outcome.replayed
        );
        points.push(CadencePoint {
            cadence,
            snapshots: store.snapshots().len(),
            replayed_tail: outcome.replayed,
            log_records: run.records.len() as u64,
        });
    }
    points
}

/// Run both scenarios under the crash schedule and build the report.
pub fn build() -> HaReport {
    let testbed = run_one("testbed_outage", TESTBED_OUTAGE);
    let cadence = cadence_sweep(&testbed);
    let backbone = run_one("backbone_week_faults", BACKBONE_WEEK_FAULTS);
    let scenarios = vec![crash_schedule(testbed), crash_schedule(backbone)];
    for s in &scenarios {
        assert_eq!(
            s.recovered_identical, s.crash_points,
            "{}: a crash point failed to reconstruct",
            s.name
        );
        assert!(s.torn_tails > 0, "{}: schedule never tore a record", s.name);
        assert!(s.warm_takeover_identical, "{}: takeover diverged", s.name);
    }
    HaReport {
        header: crate::BenchHeader::new("ha", "default"),
        benchmark: "ha".to_string(),
        sync_every_barriers: SYNC_EVERY,
        snapshot_cadence: SNAPSHOT_CADENCE,
        scenarios,
        cadence_sweep: cadence,
    }
}

/// Render the human-readable summary.
fn render(report: &HaReport) -> String {
    let mut out = String::from(
        "HA — write-ahead log, snapshots, primary/standby failover\n\
         (every row is asserted: WAL on/off byte-identity, snapshot recovery ==\n\
          full replay at every fuzzed crash point, warm takeover == cold recovery)\n",
    );
    for s in &report.scenarios {
        out.push_str(&format!(
            "\n── {} ──\n\
             log: {} records / {} bytes / {} segment(s); {} snapshot(s); standby applied {}\n\
             crashes: {} fuzzed, {} reconstructed byte-identically, {} torn tail(s) rolled back\n",
            s.name,
            s.log_records,
            s.log_bytes,
            s.log_segments,
            s.snapshots,
            s.standby_applied,
            s.crash_points,
            s.recovered_identical,
            s.torn_tails,
        ));
        let (min, max) = s.crashes.iter().fold((f64::MAX, 0.0f64), |(lo, hi), c| {
            (lo.min(c.serving_ms), hi.max(c.serving_ms))
        });
        out.push_str(&format!(
            "failover (sim): detect {} ms + replay → serving {:.0}–{:.0} ms across the schedule\n",
            s.crashes.first().map_or(0.0, |c| c.detect_ms),
            min,
            max
        ));
    }
    out.push_str("\nsnapshot-cadence sweep (testbed log):\n");
    for p in &report.cadence_sweep {
        out.push_str(&format!(
            "  every {:>2} records → {} snapshot(s), replay tail {} of {} records\n",
            p.cadence, p.snapshots, p.replayed_tail, p.log_records
        ));
    }
    out
}

/// Run the crash schedule, write `BENCH_ha.json`, and return the
/// human-readable summary.
pub fn emit(bench_path: &str) -> String {
    let report = build();
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(bench_path, &json).expect("write BENCH_ha.json");
    let mut out = render(&report);
    out.push_str(&format!("\nwrote {bench_path}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_offsets_cover_clean_and_torn_cuts() {
        let cuts = crash_offsets(800, 8);
        assert!(cuts.contains(&800), "clean cut missing");
        assert!(cuts.contains(&797), "mid-record tear missing");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
    }

    #[test]
    fn report_is_deterministic_and_contract_holds() {
        let a = build();
        let b = build();
        let ja = serde_json::to_string_pretty(&a).unwrap();
        let jb = serde_json::to_string_pretty(&b).unwrap();
        assert_eq!(ja, jb, "BENCH_ha.json must be deterministic");
        assert_eq!(a.scenarios.len(), 2);
        for s in &a.scenarios {
            assert_eq!(s.recovered_identical, s.crash_points);
            assert!(s.warm_takeover_identical);
            assert!(s.log_records > 0 && s.snapshots > 0);
        }
        for p in &a.cadence_sweep {
            assert!(p.replayed_tail < p.cadence.max(1));
        }
    }
}
