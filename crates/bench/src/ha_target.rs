//! `repro ha` — durable control plane under a crash schedule
//! (DESIGN.md §11).
//!
//! Replays the same two scenarios as `repro noc` — the Fig. 4 testbed
//! outage and the NSFNET backbone week — with every northbound intent
//! journaled to the write-ahead log, a cadence-driven snapshot store,
//! and a warm standby consuming shipped records at every third scenario
//! barrier. It then crashes the primary at a fuzzed schedule of byte
//! offsets in its log (including deliberately mid-record tears) and
//! **gates** — not logs — the durability contract:
//!
//! * WAL on and WAL off produce byte-identical scenario transcripts and
//!   state digests (journaling is observation, not behavior) — each
//!   scenario is one [`crate::harness`] cell whose observer is
//!   the WAL, so the harness compares the two runs;
//! * at every crash point, snapshot-based recovery and full-log replay
//!   reconstruct byte-identical controllers, and a clean (un-torn)
//!   crash reconstructs the primary's exact digest;
//! * the warm standby's takeover state equals cold recovery over the
//!   same surviving log.
//!
//! Failover latency is reported per crash point through the analytic
//! detect → replay → serving model ([`griphon::failover_latency`]) in
//! **sim time** — no host wall clock touches the report, so
//! `BENCH_ha.json` is golden-filed and byte-identical across runs.
//! A snapshot-cadence sweep closes the report: replay-tail length is
//! bounded by the cadence, demonstrating recovery time is O(cadence),
//! not O(history).

use serde::Serialize;
use simcore::SimTime;

use griphon::durability::recovery::replay;
use griphon::{
    failover_latency, recover, SnapshotStore, StandbyController, Wal, WalConfig, WalRecord,
};

use crate::harness::{
    self, ensure, CellRun, Ctx, Experiment, Finished, GateError, Identity, Runs, Sweep,
};
use crate::noc_target::{BACKBONE_WEEK_FAULTS, TESTBED_OUTAGE};
use crate::scenario::{self, transcript_digest, ScenarioSpec};

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
    spec: ScenarioSpec,
    reference_digest: String,
    target: SimTime,
    segments: Vec<Vec<u8>>,
    records: Vec<WalRecord>,
    store: SnapshotStore,
    standby: StandbyController,
    log_bytes: usize,
}

/// Drive one scenario with the WAL on, a snapshot store and standby
/// shipping; returns the run, its transcript digest and the primary's
/// trace and span drops.
fn run_journaled(spec: ScenarioSpec) -> Result<(HaRun, u32, u64), String> {
    let mut primary = scenario::genesis(&spec);
    primary.enable_journal(WalConfig::default());
    let mut store = SnapshotStore::new(SNAPSHOT_CADENCE);
    let mut standby = StandbyController::new(scenario::genesis(&spec));
    let mut barriers = 0u64;
    let text = {
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
        .map_err(|e| format!("scenario failed under WAL: {e}"))?
    };
    let reference_digest = primary.state_digest();
    let digest = transcript_digest(&text, &reference_digest);
    let drops = primary.trace.dropped() + primary.spans.dropped();

    // Take the journal whole — the run owns its segments, no copy.
    let journal = primary.take_journal().expect("journal enabled");
    let log_bytes = journal.total_bytes();
    let (records, report) = Wal::decode(journal.segments()).expect("full log decodes");
    ensure!(report.torn_bytes == 0, "flushed log cannot be torn");
    let run = HaRun {
        spec,
        reference_digest,
        target: primary.now(),
        segments: journal.into_segments(),
        records,
        store,
        standby,
        log_bytes,
    };
    Ok((run, digest, drops))
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
fn crash_schedule(name: &str, run: HaRun) -> Result<ScenarioHa, String> {
    let empty = SnapshotStore::new(0);
    let standby_applied = run.standby.applied();

    let mut crashes = Vec::new();
    for cut in crash_offsets(run.log_bytes, CRASH_POINTS) {
        let surviving = Wal::truncate_segments(&run.segments, cut);
        let recover_from = |store: &SnapshotStore| {
            recover(
                || scenario::genesis(&run.spec),
                &surviving,
                store,
                run.target,
                WalConfig::default(),
            )
            .map_err(|e| format!("recovery at cut {cut} failed: {e}"))
        };
        let snap_path = recover_from(&run.store)?;
        let full_replay = recover_from(&empty)?;

        // The durability contract: both paths reconstruct the same bytes.
        let digest = snap_path.controller.state_digest();
        let replayed = full_replay.controller.state_digest();
        ensure!(
            digest == replayed,
            "snapshot recovery diverged from full replay at cut {cut}: {}",
            harness::first_difference(&digest, &replayed)
        );
        if cut == run.log_bytes {
            ensure!(
                digest == run.reference_digest && !snap_path.rolled_back_tail,
                "clean recovery diverged from the lost primary: {}",
                harness::first_difference(&digest, &run.reference_digest)
            );
        }

        let survived = snap_path.snapshot_seq.unwrap_or(0) + snap_path.replayed;
        // Analytic failover latency had the standby taken over here.
        let rebuilt = standby_applied > survived;
        let tail = if rebuilt {
            survived
        } else {
            survived - standby_applied
        };
        let (detect, replay_t) = failover_latency(tail);
        crashes.push(CrashSample {
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
        });
    }
    let torn_tails = crashes.iter().filter(|c| c.rolled_back_tail).count() as u64;
    ensure!(torn_tails > 0, "schedule never tore a record");

    // The warm standby takes over at the clean crash: its promoted state
    // must equal cold recovery's (and therefore the primary's).
    let warm = run
        .standby
        .promote(&run.records, run.target, WalConfig::default())
        .map_err(|e| format!("warm takeover failed: {e}"))?;
    let warm_digest = warm.state_digest();
    ensure!(
        warm_digest == run.reference_digest,
        "warm standby takeover diverged from the primary: {}",
        harness::first_difference(&warm_digest, &run.reference_digest)
    );

    let edges = [1510.0, 1530.0, 1550.0, 1600.0, 1700.0, 10_000.0];
    let serving_ms_hist = edges
        .iter()
        .map(|&le_ms| HistBucket {
            le_ms,
            count: crashes.iter().filter(|c| c.serving_ms <= le_ms).count() as u64,
        })
        .collect();

    Ok(ScenarioHa {
        name: name.to_string(),
        log_records: run.records.len() as u64,
        log_bytes: run.log_bytes,
        log_segments: run.segments.len(),
        snapshots: run.store.snapshots().len(),
        standby_applied,
        crash_points: crashes.len() as u64,
        recovered_identical: crashes.len() as u64,
        torn_tails,
        warm_takeover_identical: true,
        crashes,
        serving_ms_hist,
    })
}

/// Snapshot-cadence sweep over one scenario's log: rebuild a store
/// offline at each cadence, recover cleanly, and confirm the replay
/// tail is bounded by the cadence (and the digest unchanged).
fn cadence_sweep(run: &HaRun) -> Result<Vec<CadencePoint>, String> {
    let mut points = Vec::new();
    for cadence in [1u64, 2, 4, 8] {
        let mut replica = scenario::genesis(&run.spec);
        let _ = replica.take_journal();
        let mut store = SnapshotStore::new(0);
        for (i, rec) in run.records.iter().enumerate() {
            replay(&mut replica, std::slice::from_ref(rec))
                .map_err(|e| format!("offline replay: {e}"))?;
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
        .map_err(|e| format!("cadence {cadence} recovery: {e}"))?;
        ensure!(
            outcome.controller.state_digest() == run.reference_digest,
            "cadence {cadence} recovery diverged"
        );
        ensure!(
            outcome.replayed < cadence.max(1),
            "cadence {cadence} replayed {} records — tail not bounded",
            outcome.replayed
        );
        points.push(CadencePoint {
            cadence,
            snapshots: store.snapshots().len(),
            replayed_tail: outcome.replayed,
            log_records: run.records.len() as u64,
        });
    }
    Ok(points)
}

/// A scenario under the crash schedule: name, JSON, and whether its log
/// also carries the snapshot-cadence sweep.
type Case = (&'static str, &'static str, bool);

/// `repro ha`: one cell per scenario; the observer is the WAL.
pub struct Ha;

impl Experiment for Ha {
    const NAME: &'static str = "ha";
    const IDENTITY: Identity = Identity::Observer;
    type Point = ();
    type Cell = Case;
    /// The scenario block and its cadence sweep; `None` with the WAL off.
    type Out = Option<(ScenarioHa, Vec<CadencePoint>)>;
    type Report = HaReport;

    fn points(&self, _: Sweep) -> Vec<()> {
        vec![()]
    }

    fn cells(&self, _: &()) -> Vec<Case> {
        vec![
            ("testbed_outage", TESTBED_OUTAGE, true),
            ("backbone_week_faults", BACKBONE_WEEK_FAULTS, false),
        ]
    }

    fn label(&self, _: &(), cell: &Case) -> String {
        cell.0.to_string()
    }

    fn run(
        &self,
        _: &(),
        &(name, json, sweep): &Case,
        wal: bool,
    ) -> Result<CellRun<Self::Out>, String> {
        let spec: ScenarioSpec =
            serde_json::from_str(json).map_err(|e| format!("bad scenario JSON: {e}"))?;
        if !wal {
            let (text, ctl) =
                scenario::run_with(&spec).map_err(|e| format!("scenario failed: {e}"))?;
            return Ok(CellRun {
                drops: ctl.trace.dropped() + ctl.spans.dropped(),
                ..CellRun::new(transcript_digest(&text, &ctl.state_digest()), None)
            });
        }
        let (run, digest, drops) = run_journaled(spec)?;
        let cadence = if sweep {
            cadence_sweep(&run)?
        } else {
            Vec::new()
        };
        let scenario = crash_schedule(name, run)?;
        Ok(CellRun {
            digest,
            text: harness::json(&scenario),
            drops,
            out: Some((scenario, cadence)),
        })
    }

    fn finish(&self, ctx: &Ctx, runs: Runs<Self>) -> Result<Finished<HaReport>, GateError> {
        let mut scenarios = Vec::new();
        let mut cadence_sweep = Vec::new();
        for run in runs.into_iter().flat_map(|p| p.main) {
            let (scenario, cadence) = run.out.expect("the WAL-on run carries the schedule");
            scenarios.push(scenario);
            cadence_sweep.extend(cadence);
        }
        let report = HaReport {
            sync_every_barriers: SYNC_EVERY,
            snapshot_cadence: SNAPSHOT_CADENCE,
            scenarios,
            cadence_sweep,
        };
        let json = harness::report_json::<Self>(ctx, &report);
        Ok(Finished {
            summary: render(&report),
            report,
            files: Vec::new(),
            goldens: vec![("ha_bench.json", json)],
        })
    }
}

/// Render the human-readable summary.
fn render(report: &HaReport) -> String {
    let mut out = String::from(
        "HA — write-ahead log, snapshots, primary/standby failover\n\
         (every row is gated: WAL on/off byte-identity, snapshot recovery ==\n \
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
}
