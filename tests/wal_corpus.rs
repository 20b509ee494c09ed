//! The committed WAL corpus: recovery must survive a planner change.
//!
//! `durability::recover` rebuilds a controller by replaying *intents*
//! through the planner, not by restoring plans. So a planner change that
//! alters any decision makes every log written before it recover to a
//! different state, and a recovery test whose truth table is built by the
//! same binary cannot see that. This file holds recovery to logs committed
//! under `tests/golden/wal/`, each with the `state_digest_crc` and the
//! refusal count the planner of record reached on it:
//!
//! - `testbed_outage`: the `repro ha` Fig. 4 testbed outage;
//! - `backbone_week`: the `repro ha` NSFNET fault week;
//! - `lambda_cold_100`: about 2 000 cold wavelength intents on a generated
//!   100-ROADM plant with eight transponders a node and a 1 500 km 10 G
//!   reach, held long enough that transponders and regens run out (605
//!   refusals; 151 plans take a candidate past the first), with a fibre
//!   cut and repair every eight waves.
//!
//! Genesis is rebuilt here from the public API alone. Each set must
//! recover to its pinned digest, a record-by-record replay must count the
//! pinned refusals and reach the same digest, and every record must
//! re-encode to its committed bytes. A change that moves a digest on
//! purpose regenerates the corpus and says why:
//!
//! ```text
//! cargo test --release --test wal_corpus -- --ignored --nocapture
//! ```
//!
//! The log format is v1; a format change adds a v2 decoder beside v1 and
//! leaves these bytes alone.

use std::path::{Path, PathBuf};

use griphon::connection::Resources;
use griphon::durability::recovery::{apply, Applied};
use griphon::durability::wal::{encode_rate, WAL_VERSION};
use griphon::rwa::PathEngine;
use griphon::tenant::DEFAULT_PRIORITY;
use griphon::{
    recover, ConnectionId, Controller, ControllerConfig, Intent, RegionMap, RequestError, RwaError,
    SnapshotStore, Wal, WalConfig, WalRecord,
};
use photonic::{generate, GeneratorConfig, LineRate, PhotonicNetwork, ReachModel, RoadmId};
use simcore::codec::{read_frame, Encoder, Frame};
use simcore::{DataRate, SimDuration, SimRng, SimTime};

/// One committed segment set and what the planner of record made of it.
struct Corpus {
    name: &'static str,
    genesis: fn() -> Controller,
    /// Sim time recovery runs the rebuilt controller to.
    target_secs: u64,
    records: u64,
    digest_crc: u32,
    /// Order intents (wavelength, protected wavelength, sub-wavelength,
    /// bundle) refused.
    refusals: u64,
    /// The candidates summed over refusals that were `RwaError::Blocked`.
    blocked_candidates: u64,
}

const CORPUS: [Corpus; 3] = [
    Corpus {
        name: "testbed_outage",
        genesis: testbed_genesis,
        target_secs: 50_000,
        records: 12,
        digest_crc: 0x5b90_1028,
        refusals: 0,
        blocked_candidates: 0,
    },
    Corpus {
        name: "backbone_week",
        genesis: backbone_genesis,
        target_secs: 604_800,
        records: 15,
        digest_crc: 0xc81a_1a32,
        refusals: 0,
        blocked_candidates: 0,
    },
    Corpus {
        name: "lambda_cold_100",
        genesis: lambda_genesis,
        target_secs: LAMBDA_WAVES * WAVE_SECS,
        records: 2057,
        digest_crc: 0x023d_5d3b,
        refusals: 605,
        blocked_candidates: 2386,
    },
];

/// The scenarios' deterministic configuration: seed 1, jitter-free EMS
/// and equalization.
fn deterministic(net: PhotonicNetwork) -> Controller {
    let cfg = ControllerConfig {
        seed: 1,
        ..ControllerConfig::quiet()
    };
    Controller::new(net, cfg)
}

fn testbed_genesis() -> Controller {
    deterministic(PhotonicNetwork::testbed(8).0)
}

fn backbone_genesis() -> Controller {
    deterministic(PhotonicNetwork::nsfnet(8, LineRate::Gbps10, 3))
}

/// Plant seed of the generated corpus (the benchmark's default seed).
const LAMBDA_PLANT_SEED: u64 = 0xB0D11;
const LAMBDA_WAVES: u64 = 50;
const WAVE: usize = 40;
/// A wave's connections are released this many waves later.
const HOLD: usize = 6;
const WAVE_SECS: u64 = 600;

fn lambda_plant() -> photonic::GeneratedPlant {
    generate(&GeneratorConfig {
        ots_per_node: 8,
        ..GeneratorConfig::with_target_roadms(100, LAMBDA_PLANT_SEED)
    })
}

/// A 1 500 km 10 G reach: long cross-region paths need regens at the
/// hubs and anchors, whose pools run out under load, so some plans must
/// take a later candidate that places its regens elsewhere.
fn lambda_genesis() -> Controller {
    let plant = lambda_plant();
    let mut cfg = ControllerConfig::default();
    cfg.rwa.reach = ReachModel {
        km_10g: 1500.0,
        ..ReachModel::default()
    };
    let mut ctl = Controller::new(plant.net, cfg);
    ctl.install_region_map(RegionMap::new(plant.region_of))
        .expect("generated plants satisfy the single-gateway invariant");
    ctl
}

fn dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wal")
        .join(name)
}

/// The committed segments of a set, in file-name order.
fn segments(name: &str) -> Vec<Vec<u8>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir(name))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files.iter().map(|f| std::fs::read(f).unwrap()).collect()
}

/// Replay `records` onto `ctl` one at a time through `recovery::apply`,
/// counting the orders it refused. Returns `(refusals, blocked candidates)`.
fn replay_counting(ctl: &mut Controller, records: &[WalRecord]) -> (u64, u64) {
    let (mut refusals, mut blocked) = (0, 0);
    for rec in records {
        ctl.run_until(rec.at);
        let applied = apply(ctl, &rec.intent).unwrap_or_else(|e| panic!("record {}: {e}", rec.seq));
        if let Applied::Connection(Err(e)) | Applied::Bundle(Err(e)) = applied {
            refusals += 1;
            if let RequestError::Rwa(RwaError::Blocked { candidates }) = e {
                blocked += candidates as u64;
            }
        }
    }
    (refusals, blocked)
}

/// Every record frame of `segments` equals its record re-encoded, and the
/// whole set equals the log rebuilt from the decoded records.
fn assert_reencodes(name: &str, segments: &[Vec<u8>], records: &[WalRecord]) {
    let mut next = records.iter();
    for (i, seg) in segments.iter().enumerate() {
        let mut pos = 0;
        let mut header = true;
        while let Some(frame) = read_frame(seg, &mut pos) {
            let Frame::Ok(payload) = frame else {
                panic!("{name}: segment {i} holds a bad frame at {pos}");
            };
            if std::mem::take(&mut header) {
                assert_eq!(payload[4..8], WAL_VERSION.to_le_bytes(), "{name}: version");
                continue;
            }
            let rec = next.next().expect("as many frames as records");
            let mut e = Encoder::new();
            e.u64(rec.seq).u64(rec.at.as_nanos());
            rec.intent.encode(&mut e);
            assert_eq!(payload, e.as_slice(), "{name}: record {}", rec.seq);
        }
    }
    assert!(next.next().is_none(), "{name}: records without frames");
    let rebuilt = Wal::from_records(WalConfig::default(), records);
    assert_eq!(rebuilt.segments(), segments, "{name}: rebuilt log differs");
}

#[test]
fn corpus_recovers_to_the_pinned_digests() {
    for c in &CORPUS {
        let segments = segments(c.name);
        let (records, report) = Wal::decode(&segments).expect("the corpus decodes");
        assert_eq!(report.torn_bytes, 0, "{}", c.name);
        assert_eq!(records.len() as u64, c.records, "{}", c.name);
        assert_reencodes(c.name, &segments, &records);

        let target = SimTime::from_secs(c.target_secs);
        let out = recover(
            c.genesis,
            &segments,
            &SnapshotStore::new(0),
            target,
            WalConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", c.name));
        assert_eq!(out.replayed, c.records, "{}", c.name);
        assert_eq!(
            out.controller.state_digest_crc(),
            c.digest_crc,
            "{}: recovery reached another state",
            c.name
        );

        let mut ctl = (c.genesis)();
        let counted = replay_counting(&mut ctl, &records);
        ctl.run_until(target);
        assert_eq!(
            counted,
            (c.refusals, c.blocked_candidates),
            "{}: (refusals, blocked candidates)",
            c.name
        );
        assert_eq!(ctl.state_digest_crc(), c.digest_crc, "{}", c.name);
    }
}

/// The two `repro ha` scenarios driven with the journal on, each
/// checked to start from the corpus's public-API genesis.
fn scenario_logs() -> Vec<(&'static str, Controller)> {
    use griphon_bench::noc_target::{BACKBONE_WEEK_FAULTS, TESTBED_OUTAGE};
    use griphon_bench::scenario;

    let mut logs = Vec::new();
    for (name, json, genesis) in [
        (
            "testbed_outage",
            TESTBED_OUTAGE,
            testbed_genesis as fn() -> Controller,
        ),
        ("backbone_week", BACKBONE_WEEK_FAULTS, backbone_genesis),
    ] {
        let spec: scenario::ScenarioSpec = serde_json::from_str(json).unwrap();
        let mut ctl = scenario::genesis(&spec);
        assert_eq!(
            ctl.state_digest(),
            genesis().state_digest(),
            "{name}: the public-API genesis differs from the scenario's"
        );
        ctl.enable_journal(WalConfig::default());
        scenario::drive(&spec, &mut ctl, &mut |_| {}).unwrap();
        logs.push((name, ctl));
    }
    logs
}

/// Journaling the two scenario sets writes exactly their committed
/// segments, so the journal's encoding and the scenario runner's intent
/// stream are pinned, not only their recovery.
#[test]
fn scenario_journals_equal_the_committed_segments() {
    for (c, (name, mut ctl)) in CORPUS.iter().zip(scenario_logs()) {
        assert_eq!(c.name, name);
        ctl.run_until(SimTime::from_secs(c.target_secs));
        let wal = ctl.take_journal().unwrap();
        assert!(
            wal.segments() == segments(name),
            "{name}: the journal differs from tests/golden/wal/{name}"
        );
    }
}

/// Write the two `repro ha` scenario logs and the generated one, with the
/// journaling controller's own planner, and print the values to pin.
#[test]
#[ignore = "regenerates tests/golden/wal; run only to change the corpus on purpose"]
fn generate_corpus() {
    let mut logs = scenario_logs();
    logs.push(("lambda_cold_100", lambda_log()));

    for (c, (name, mut ctl)) in CORPUS.iter().zip(logs) {
        assert_eq!(c.name, name);
        ctl.run_until(SimTime::from_secs(c.target_secs));
        let wal = ctl.take_journal().unwrap();
        let path = dir(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        for (i, seg) in wal.segments().iter().enumerate() {
            std::fs::write(path.join(format!("{i:03}.wal")), seg).unwrap();
        }
        let (records, _) = Wal::decode(wal.segments()).unwrap();
        let mut replayed = (c.genesis)();
        let (refusals, blocked) = replay_counting(&mut replayed, &records);
        replayed.run_until(SimTime::from_secs(c.target_secs));
        assert_eq!(
            replayed.state_digest_crc(),
            ctl.state_digest_crc(),
            "{name}"
        );
        println!(
            "{name}: records {}, bytes {}, segments {}, digest_crc {:#010x}, refusals {refusals}, blocked_candidates {blocked}",
            records.len(),
            wal.total_bytes(),
            wal.segments().len(),
            ctl.state_digest_crc(),
        );
    }
}

/// The generated set: waves of cold wavelength orders between uniformly
/// drawn interior endpoints, each wave released as one bundle `HOLD`
/// waves later, and a fibre cut with its repair every eighth wave.
fn lambda_log() -> Controller {
    let plant = lambda_plant();
    let nodes: Vec<RoadmId> = plant.interior.iter().flatten().copied().collect();
    let mut ctl = lambda_genesis();
    ctl.enable_journal(WalConfig::default());
    let tenant = Intent::RegisterTenant {
        name: "cold".into(),
        quota_bps: DataRate::from_gbps(1_000_000).bps(),
        priority: DEFAULT_PRIORITY,
    };
    let Applied::Tenant(customer) = apply(&mut ctl, &tenant).unwrap() else {
        unreachable!("a tenant registers as Applied::Tenant")
    };
    let mut rng = SimRng::new(LAMBDA_PLANT_SEED).fork(0xC01D);
    let mut waves: Vec<Vec<ConnectionId>> = Vec::new();
    let mut detours = 0;
    for w in 0..LAMBDA_WAVES as usize {
        ctl.run_until(SimTime::from_secs(w as u64 * WAVE_SECS));
        if w >= HOLD {
            let members = waves[w - HOLD].iter().map(|m| m.raw()).collect();
            apply(&mut ctl, &Intent::ReleaseBundle { members }).unwrap();
        }
        if w % 8 == 7 {
            let fibers = ctl.net.fiber_count() as u64;
            let f = photonic::FiberId::from_index(rng.below(fibers) as usize);
            if ctl.net.fiber(f).is_up() {
                let (fiber, after_ns) = (f.raw(), SimDuration::from_secs(3 * WAVE_SECS).as_nanos());
                apply(&mut ctl, &Intent::CutFiber { fiber, span: 0 }).unwrap();
                apply(&mut ctl, &Intent::ScheduleRepair { fiber, after_ns }).unwrap();
            }
        }
        let (ids, _) = ctl.journal_batch(|c| {
            let mut ids = Vec::new();
            for _ in 0..WAVE {
                let a = *rng.choose(&nodes);
                let b = loop {
                    let b = *rng.choose(&nodes);
                    if b != a {
                        break b;
                    }
                };
                let first = PathEngine::new().k_shortest_paths(&c.net, a, b, 1, false);
                let order = Intent::Wavelength {
                    customer: customer.raw(),
                    from: a.raw(),
                    to: b.raw(),
                    rate: encode_rate(LineRate::Gbps10),
                };
                if let Applied::Connection(Ok(id)) = apply(c, &order).unwrap() {
                    if let Some(Resources::Wavelength(plan)) = &c.connection(id).unwrap().resources
                    {
                        detours += u64::from(first.first() != Some(&plan.path));
                    }
                    ids.push(id);
                }
            }
            ids
        });
        waves.push(ids);
    }
    println!("lambda_cold_100: {detours} plans took a candidate past the shortest path");
    ctl
}
