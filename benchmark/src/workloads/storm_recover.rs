//! `storm-recover`: fibre cuts under a standing load on a 600-ROADM plant
//! with the NOC scraping, then a crash: the controller is rebuilt from
//! genesis over its own log. Fault handling, the NOC scrape and the WAL
//! read path, beside the write path the other workloads exercise.

use std::collections::BTreeSet;
use std::time::Instant;

use griphon::durability::{recovery, RecoveryError, RecoveryOutcome, Wal, WalConfig};
use griphon::{ConnState, Controller, ControllerConfig};
use photonic::{FiberId, GeneratorConfig, LineRate};
use simcore::{DataRate, SimDuration, SimRng};

use super::{
    controller_facts, digest, recover_from_log, recovery_errors, switched_off, Cx, Facts, Outcome,
    Plant, Switch, Workload, PLANT_SEED,
};
use crate::layers;
use crate::report::nearest_rank;

pub struct StormRecover;

/// Fibre cuts per round; each is followed by `HOURS_PER_CUT` of sim time.
const CUTS: u64 = 40;
const HOURS_PER_CUT: u64 = 6;
const REPAIR: SimDuration = SimDuration::from_hours(4);
/// Standing 10 G wavelengths lit (untimed) before the first cut.
const STANDING: u64 = 1_000;
const SCRAPE: SimDuration = SimDuration::from_secs(7_200);

fn genesis(plant: &Plant, noc: bool) -> Controller {
    let mut ctl = plant.genesis();
    if noc {
        ctl.noc.enable(SCRAPE);
    }
    ctl
}

pub struct Input {
    plant: Plant,
    live: Controller,
    cuts: Vec<(FiberId, usize)>,
}

pub struct Live {
    plant: Plant,
    live: Controller,
    recovered: Option<Result<RecoveryOutcome, RecoveryError>>,
    cuts: u64,
    storm_s: f64,
    recover_s: f64,
}

pub struct Kept {
    plant: Plant,
    live: Controller,
    digest: u32,
    storm_s: f64,
    recover_s: f64,
}

impl Workload for StormRecover {
    type Input = Input;
    type Live = Live;
    type Kept = Kept;

    fn setup(&self, cx: &mut Cx) -> Input {
        let gen = GeneratorConfig {
            ots_per_node: 16,
            regens_per_hub: 128,
            ..GeneratorConfig::with_target_roadms(600, PLANT_SEED)
        };
        let cfg = ControllerConfig {
            restoration_parallelism: 8,
            ..Plant::config()
        };
        let plant = Plant::generate(&gen, 8, cfg, cx.t);
        let mut live = genesis(&plant, cx.noc);
        if cx.wal {
            live.enable_journal(WalConfig::default());
        }
        let customer = live.register_tenant("standing", DataRate::from_gbps(1_000_000));

        // Carrier traffic is skewed towards short hauls: three standing
        // wavelengths in four stay inside one region, so the backbone keeps
        // spare wavelengths for restoration detours.
        let regions = &plant.plant.interior;
        let mut rng = SimRng::new(cx.seed).fork(0x5709);
        let open = cx.t.enter("controller.standing_load");
        let mut left = cx.scaled(STANDING);
        while left > 0 {
            let wave = left.min(32);
            left -= wave;
            live.journal_batch(|c| {
                for _ in 0..wave {
                    let home = rng.choose(regions);
                    let away = if rng.chance(0.75) {
                        home
                    } else {
                        rng.choose(regions)
                    };
                    let (a, b) = (*rng.choose(home), *rng.choose(away));
                    if a != b {
                        let _ = c.request_wavelength(customer, a, b, LineRate::Gbps10);
                    }
                }
            });
            live.run_until_idle();
        }
        cx.t.exit(open);

        // Cut fibres that carry traffic, so that every cut exercises
        // localisation and restoration; no fibre is cut twice.
        let used: BTreeSet<FiberId> = live
            .connections()
            .filter_map(|c| c.wavelength_plan())
            .flat_map(|p| p.path.iter().copied())
            .collect();
        let mut used: Vec<FiberId> = used.into_iter().collect();
        rng.shuffle(&mut used);
        let cuts = used
            .into_iter()
            .take(cx.scaled(CUTS) as usize)
            .map(|f| {
                let spans = plant.plant.net.fiber(f).spans.len() as u64;
                (f, rng.below(spans) as usize)
            })
            .collect();
        Input { plant, live, cuts }
    }

    fn region(&self, input: Input, cx: &mut Cx) -> Live {
        let Input {
            plant,
            mut live,
            cuts,
        } = input;
        let t0 = Instant::now();
        for &(fiber, span) in &cuts {
            cx.t.time("fault.inject", || live.inject_fiber_cut(fiber, span));
            cx.t.time("fault.schedule_repair", || {
                live.schedule_repair(fiber, REPAIR)
            });
            let until = live.now() + SimDuration::from_hours(HOURS_PER_CUT);
            cx.t.time("fault.run_until", || live.run_until(until));
        }
        let storm_s = t0.elapsed().as_secs_f64();

        // The crash: rebuild from genesis over the log to the same instant.
        let t1 = Instant::now();
        let recovered = recover_from_log(&live, || genesis(&plant, cx.noc), cx.t);
        Live {
            plant,
            live,
            recovered,
            cuts: cuts.len() as u64,
            storm_s,
            recover_s: t1.elapsed().as_secs_f64(),
        }
    }

    fn finish(&self, l: Live, cx: &mut Cx) -> (Outcome, Kept) {
        let live_digest = digest(&l.live, cx.t);
        let mut errors = Vec::new();
        let mut hours = l.cuts * HOURS_PER_CUT;
        if let Some(recovered) = &l.recovered {
            hours *= 2;
            errors.extend(recovery_errors(&l.live, live_digest, recovered));
        }

        let impacted: Vec<_> = l
            .live
            .connections()
            .filter(|c| !c.outage_total.is_zero() || c.outage_since.is_some())
            .collect();
        let restored = impacted
            .iter()
            .filter(|c| c.state == ConnState::Active)
            .count() as u64;
        let mut outage_ns: Vec<u64> = impacted.iter().map(|c| c.outage_total.as_nanos()).collect();
        outage_ns.sort_unstable();
        let impacted = impacted.len() as u64;

        let mut exact = Facts::new();
        l.plant.facts(&mut exact);
        controller_facts(&l.live, &mut exact);
        exact.insert("fault.cuts", l.cuts as f64);
        exact.insert("fault.impacted", impacted as f64);
        exact.insert("fault.restored", restored as f64);
        exact.insert(
            "fault.restore_p50_sim_s",
            nearest_rank(&outage_ns, 0.5) as f64 / 1e9,
        );

        let outcome = Outcome {
            ops: hours,
            served_share: if impacted == 0 {
                1.0
            } else {
                restored as f64 / impacted as f64
            },
            failed: impacted - restored,
            digest: live_digest,
            exact,
            errors,
        };
        let kept = Kept {
            plant: l.plant,
            live: l.live,
            digest: live_digest,
            storm_s: l.storm_s,
            recover_s: l.recover_s,
        };
        (outcome, kept)
    }

    /// The recovery inside the region is the correctness replay; the traced
    /// passes split it into decode and replay and difference WAL and NOC.
    fn verify(&self, kept: &Kept, region_s: f64, cx: &mut Cx, facts: &mut Facts) -> Vec<String> {
        let wal = kept.live.journal().expect("journal on");
        facts.insert("wal.recover_s", kept.recover_s);
        facts.insert(
            "wal.recover_records_per_s",
            wal.records() as f64 / kept.recover_s,
        );
        let mut errors = Vec::new();
        if !cx.t.is_on() {
            return errors;
        }

        layers::wal_unit_costs(wal, cx.t, facts);
        let (records, _) = Wal::decode(wal.segments()).expect("own log decodes");
        let mut replica = genesis(&kept.plant, true);
        let t0 = Instant::now();
        let open = cx.t.enter("wal.replay");
        recovery::replay(&mut replica, &records).expect("own log replays");
        replica.run_until(kept.live.now());
        cx.t.exit(open);
        facts.insert("wal.replay_s", t0.elapsed().as_secs_f64());
        layers::scheduler_unit_cost(kept.live.events_processed(), 64, cx.t, facts);

        let off = switched_off(self, cx, Switch::Wal, kept.digest, &mut errors);
        facts.insert("wal.on_off_delta_s", kept.storm_s - off.kept.storm_s);
        // NOC counters are outside the state digest; the plant and every
        // connection must be where the scraped run left them.
        let off = switched_off(self, cx, Switch::Noc, kept.digest, &mut errors);
        let delta = region_s - off.wall_s;
        facts.insert("noc.on_off_delta_s", delta);
        // Live run and recovery both scrape.
        facts.insert(
            "noc.ms_per_scrape",
            delta * 1e3 / (2.0 * facts["noc.scrapes"]).max(1.0),
        );
        errors
    }
}
