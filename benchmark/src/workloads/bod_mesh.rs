//! `bod-mesh`: the paper's use case. Bulk jobs between 64 data-centre pairs
//! order and release 10 G wavelengths through `cloud::scheduler::MultiPairBod`
//! against one controller on a generated 100-ROADM plant.

use cloud::scheduler::{BodPolicy, MultiPairBod};
use cloud::{BulkJob, DataCenterId, PolicyOutcome, WorkloadConfig, WorkloadGenerator};
use griphon::durability::{Intent, Wal, WalConfig};
use griphon::{Controller, CustomerId};
use photonic::{GeneratorConfig, RoadmId};
use simcore::{DataRate, DataSize, SimDuration, SimRng};

use super::{
    controller_facts, digest, switched_off, verify_by_recovery, Cx, Facts, Outcome, Plant, Switch,
    Workload, PLANT_SEED,
};
use crate::layers;

pub struct BodMesh;

const PAIRS: usize = 64;
/// Days of bulk-job arrivals per pair.
const DAYS: u64 = 40;
/// The policy keeps running this long after the last arrival, so that every
/// job can finish and every wavelength is released before the horizon.
const DRAIN: SimDuration = SimDuration::from_hours(48);
const TICK: SimDuration = SimDuration::from_secs(60);

pub struct Input {
    plant: Plant,
    ctl: Controller,
    customer: CustomerId,
    pairs: Vec<(RoadmId, RoadmId, Vec<BulkJob>)>,
    horizon: SimDuration,
}

pub struct Live {
    plant: Plant,
    ctl: Controller,
    outcomes: Vec<PolicyOutcome>,
}

pub struct Kept {
    plant: Plant,
    ctl: Controller,
    digest: u32,
}

impl Workload for BodMesh {
    type Input = Input;
    type Live = Live;
    type Kept = Kept;

    fn setup(&self, cx: &mut Cx) -> Input {
        let gen = GeneratorConfig {
            ots_per_node: 64,
            ..GeneratorConfig::with_target_roadms(100, PLANT_SEED)
        };
        let plant = Plant::generate(&gen, 0, Plant::config(), cx.t);
        let mut ctl = plant.genesis();
        if cx.wal {
            ctl.enable_journal(WalConfig::default());
        }
        let customer = ctl.register_tenant("csp", DataRate::from_gbps(1_000_000));

        let arrivals = SimDuration::from_hours(24 * cx.scaled(DAYS));
        let nodes: Vec<RoadmId> = plant.plant.interior.iter().flatten().copied().collect();
        // Where the data centres sit is part of the plant, not of the load.
        let mut rng = SimRng::new(PLANT_SEED).fork(0xB0D);
        let shape = WorkloadConfig {
            bulk_interarrival: SimDuration::from_secs(1_250),
            bulk_max: DataSize::from_terabytes(8),
            ..WorkloadConfig::default()
        };
        let pairs = (0..PAIRS)
            .map(|p| {
                let a = *rng.choose(&nodes);
                let b = loop {
                    let b = *rng.choose(&nodes);
                    if b != a {
                        break b;
                    }
                };
                let jobs = WorkloadGenerator::new(shape.clone(), cx.seed ^ (p as u64 + 1))
                    .bulk_jobs(
                        DataCenterId::from_index(2 * p),
                        DataCenterId::from_index(2 * p + 1),
                        arrivals,
                    );
                (a, b, jobs)
            })
            .collect();
        Input {
            plant,
            ctl,
            customer,
            pairs,
            horizon: arrivals + DRAIN,
        }
    }

    fn region(&self, input: Input, cx: &mut Cx) -> Live {
        let Input {
            plant,
            mut ctl,
            customer,
            pairs,
            horizon,
        } = input;
        let policy = MultiPairBod {
            policy: BodPolicy::default(),
        };
        let outcomes = cx.t.time("cloud.run", || {
            policy.run(&mut ctl, customer, pairs, horizon, TICK)
        });
        Live {
            plant,
            ctl,
            outcomes,
        }
    }

    fn finish(&self, live: Live, cx: &mut Cx) -> (Outcome, Kept) {
        let Live {
            plant,
            ctl,
            outcomes,
        } = live;
        let completed: u64 = outcomes.iter().map(|o| o.log.completed as u64).sum();
        let unfinished: u64 = outcomes.iter().map(|o| o.log.unfinished as u64).sum();
        let setups: u64 = outcomes.iter().map(|o| o.setups).sum();
        let digest = digest(&ctl, cx.t);

        let mut exact = Facts::new();
        plant.facts(&mut exact);
        controller_facts(&ctl, &mut exact);
        exact.insert("cloud.jobs", (completed + unfinished) as f64);
        exact.insert("cloud.completed", completed as f64);
        exact.insert("cloud.setups", setups as f64);
        // The policy does not report the orders the carrier refused; the
        // log does: every order is journaled, only accepted ones set up.
        if let Some(wal) = ctl.journal() {
            let (records, _) = Wal::decode(wal.segments()).expect("own log decodes");
            let orders = records
                .iter()
                .filter(|r| matches!(r.intent, Intent::Wavelength { .. }))
                .count() as u64;
            *exact.entry("controller.blocked").or_default() += (orders - setups) as f64;
        }

        let outcome = Outcome {
            ops: completed + unfinished,
            served_share: completed as f64 / (completed + unfinished) as f64,
            failed: unfinished,
            digest,
            exact,
            errors: Vec::new(),
        };
        (outcome, Kept { plant, ctl, digest })
    }

    /// The run's own log, replayed from genesis, rebuilds the controller.
    fn verify(&self, kept: &Kept, region_s: f64, cx: &mut Cx, facts: &mut Facts) -> Vec<String> {
        let mut errors =
            verify_by_recovery(&kept.ctl, kept.digest, || kept.plant.genesis(), cx.t, facts);
        if !cx.t.is_on() {
            return errors;
        }

        // The policy's own cost is the region minus what the controller
        // needs to re-execute the orders the policy placed.
        facts.insert("cloud.policy_self_s", region_s - facts["wal.recover_s"]);
        let wal = kept.ctl.journal().expect("journal on");
        layers::wal_unit_costs(wal, cx.t, facts);
        layers::scheduler_unit_cost(kept.ctl.events_processed(), PAIRS, cx.t, facts);

        let off = switched_off(self, cx, Switch::Wal, kept.digest, &mut errors);
        facts.insert("wal.on_off_delta_s", region_s - off.wall_s);
        errors
    }
}
