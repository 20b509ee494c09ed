//! `lambda-cold`: a bare controller on a 600-ROADM plant lights and
//! releases wavelengths between uniformly random endpoints, so nearly every
//! route query misses the cache — the same RWA layer `bod-mesh` hits hot.

use griphon::durability::WalConfig;
use griphon::{ConnectionId, Controller, CustomerId};
use photonic::{GeneratorConfig, LineRate, RoadmId};
use simcore::{DataRate, SimRng};

use super::{
    controller_facts, digest, switched_off, verify_by_recovery, Cx, Facts, Outcome, Plant, Switch,
    Workload, PLANT_SEED,
};
use crate::layers;

pub struct LambdaCold;

/// Admission waves, each one `journal_batch` of `WAVE` intents.
const WAVES: u64 = 400;
const WAVE: usize = 32;

pub struct Input {
    plant: Plant,
    ctl: Controller,
    customer: CustomerId,
    endpoints: Vec<(RoadmId, RoadmId)>,
}

pub struct Live {
    plant: Plant,
    ctl: Controller,
    endpoints: Vec<(RoadmId, RoadmId)>,
    lit: u64,
}

pub struct Kept {
    plant: Plant,
    ctl: Controller,
    endpoints: Vec<(RoadmId, RoadmId)>,
    digest: u32,
}

impl Workload for LambdaCold {
    type Input = Input;
    type Live = Live;
    type Kept = Kept;

    fn setup(&self, cx: &mut Cx) -> Input {
        let gen = GeneratorConfig {
            ots_per_node: 8,
            ..GeneratorConfig::with_target_roadms(600, PLANT_SEED)
        };
        let plant = Plant::generate(&gen, 2, Plant::config(), cx.t);
        let mut ctl = plant.genesis();
        if cx.wal {
            ctl.enable_journal(WalConfig::default());
        }
        let customer = ctl.register_tenant("cold", DataRate::from_gbps(1_000_000));
        let nodes: Vec<RoadmId> = plant.plant.interior.iter().flatten().copied().collect();
        let mut rng = SimRng::new(cx.seed).fork(0xC01D);
        let endpoints = (0..cx.scaled(WAVES) as usize * WAVE)
            .map(|_| {
                let a = *rng.choose(&nodes);
                loop {
                    let b = *rng.choose(&nodes);
                    if b != a {
                        break (a, b);
                    }
                }
            })
            .collect();
        Input {
            plant,
            ctl,
            customer,
            endpoints,
        }
    }

    fn region(&self, input: Input, cx: &mut Cx) -> Live {
        let Input {
            plant,
            mut ctl,
            customer,
            endpoints,
        } = input;
        let t = &mut *cx.t;
        let mut lit = 0u64;
        for wave in endpoints.chunks(WAVE) {
            let open = t.enter("wal.journal_batch");
            let (ids, _) = ctl.journal_batch(|c| {
                let mut ids: Vec<ConnectionId> = Vec::with_capacity(wave.len());
                for &(a, b) in wave {
                    let open = t.enter("controller.request_wavelength");
                    let r = c.request_wavelength(customer, a, b, LineRate::Gbps10);
                    t.exit(open);
                    ids.extend(r.ok());
                }
                ids
            });
            t.exit(open);
            lit += ids.len() as u64;
            t.time("controller.run_until", || ctl.run_until_idle());
            let open = t.enter("wal.journal_batch");
            ctl.journal_batch(|c| {
                for id in &ids {
                    let open = t.enter("controller.request_teardown");
                    let _ = c.request_teardown(*id);
                    t.exit(open);
                }
            });
            t.exit(open);
            t.time("controller.run_until", || ctl.run_until_idle());
        }
        Live {
            plant,
            ctl,
            endpoints,
            lit,
        }
    }

    fn finish(&self, live: Live, cx: &mut Cx) -> (Outcome, Kept) {
        let Live {
            plant,
            ctl,
            endpoints,
            lit,
        } = live;
        let digest = digest(&ctl, cx.t);
        let intents = endpoints.len() as u64;
        let mut exact = Facts::new();
        plant.facts(&mut exact);
        controller_facts(&ctl, &mut exact);
        *exact.entry("controller.blocked").or_default() += (intents - lit) as f64;
        let outcome = Outcome {
            ops: intents,
            served_share: lit as f64 / intents as f64,
            failed: intents - lit,
            digest,
            exact,
            errors: Vec::new(),
        };
        let kept = Kept {
            plant,
            ctl,
            endpoints,
            digest,
        };
        (outcome, kept)
    }

    /// The run's own log, replayed from genesis, rebuilds the controller.
    fn verify(&self, kept: &Kept, region_s: f64, cx: &mut Cx, facts: &mut Facts) -> Vec<String> {
        let mut errors =
            verify_by_recovery(&kept.ctl, kept.digest, || kept.plant.genesis(), cx.t, facts);
        if !cx.t.is_on() {
            return errors;
        }

        layers::rwa_unit_cost(
            &kept.plant.plant,
            &kept.plant.cfg.rwa,
            &kept.endpoints,
            cx.t,
            facts,
        );
        let wal = kept.ctl.journal().expect("journal on");
        layers::wal_unit_costs(wal, cx.t, facts);
        layers::scheduler_unit_cost(kept.ctl.events_processed(), WAVE, cx.t, facts);

        let off = switched_off(self, cx, Switch::Wal, kept.digest, &mut errors);
        facts.insert("wal.on_off_delta_s", region_s - off.wall_s);
        errors
    }
}
