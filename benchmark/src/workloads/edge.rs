//! `edge-flood` and `day`: the northbound `ApiServer` in front of a
//! controller, once on its reject path and once on its admit path.

use griphon::durability::WalConfig;
use griphon::Controller;
use northbound::{
    build_testbed, generate_fleet, replay_admitted, AdmittedIntent, ApiServer, FleetConfig,
    Request, ServeOutcome, ServerConfig, TenantDirectory, Testbed,
};
use photonic::{generate, GeneratorConfig};
use simcore::{DataRate, SimDuration, SimTime, TraceLog};

use super::{
    controller_facts, digest, faster_of_two, Cx, Facts, Outcome, Workload, PLANT_SEED,
    QUICK_DIVISOR, TRACE_RING,
};
use crate::layers;
use crate::report::nearest_rank;

/// Which of the two edge workloads.
#[derive(Clone, Copy)]
pub struct Edge {
    /// Plant size and endpoint pairs of `build_testbed`.
    roadms: usize,
    pairs: usize,
    /// Fleet arrival rate before diurnal modulation, req/s.
    base_rate_per_sec: f64,
    /// Arrivals are generated over `[0, fleet_secs)`.
    fleet_secs: u64,
    /// The server keeps draining this long after the last arrival, so that
    /// every request is decided before the horizon closes.
    drain_secs: u64,
    /// Whole diurnal cycles inside the fleet horizon: the arrival count
    /// then does not depend on the seed's phase draw.
    diurnal_cycles: u64,
    /// Multiplier on the default per-tenant and per-tier budgets.
    quota_scale: u64,
    /// NOC scrape cadence on the controller, if the workload has one.
    noc_scrape: Option<SimDuration>,
}

const TENANTS: u64 = 1_000_000;

impl Edge {
    /// 20 000 req/s against a drain capacity of 100/s: almost every request
    /// is refused at the edge, and the run ends before the first booking
    /// would start, so the controller only books.
    pub const FLOOD: Edge = Edge {
        roadms: 14,
        pairs: 4,
        base_rate_per_sec: 20_000.0,
        fleet_secs: 60,
        drain_secs: 10,
        diurnal_cycles: 6,
        quota_scale: 1,
        noc_scrape: None,
    };

    /// A quarter of a simulated day at a rate the edge admits: bookings activate into
    /// BoD bundles on a 600-ROADM plant and tear down inside the horizon,
    /// with WAL and NOC on.
    pub const DAY: Edge = Edge {
        roadms: 600,
        pairs: 64,
        base_rate_per_sec: 2.6,
        fleet_secs: 6 * 3_600,
        drain_secs: 60,
        diurnal_cycles: 1,
        quota_scale: 100,
        noc_scrape: Some(SimDuration::from_secs(300)),
    };

    fn fleet(&self, cx: &Cx) -> FleetConfig {
        // `--quick` thins the arrival process and keeps the horizon, so the
        // same bookings still activate and tear down.
        let rate = self.base_rate_per_sec / if cx.quick { QUICK_DIVISOR as f64 } else { 1.0 };
        FleetConfig {
            tenants: TENANTS,
            seed: cx.seed,
            horizon: SimTime::from_secs(self.fleet_secs),
            base_rate_per_sec: rate,
            diurnal_period: SimDuration::from_secs(self.fleet_secs / self.diurnal_cycles),
            pairs: self.pairs,
            ..FleetConfig::default()
        }
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.fleet_secs + self.drain_secs)
    }

    fn server_config(&self) -> ServerConfig {
        let mut cfg = ServerConfig::default();
        for q in &mut cfg.quota {
            q.tenant_budget_mgh *= self.quota_scale;
            q.tier_budget_mgh *= self.quota_scale;
        }
        cfg
    }

    /// The controller fixture, with the workload's WAL and NOC switches.
    fn testbed(&self, cx: &mut Cx) -> Testbed {
        let mut bed = cx.t.time("northbound.build_testbed", || {
            build_testbed(self.roadms, self.pairs, PLANT_SEED)
        });
        bed.ctl.trace = TraceLog::new(TRACE_RING);
        if cx.wal {
            bed.ctl.enable_journal(WalConfig::default());
        }
        if let (Some(interval), true) = (self.noc_scrape, cx.noc) {
            bed.ctl.noc.enable(interval);
        }
        bed
    }

    /// Replay the admitted stream against a bare controller and time it.
    /// One span around the whole replay: like the region it is subtracted
    /// from, the loop itself carries no tracer cost.
    fn timed_replay(&self, kept: &Kept, cx: &mut Cx) -> (Controller, f64) {
        let bed = self.testbed(cx);
        let t0 = std::time::Instant::now();
        let open = cx.t.enter("controller.replay");
        let ctl = replay(bed, &kept.admitted, self.horizon());
        cx.t.exit(open);
        (ctl, t0.elapsed().as_secs_f64())
    }
}

pub struct Input {
    server: ApiServer,
    requests: Vec<Request>,
}

pub struct Live {
    served: ServeOutcome,
    requests: u64,
}

pub struct Kept {
    admitted: Vec<AdmittedIntent>,
    digest: u32,
    requests: u64,
}

impl Workload for Edge {
    type Input = Input;
    type Live = Live;
    type Kept = Kept;

    fn setup(&self, cx: &mut Cx) -> Input {
        let fleet = self.fleet(cx);
        let dir = TenantDirectory::new(TENANTS, cx.seed);
        let requests =
            cx.t.time("northbound.fleet_gen", || generate_fleet(&fleet, &dir));
        let bed = self.testbed(cx);
        Input {
            server: ApiServer::new(bed, dir, self.server_config()),
            requests,
        }
    }

    fn region(&self, input: Input, cx: &mut Cx) -> Live {
        let Input {
            mut server,
            requests,
        } = input;
        let horizon = self.horizon();
        cx.t.time("northbound.run", || server.run(&requests, horizon));
        let served = cx.t.time("northbound.finish", || server.finish());
        Live {
            served,
            requests: requests.len() as u64,
        }
    }

    fn finish(&self, live: Live, _cx: &mut Cx) -> (Outcome, Kept) {
        let Live {
            served: s,
            requests,
        } = live;
        let admitted: u64 = s.admitted_per_tier.iter().sum();
        let r429: u64 = s.rate_limited_per_tier.iter().sum();
        let r403: u64 = s.quota_per_tier.iter().sum();
        let r503: u64 = s.shed_per_tier.iter().sum();
        let decided = admitted + s.unauthorized + r429 + r403 + r503;

        let mut errors = Vec::new();
        if s.offered != requests {
            errors.push(format!(
                "request accounting: offered {} != generated {requests}",
                s.offered
            ));
        }
        if s.controller_refusals != 0 {
            errors.push(format!(
                "controller refused {} intents the edge admitted",
                s.controller_refusals
            ));
        }
        if s.span_dropped != 0 || s.trace_dropped != 0 {
            errors.push(format!(
                "telemetry dropped: {} spans, {} trace events",
                s.span_dropped, s.trace_dropped
            ));
        }

        let mut latencies: Vec<u64> = s.latencies_ns.iter().flatten().copied().collect();
        latencies.sort_unstable();
        let p99 = nearest_rank(&latencies, 0.99) as f64 / 1e6;

        let mut exact = Facts::new();
        exact.insert("northbound.requests", requests as f64);
        exact.insert("northbound.admitted", admitted as f64);
        exact.insert("northbound.rejected_401", s.unauthorized as f64);
        exact.insert("northbound.rejected_429", r429 as f64);
        exact.insert("northbound.rejected_503", r503 as f64);
        exact.insert("northbound.rejected_403", r403 as f64);
        exact.insert("northbound.useful_ratio", admitted as f64 / requests as f64);
        exact.insert(
            "northbound.queue_high_water",
            s.queue_high_water.iter().copied().max().unwrap_or(0) as f64,
        );
        exact.insert("northbound.admit_p99_sim_ms", p99);
        exact.insert("controller.events", s.events_processed as f64);
        exact.insert("telemetry.span_dropped", s.span_dropped as f64);
        exact.insert("telemetry.trace_dropped", s.trace_dropped as f64);

        let outcome = Outcome {
            ops: requests,
            served_share: admitted as f64 / requests as f64,
            failed: requests - decided.min(requests),
            digest: s.digest_crc,
            exact,
            errors,
        };
        let kept = Kept {
            admitted: s.admitted,
            digest: s.digest_crc,
            requests,
        };
        (outcome, kept)
    }

    /// Server-on ≡ server-off: `northbound::replay_admitted` over the
    /// admitted stream, on a bare controller with the same WAL/NOC switches,
    /// reaches the same digest.
    fn verify(&self, kept: &Kept, region_s: f64, cx: &mut Cx, facts: &mut Facts) -> Vec<String> {
        let bed = self.testbed(cx);
        let got = replay_admitted(bed, &kept.admitted, self.horizon());
        let mut errors = Vec::new();
        if got != kept.digest {
            errors.push(format!(
                "server-on digest {:08x} != replay_admitted digest {got:08x}",
                kept.digest
            ));
        }
        if !cx.t.is_on() {
            return errors;
        }

        // The attribution needs the replayed controller back (its journal,
        // NOC and route-cache counters), which `replay_admitted` consumes.
        let (ctl, replay_s) = faster_of_two(|| self.timed_replay(kept, cx));
        let copy = digest(&ctl, cx.t);
        if copy != got {
            errors.push(format!(
                "the benchmark's replay loop reached {copy:08x}, replay_admitted {got:08x}"
            ));
        }
        controller_facts(&ctl, facts);
        facts.insert("controller.replay_s", replay_s);
        facts.insert(
            "controller.replay_us_per_intent",
            replay_s * 1e6 / kept.admitted.len().max(1) as f64,
        );

        // `build_testbed` generates its plant inside one product call, so
        // the generator is timed on its own here.
        let gen = GeneratorConfig::with_target_roadms(self.roadms, PLANT_SEED);
        let t0 = std::time::Instant::now();
        let plant = cx.t.time("photonic.generate", || generate(&gen));
        facts.insert("photonic.generate_s", t0.elapsed().as_secs_f64());
        facts.insert("photonic.roadms", plant.net.roadm_count() as f64);
        facts.insert("photonic.fibers", plant.net.fiber_count() as f64);

        let edge_self = region_s - replay_s;
        facts.insert("northbound.edge_self_s", edge_self);
        facts.insert(
            "northbound.edge_ns_per_request",
            edge_self * 1e9 / kept.requests as f64,
        );
        layers::wal_unit_costs(ctl.journal().expect("journal on"), cx.t, facts);
        // The server's scheduler holds every arrival up front; the
        // controller's own events come on top.
        let events = kept.requests + ctl.events_processed();
        layers::scheduler_unit_cost(events, kept.requests as usize, cx.t, facts);
        drop(ctl);

        // The WAL and the NOC sit behind the controller, so their cost is
        // differenced on the replay, where the edge adds no noise.
        cx.wal = false;
        let (ctl, wal_off_s) = faster_of_two(|| self.timed_replay(kept, cx));
        cx.wal = true;
        if ctl.state_digest_crc() != kept.digest {
            errors.push("WAL-off replay digest differs from WAL-on".to_string());
        }
        facts.insert("wal.on_off_delta_s", replay_s - wal_off_s);
        if self.noc_scrape.is_some() {
            cx.noc = false;
            let (ctl, noc_off_s) = faster_of_two(|| self.timed_replay(kept, cx));
            cx.noc = true;
            if ctl.state_digest_crc() != kept.digest {
                errors.push("NOC-off replay digest differs from NOC-on".to_string());
            }
            let delta = replay_s - noc_off_s;
            facts.insert("noc.on_off_delta_s", delta);
            facts.insert(
                "noc.ms_per_scrape",
                delta * 1e3 / facts["noc.scrapes"].max(1.0),
            );
        }
        errors
    }
}

/// `northbound::replay_admitted`, step for step, but handing the controller
/// back: its journal, NOC and route-cache counters are the only view of the
/// controller side of a serve run (`ApiServer::finish` consumes its own).
/// `verify` holds its digest against the product function's.
fn replay(bed: Testbed, admitted: &[AdmittedIntent], horizon: SimTime) -> Controller {
    let Testbed {
        mut ctl,
        customers,
        pairs,
    } = bed;
    let mut i = 0;
    while i < admitted.len() {
        let at = admitted[i].at;
        ctl.run_until(at);
        let j = i + admitted[i..].iter().take_while(|a| a.at == at).count();
        let (refused, _) = ctl.journal_batch(|c| {
            admitted[i..j]
                .iter()
                .filter(|a| {
                    let (from, to) = pairs[a.pair];
                    c.reserve_bandwidth(
                        customers[a.tier.index()],
                        from,
                        to,
                        DataRate::from_bps(a.rate_bps),
                        a.start,
                        a.end,
                    )
                    .is_err()
                })
                .count()
        });
        assert_eq!(refused, 0, "replay refused an admitted intent");
        i = j;
    }
    ctl.run_until(horizon);
    ctl
}
