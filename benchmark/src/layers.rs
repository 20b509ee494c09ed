//! Unit-cost loops: a bare layer driven directly with a run's own inputs,
//! so the per-layer ledger can price what happens inside product calls the
//! benchmark cannot span from outside.

use std::hint::black_box;
use std::time::Instant;

use griphon::durability::{Wal, WalConfig};
use griphon::rwa::PathEngine;
use griphon::{RegionMap, RwaConfig};
use photonic::{GeneratedPlant, LineRate, RoadmId};
use simcore::{Crc32c, Scheduler, SimDuration};

use crate::report::nearest_rank;
use crate::trace::Tracer;
use crate::workloads::Facts;

/// WAL read and write paths and the CRC kernel over a run's own log:
/// decode the segments, re-append every record into a fresh log, checksum
/// the bytes.
pub fn wal_unit_costs(wal: &Wal, t: &mut Tracer, facts: &mut Facts) {
    let t0 = Instant::now();
    let decoded = t.time("wal.decode", || Wal::decode(wal.segments()));
    facts.insert("wal.decode_s", t0.elapsed().as_secs_f64());
    let (records, _) = decoded.expect("a log the run just wrote decodes");

    let mut fresh = Wal::new(WalConfig::default());
    let t0 = Instant::now();
    let open = t.enter("wal.append_loop");
    for r in &records {
        fresh.append(r.at, &r.intent);
    }
    t.exit(open);
    let append_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        fresh.total_bytes(),
        wal.total_bytes(),
        "re-append is byte-identical"
    );
    facts.insert(
        "wal.append_ns_per_record",
        append_s * 1e9 / records.len().max(1) as f64,
    );

    // Small logs are checksummed repeatedly so the loop outlasts timer noise.
    let bytes = wal.total_bytes().max(1);
    let passes = (64 << 20) / bytes + 1;
    let t0 = Instant::now();
    let open = t.enter("simcore.crc_loop");
    for _ in 0..passes {
        let mut crc = Crc32c::new();
        for seg in wal.segments() {
            crc.update(black_box(seg));
        }
        black_box(crc.finish());
    }
    t.exit(open);
    let gib = (bytes * passes) as f64 / (1u64 << 30) as f64;
    facts.insert("simcore.crc_gib_per_s", gib / t0.elapsed().as_secs_f64());
}

/// The DES kernel alone, in the workload's own pattern: `depth` events are
/// scheduled up front, `events - depth` pop+schedule pairs run at that
/// pending depth, then the queue is drained — `events` pops in all. A
/// server that schedules every arrival before it starts is all fill and
/// drain; a controller with a few workflows in flight is all steady state.
pub fn scheduler_unit_cost(events: u64, depth: usize, t: &mut Tracer, facts: &mut Facts) {
    let depth = depth.clamp(1, events.max(1) as usize);
    let step = SimDuration::from_micros(50);
    let mut sched: Scheduler<u32> = Scheduler::new();
    let t0 = Instant::now();
    let open = t.enter("simcore.sched_loop");
    for i in 0..depth {
        sched.schedule_after(step * (i as u64 + 1), i as u32);
    }
    let horizon = step * (depth as u64 + 1);
    for _ in depth as u64..events {
        let (_, ev) = sched.pop().expect("depth stays constant");
        sched.schedule_after(horizon, black_box(ev));
    }
    while let Some(ev) = sched.pop() {
        black_box(ev);
    }
    t.exit(open);
    facts.insert(
        "simcore.sched_ns_per_event",
        t0.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64,
    );
}

/// The RWA layer alone: `PathEngine::plan_wavelength` over the workload's
/// own endpoint sequence on the pristine plant (route cache and region map
/// as the controller has them). `rwa.plan_total_s` is what the ledger moves
/// out of the controller's spans.
pub fn rwa_unit_cost(
    plant: &GeneratedPlant,
    cfg: &RwaConfig,
    endpoints: &[(RoadmId, RoadmId)],
    t: &mut Tracer,
    facts: &mut Facts,
) {
    let mut engine = PathEngine::new();
    engine.set_cache_capacity(cfg.route_cache_capacity);
    engine
        .install_region_map(&plant.net, RegionMap::new(plant.region_of.clone()))
        .expect("generated plants satisfy the single-gateway invariant");
    let mut ns: Vec<u64> = Vec::with_capacity(endpoints.len());
    let open = t.enter("rwa.plan_loop");
    for &(a, b) in endpoints {
        let t0 = Instant::now();
        let plan = engine.plan_wavelength(&plant.net, cfg, a, b, LineRate::Gbps10, &[]);
        ns.push(t0.elapsed().as_nanos() as u64);
        black_box(plan).ok();
    }
    t.exit(open);
    let total: u64 = ns.iter().sum();
    ns.sort_unstable();
    facts.insert(
        "rwa.plan_ns_per_call",
        total as f64 / ns.len().max(1) as f64,
    );
    facts.insert("rwa.plan_p99_us", nearest_rank(&ns, 0.99) as f64 / 1e3);
    facts.insert("rwa.plan_total_s", total as f64 / 1e9);
}
