//! The telemetry write path allocates only when it creates something: a
//! write to an existing metric child, an observation on an existing SLO
//! stream, a NOC scrape of an unchanged plant and an idle edge drain tick
//! must not touch the heap (DESIGN.md §10, "Telemetry write path"). The
//! same holds one layer down: a warm event kernel schedules, cancels and
//! pops without allocating, and what `ApiServer::run` allocates does not
//! depend on how many requests it is offered (DESIGN.md §8 "Scheduler
//! liveness", §16 "The run loop"). A warm path engine allocates only what
//! it returns or caches (DESIGN.md §7).
//!
//! This file is its own test binary so that it can install a counting
//! global allocator. Counts are per thread: the test harness runs tests
//! on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use griphon::rwa::{PathEngine, RegionMap, RwaConfig, RwaError};
use griphon::{Controller, ControllerConfig, SloEngine, SloSpec};
use northbound::server::DRAIN_INTERVAL;
use northbound::{build_testbed, ApiServer, Request, ServerConfig, TenantDirectory};
use photonic::{generate, GeneratedPlant, GeneratorConfig, LineRate, RoadmId};
use simcore::{FamilyRegistry, MetricsRegistry, Scheduler, SimDuration, SimTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counter is a const-
// initialised `Cell<u64>` with no destructor, so touching it never
// allocates and is valid for the whole life of the thread. The default
// `realloc` and `alloc_zeroed` go through `alloc`, so they count too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_counter_counts() {
    assert_eq!(
        allocs_during(|| drop(std::hint::black_box(Box::new(1u8)))),
        1
    );
    assert_eq!(
        allocs_during(|| {
            let mut v = vec![1u8];
            v.reserve(1000);
            std::hint::black_box(&v);
        }),
        2
    );
}

#[test]
fn writes_to_existing_children_do_not_allocate() {
    let mut reg = FamilyRegistry::new();
    let labels = [("roadm", "roadm17"), ("degree", "2")];
    let shuffled = [("degree", "2"), ("roadm", "roadm17")];
    let creating = allocs_during(|| {
        reg.gauge("noc_degree_lit_lambdas", &labels).set(1.0);
        reg.counter("api_requests_total", &[("tier", "free")])
            .incr();
        reg.histogram("lat_ms", &[("tier", "free")]).record(5.0);
    });
    assert!(creating > 0, "creating a child builds its owned key");
    let id = reg.counter_id("api_requests_total", &[("tier", "free")]);
    let hist = reg.histogram_id("lat_ms", &[("tier", "free")]);
    let writing = allocs_during(|| {
        for i in 0..1000 {
            reg.gauge("noc_degree_lit_lambdas", &labels)
                .set(f64::from(i));
            reg.gauge("noc_degree_lit_lambdas", &shuffled).adjust(1.0);
            reg.counter("api_requests_total", &[("tier", "free")])
                .incr();
            reg.counter_at(id).incr();
            // 5.0 already has its bucket.
            reg.histogram("lat_ms", &[("tier", "free")]).record(5.0);
            reg.histogram_at(hist).record(5.0);
        }
    });
    assert_eq!(writing, 0);
    assert_eq!(reg.counter_at(id).get(), 2001);

    let mut plain = MetricsRegistry::new();
    plain.counter("setup.completed").incr();
    plain.histogram("setup.secs").record(62.0);
    plain.gauge("lambdas.active").set(1.0);
    let writing = allocs_during(|| {
        for _ in 0..1000 {
            plain.counter("setup.completed").incr();
            plain.histogram("setup.secs").record(62.0);
            plain.gauge("lambdas.active").adjust(1.0);
        }
    });
    assert_eq!(writing, 0);
}

#[test]
fn observing_an_existing_slo_stream_does_not_allocate() {
    let mut slo = SloEngine::new(vec![SloSpec {
        name: "api_shed_rate",
        objective: 0.9,
        threshold_secs: 0.0,
    }]);
    slo.observe("api_shed_rate", "free", SimTime::ZERO, true);
    // The stream's `Vec` holds four events after its first push; up to
    // there the lookup is all an observation does.
    let within_capacity = allocs_during(|| {
        for s in 1..4 {
            slo.observe("api_shed_rate", "free", SimTime::from_secs(s), s % 2 == 0);
        }
    });
    assert_eq!(within_capacity, 0);
    // Beyond it the only allocations are the stream doubling.
    let growing = allocs_during(|| {
        for s in 4..4096 {
            slo.observe("api_shed_rate", "free", SimTime::from_secs(s), true);
        }
    });
    assert!(growing <= 10, "{growing} allocations for 4092 observations");
}

#[test]
fn second_scrape_of_an_unchanged_plant_does_not_allocate() {
    let plant = generate(&GeneratorConfig::with_target_roadms(100, 7));
    let mut ctl = Controller::new(plant.net, ControllerConfig::default());
    let interval = SimDuration::from_secs(60);
    ctl.noc.enable(interval);
    let first = allocs_during(|| ctl.run_until(SimTime::ZERO + interval));
    assert_eq!(ctl.noc.scrapes(), 1);
    let samples = ctl.noc.families().snapshot().gauges.len() as u64;
    assert!(samples > 500, "a 100-ROADM sweep is {samples} samples");
    assert!(first > samples, "the first scrape creates every child");
    let second = allocs_during(|| ctl.run_until(SimTime::ZERO + interval * 2));
    assert_eq!(ctl.noc.scrapes(), 2);
    assert_eq!(second, 0, "{second} allocations over {samples} samples");
}

#[test]
fn idle_drain_ticks_do_not_allocate_per_tick() {
    let ticks = 1_000;
    let horizon = SimTime::ZERO + DRAIN_INTERVAL * ticks;
    let mut server = ApiServer::new(
        build_testbed(14, 2, 3),
        TenantDirectory::new(10, 3),
        ServerConfig::default(),
    );
    let allocs = allocs_during(|| server.run(&[], horizon));
    // What is left is amortised growth (the depth series, the event
    // queue) and the first resolution of the two southbound gauges.
    assert!(
        allocs < ticks / 10,
        "{allocs} allocations over {ticks} idle ticks"
    );
}

#[test]
fn warm_scheduler_cycles_do_not_allocate() {
    let mut sched: Scheduler<u32> = Scheduler::new();
    // Warm-up: the heap and the slab get their capacity here.
    for i in 0..64 {
        sched.schedule_after(SimDuration::from_secs(1), i);
    }
    while sched.pop().is_some() {}
    let allocs = allocs_during(|| {
        for i in 0..10_000 {
            sched.schedule_after(SimDuration::from_millis(1), i);
            assert_eq!(sched.pop().map(|(_, ev)| ev), Some(i));
            // A cancelled event leaves a tombstone in the heap and a free
            // slot in the slab; the next pop and schedule reclaim both.
            let id = sched.schedule_after(SimDuration::from_millis(1), i);
            assert!(sched.cancel(id));
            assert!(sched.pop().is_none());
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(sched.events_delivered(), 64 + 10_000);
}

#[test]
fn run_allocations_do_not_grow_with_the_request_count() {
    let horizon = SimTime::ZERO + DRAIN_INTERVAL * 100;
    let dir = TenantDirectory::new(10, 3);
    // Every request presents a forged token: a 401 touches no bucket, no
    // queue and no SLO stream, so all that could grow with the request
    // count is the loop's own bookkeeping — of which there is none.
    let allocs_for = |count: u64| {
        let step = horizon.as_nanos() / count;
        let requests: Vec<Request> = (0..count)
            .map(|i| Request {
                tenant: i % 10,
                token: dir.token_for(i % 10) ^ 1,
                arrival: SimTime::from_nanos(i * step),
                pair: 0,
                rate_bps: 1_000_000_000,
                duration_secs: 600,
                abusive: false,
            })
            .collect();
        let mut server = ApiServer::new(
            build_testbed(14, 2, 3),
            dir.clone(),
            ServerConfig::default(),
        );
        let allocs = allocs_during(|| server.run(&requests, horizon));
        assert_eq!(server.finish().unauthorized, count);
        allocs
    };
    assert_eq!(allocs_for(10_000), allocs_for(100_000));
}

/// A 100-ROADM plant, an engine planning over it with the region map
/// installed, and interior endpoints in plant order (cross-region pairs
/// are the long ones).
fn planner() -> (GeneratedPlant, PathEngine, Vec<RoadmId>) {
    let plant = generate(&GeneratorConfig::with_target_roadms(100, 7));
    let mut engine = PathEngine::new();
    engine
        .install_region_map(&plant.net, RegionMap::new(plant.region_of.clone()))
        .unwrap();
    let nodes = plant.interior.iter().flatten().copied().collect();
    (plant, engine, nodes)
}

#[test]
fn route_cache_hits_allocate_only_the_plan() {
    let (plant, mut engine, nodes) = planner();
    let cfg = RwaConfig::default();
    let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
    let plan =
        |e: &mut PathEngine| e.plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[]);
    plan(&mut engine).unwrap();
    let mut planned = None;
    let allocs = allocs_during(|| planned = Some(plan(&mut engine)));
    assert_eq!(engine.cache_stats(), (1, 1));
    // The plan's path, and its regens if it needs any.
    let plan = planned.unwrap().unwrap();
    assert!(plan.hops() > 3, "a cross-region path");
    assert!(allocs <= 2, "{allocs} allocations for a cache hit");
}

#[test]
fn a_warm_miss_allocates_the_same_for_any_k() {
    let (plant, mut engine, nodes) = planner();
    let plan = |e: &mut PathEngine, a: RoadmId, b: RoadmId, k: usize| {
        let cfg = RwaConfig {
            k_paths: k,
            ..RwaConfig::default()
        };
        e.plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[])
    };
    // Warm-up: the arena, the Dijkstra scratch and the cache's table grow
    // here. 40 entries leave the table room for two more.
    let n = nodes.len();
    for i in 0..20 {
        for k in [4, 8] {
            plan(&mut engine, nodes[i], nodes[n - 1 - i], k).unwrap();
        }
    }
    let mut miss = |a, b, k| {
        let mut hops = 0;
        let allocs = allocs_during(|| hops = plan(&mut engine, a, b, k).unwrap().hops());
        assert!(hops > 3, "a cross-region path");
        allocs
    };
    let four = miss(nodes[20], nodes[n - 21], 4);
    let eight = miss(nodes[21], nodes[n - 22], 8);
    assert_eq!(engine.cache_stats(), (0, 42));
    // The entry's path buffer and spans, the plan's path and its regens.
    assert_eq!(four, eight, "a miss at k=8 allocates more than at k=4");
    assert!(four <= 4, "{four} allocations for a warm miss");
}

#[test]
fn counting_dijkstra_runs_does_not_allocate() {
    // No transponders anywhere: every plan searches all `k` candidates
    // and is refused, so a warm plan returns nothing that allocates.
    let plant = generate(&GeneratorConfig {
        ots_per_node: 0,
        ..GeneratorConfig::with_target_roadms(100, 7)
    });
    let nodes: Vec<RoadmId> = plant.interior.iter().flatten().copied().collect();
    let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
    let cfg = RwaConfig {
        use_route_cache: false,
        ..RwaConfig::default()
    };
    let mut engine = PathEngine::new();
    let refuse =
        |e: &mut PathEngine| e.plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[]);
    assert_eq!(
        refuse(&mut engine),
        Err(RwaError::Blocked { candidates: 4 })
    );
    let runs = engine.dijkstra_runs();
    let allocs = allocs_during(|| assert!(refuse(&mut engine).is_err()));
    assert_eq!(allocs, 0);
    assert_eq!(engine.dijkstra_runs(), 2 * runs);
}

#[test]
fn queries_at_an_unchanged_epoch_never_rebuild_the_weight_table() {
    let (mut plant, mut engine, nodes) = planner();
    let cfg = RwaConfig::default();
    let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
    for use_cache in [true, false] {
        for _ in 0..3 {
            engine.k_shortest_paths(&plant.net, a, b, 4, use_cache);
            engine
                .plan_wavelength(&plant.net, &cfg, a, b, LineRate::Gbps10, &[])
                .unwrap();
            engine.disjoint_pair(&plant.net, a, b);
        }
    }
    assert_eq!(engine.weight_table_builds(), 1);
    let first = engine.k_shortest_paths(&plant.net, a, b, 1, true)[0][0];
    plant.net.fiber_mut(first).cut_at(0);
    engine.k_shortest_paths(&plant.net, a, b, 1, true);
    engine.k_shortest_paths(&plant.net, a, b, 1, false);
    assert_eq!(engine.weight_table_builds(), 2);
}
