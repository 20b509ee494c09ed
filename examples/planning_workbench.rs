//! The carrier's planning workbench (§4, *Network resource planning*):
//! forecast demand from history, size transponder pools with Erlang-B,
//! place a spare budget greedily, and sanity-check the prediction
//! against a simulated arrival process.
//!
//! ```sh
//! cargo run --example planning_workbench
//! ```

use griphon::controller::{Controller, ControllerConfig};
use griphon::planning::{
    erlang_b, forecast_linear, servers_for_blocking, NodeDemand, SparePlanner,
};
use photonic::{LineRate, PhotonicNetwork};
use simcore::{DataRate, SimDuration, SimRng, SimTime};

fn main() {
    // 1. Forecast: quarterly inter-DC demand history (erlangs of OT
    //    usage), growing the way the paper's Forrester citation projects
    //    ("double or triple in the next two to four years").
    let history = [3.0, 3.6, 4.1, 4.9, 5.8];
    let forecast = forecast_linear(&history, 4);
    println!("demand history (erlangs/quarter): {history:?}");
    let pretty: Vec<String> = forecast.iter().map(|f| format!("{f:.2}")).collect();
    println!(
        "forecast next 4 quarters:         [{}]\n",
        pretty.join(", ")
    );

    // 2. Size pools for 1% blocking at the forecast horizon.
    let horizon_demand = *forecast.last().unwrap();
    let needed = servers_for_blocking(horizon_demand, 0.01, 64).unwrap();
    println!(
        "{horizon_demand:.1} erlangs at 1% blocking needs {needed} OTs \
         (B = {:.4})\n",
        erlang_b(horizon_demand, needed)
    );

    // 3. Place a budget of 12 spares over three PoPs with different
    //    loads and weights.
    let planner = SparePlanner {
        demands: vec![
            NodeDemand {
                erlangs: 6.0,
                weight: 3.0,
            }, // premium hub
            NodeDemand {
                erlangs: 4.0,
                weight: 1.0,
            },
            NodeDemand {
                erlangs: 2.0,
                weight: 1.0,
            },
        ],
    };
    let base = [2usize, 2, 2];
    let placed = planner.place(&base, 12);
    println!("spare placement over PoPs (base {base:?} + 12): {placed:?}");
    println!(
        "weighted blocking: before {:.4}, after {:.4}\n",
        planner.weighted_blocking(&base),
        planner.weighted_blocking(&placed)
    );

    // 4. Validate: drive a two-node plant with Poisson arrivals at the
    //    forecast load and compare measured blocking with Erlang-B.
    let n_ots = 8usize;
    let offered = 5.8f64;
    let mut net = PhotonicNetwork::new(photonic::ChannelGrid::C_BAND_80);
    let a = net.add_roadm("a");
    let b = net.add_roadm("b");
    net.link(a, b, 80.0).unwrap();
    net.add_transponders(a, LineRate::Gbps10, n_ots).unwrap();
    net.add_transponders(b, LineRate::Gbps10, n_ots).unwrap();
    let mut ctl = Controller::new(net, ControllerConfig::quiet());
    let csp = ctl.tenants.register("pool", DataRate::from_gbps(100_000));
    let mut rng = SimRng::new(7);
    let hold_mean = 7_200.0;
    let gap_mean = hold_mean / offered;
    let mut t = SimTime::ZERO;
    let mut departures: Vec<(SimTime, griphon::ConnectionId)> = Vec::new();
    let arrivals = 800;
    let mut blocked = 0;
    for _ in 0..arrivals {
        t += SimDuration::from_secs_f64(rng.exp(gap_mean));
        departures.sort_by_key(|(d, _)| *d);
        while let Some((d, id)) = departures.first().copied() {
            if d <= t {
                ctl.run_until(d);
                let _ = ctl.request_teardown(id);
                departures.remove(0);
            } else {
                break;
            }
        }
        ctl.run_until(t);
        match ctl.request_wavelength(csp, a, b, LineRate::Gbps10) {
            Ok(id) => departures.push((t + SimDuration::from_secs_f64(rng.exp(hold_mean)), id)),
            Err(_) => blocked += 1,
        }
    }
    let measured = blocked as f64 / arrivals as f64;
    println!(
        "validation at {offered} erlangs / {n_ots} OTs over {arrivals} arrivals:\n\
         Erlang-B predicts {:.3}, simulation measures {measured:.3}",
        erlang_b(offered, n_ots)
    );
}
