//! Nightly replication with bandwidth on demand: a CSP with data centers
//! at nodes I and IV runs its 2 a.m. bulk backup through a composite
//! 12 G bundle (the paper's 2×1G OTN + 1×10G λ example), then releases
//! everything once the backlog drains.
//!
//! ```sh
//! cargo run --example replication_burst
//! ```

use cloud::scheduler::BodPolicy;
use cloud::workload::{WorkloadConfig, WorkloadGenerator};
use cloud::{cost, DataCenterSet};
use griphon::controller::{Controller, ControllerConfig};
use photonic::{LineRate, PhotonicNetwork};
use simcore::{DataRate, DataSize, SimDuration};

fn main() {
    let (net, ids) = PhotonicNetwork::testbed(10);
    let mut ctl = Controller::new(net, ControllerConfig::default());

    // OTN switches + a trunk so sub-wavelength service exists too.
    ctl.add_otn_switch(ids.i, DataRate::from_gbps(320));
    ctl.add_otn_switch(ids.iv, DataRate::from_gbps(320));
    ctl.provision_trunk(ids.i, ids.iv, LineRate::Gbps10)
        .expect("trunk plannable");
    ctl.run_until_idle();

    let csp = ctl.tenants.register("acme-cloud", DataRate::from_gbps(400));

    // Two DC sites with 40 G access pipes.
    let mut dcs = DataCenterSet::new();
    let dc_a = dcs.add("ashburn", ids.i, DataRate::from_gbps(40));
    let dc_b = dcs.add("portland", ids.iv, DataRate::from_gbps(40));

    // First: the paper's composite example — a 12 G bundle.
    let bundle = ctl
        .request_bandwidth(csp, ids.i, ids.iv, DataRate::from_gbps(12))
        .expect("bundle plannable");
    ctl.run_until_idle();
    println!(
        "composite bundle: {} members delivering {} (1×10G λ + 2×1G OTN)\n",
        bundle.members.len(),
        ctl.bundle_active_rate(&bundle)
    );
    ctl.release_bundle(&bundle);
    ctl.run_until_idle();

    // Then: three nights of backups, moved by the BoD policy.
    let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 42);
    let jobs = gen.nightly_backups(&[(dc_a, dc_b)], DataSize::from_terabytes(30), 3);
    println!(
        "{} nightly 30 TB backup jobs (2 a.m., 4 h deadline)",
        jobs.len()
    );

    let policy = BodPolicy {
        max_rate: DataRate::from_gbps(40),
        drain_target: SimDuration::from_mins(45),
        idle_release: SimDuration::from_mins(10),
    };
    let outcome = policy.run(
        &mut ctl,
        csp,
        ids.i,
        ids.iv,
        jobs,
        SimDuration::from_hours(3 * 24 + 12),
        SimDuration::from_secs(60),
    );

    println!(
        "completed {}/{} jobs; mean completion {:.2} h; deadlines met {:.0}%",
        outcome.log.completed,
        outcome.log.completed + outcome.log.unfinished,
        outcome.log.mean_completion_secs / 3600.0,
        outcome.log.deadline_hit_rate * 100.0
    );
    println!(
        "bandwidth held: {:.1} Gbps·h over 3.5 days (peak {} Gbps), {} setups",
        outcome.gbps_hours, outcome.peak_gbps, outcome.setups
    );
    let bod_cost = cost::bod_cost(outcome.gbps_hours, outcome.setups);
    let leased = cost::leased_cost(outcome.peak_gbps, 84.0);
    println!(
        "BoD cost {bod_cost:.0} vs {leased:.0} to lease the same peak flat ({:.0}% saved)",
        (1.0 - bod_cost / leased) * 100.0
    );
}
