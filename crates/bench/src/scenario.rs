//! Declarative scenario runner.
//!
//! An operations exercise — orders, failures, repairs, maintenance —
//! described as JSON and replayed against a live controller. This is
//! how non-Rust users (and the `scenarios/*.json` files shipped in the
//! repository) drive the stack:
//!
//! ```json
//! {
//!   "topology": { "testbed": { "ots_per_node": 6 } },
//!   "deterministic": true,
//!   "tenants": [ { "name": "acme", "quota_gbps": 100 } ],
//!   "events": [
//!     { "at_secs": 0,    "do": { "wavelength": { "tenant": 0, "from": "I", "to": "IV", "gbps": 10 } } },
//!     { "at_secs": 300,  "do": { "cut_fiber": { "a": "I", "b": "IV" } } },
//!     { "at_secs": 300,  "do": { "repair": { "a": "I", "b": "IV", "after_secs": 28800 } } },
//!     { "at_secs": 7200, "do": "report" }
//!   ]
//! }
//! ```
//!
//! Events execute in time order; `report` snapshots customer views, SLA
//! aggregates and headline metrics into the runner's output.

use serde::Deserialize;
use std::fmt::Write as _;

use griphon::controller::{Controller, ControllerConfig};
use griphon::{ConnectionId, CustomerId};
use photonic::{EmsProfile, EqualizationModel, LineRate, PhotonicNetwork, RoadmId};
use simcore::{DataRate, SimDuration, SimTime};

/// Which plant to build.
#[derive(Debug, Clone, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TopologySpec {
    /// The paper's Fig. 4 testbed.
    Testbed {
        /// Transponders per node.
        ots_per_node: usize,
    },
    /// The 14-node NSFNET backbone.
    Nsfnet {
        /// Transponders per node.
        ots_per_node: usize,
        /// Regens per node.
        regens_per_node: usize,
    },
    /// A generated hierarchical plant (`photonic::generator`) of roughly
    /// `target_roadms` nodes; the region partition is installed on the
    /// controller's path engine automatically.
    Generated {
        /// Approximate plant size in ROADMs (exact for 14/100/300/600).
        target_roadms: usize,
        /// Generator seed (independent of the scenario seed).
        plant_seed: u64,
    },
}

/// One tenant to onboard.
#[derive(Debug, Clone, Deserialize)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Quota in Gbps.
    pub quota_gbps: u64,
}

/// An action within the scenario. Node references use display names
/// ("I"…"IV" on the testbed, city names on NSFNET).
#[derive(Debug, Clone, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ActionSpec {
    /// Order an unprotected wavelength (gbps ∈ {10, 40, 100}).
    Wavelength {
        /// Tenant index.
        tenant: usize,
        /// A-end node name.
        from: String,
        /// Z-end node name.
        to: String,
        /// Line rate in Gbps.
        gbps: u64,
    },
    /// Order a 1+1-protected wavelength.
    ProtectedWavelength {
        /// Tenant index.
        tenant: usize,
        /// A-end node name.
        from: String,
        /// Z-end node name.
        to: String,
        /// Line rate in Gbps.
        gbps: u64,
    },
    /// Order a composite bundle of the given aggregate rate.
    Bundle {
        /// Tenant index.
        tenant: usize,
        /// A-end node name.
        from: String,
        /// Z-end node name.
        to: String,
        /// Aggregate rate in Gbps.
        gbps: u64,
    },
    /// Tear down the n-th successfully ordered connection (0-based,
    /// order of issue; bundles count each member).
    Teardown {
        /// Order index.
        order: usize,
    },
    /// Cut the fiber between two nodes.
    CutFiber {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
    },
    /// Schedule repair of the fiber between two nodes.
    Repair {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
        /// Crew time in seconds.
        after_secs: u64,
    },
    /// Drain a fiber for maintenance via bridge-and-roll.
    Maintenance {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
    },
    /// Return a fiber from maintenance.
    EndMaintenance {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
    },
    /// Book an advance reservation (calendared BoD window).
    Reserve {
        /// Tenant index.
        tenant: usize,
        /// A-end node name.
        from: String,
        /// Z-end node name.
        to: String,
        /// Aggregate rate in Gbps.
        gbps: u64,
        /// Window start (seconds from scenario start).
        start_secs: u64,
        /// Window end (seconds from scenario start).
        end_secs: u64,
    },
    /// Snapshot customer views, SLAs and metrics into the output.
    Report,
}

/// One timed event.
#[derive(Debug, Clone, Deserialize)]
pub struct EventSpec {
    /// When (seconds from scenario start).
    pub at_secs: u64,
    /// What.
    #[serde(rename = "do")]
    pub action: ActionSpec,
}

/// The whole scenario.
#[derive(Debug, Clone, Deserialize)]
pub struct ScenarioSpec {
    /// Plant to build.
    pub topology: TopologySpec,
    /// RNG seed (default 1).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Disable latency jitter for exactly reproducible reports.
    #[serde(default)]
    pub deterministic: bool,
    /// Tenants to onboard, referenced by index in actions.
    pub tenants: Vec<TenantSpec>,
    /// Node names to give OTN switches (320 G fabric each).
    #[serde(default)]
    pub otn_switches: Vec<String>,
    /// Trunks to pre-provision between OTN switch nodes (10 G each).
    #[serde(default)]
    pub trunks: Vec<(String, String)>,
    /// Enable the NOC with this scrape cadence (seconds). Absent (the
    /// default) leaves the NOC off; the scenario report is byte-identical
    /// either way — see `griphon::noc` for the determinism contract.
    #[serde(default)]
    pub noc_scrape_secs: Option<u64>,
    /// Journal every northbound intent to the write-ahead log before
    /// executing it (`griphon::durability`). The scenario outcome is
    /// byte-identical either way; the log is what crash recovery and the
    /// warm standby replay.
    #[serde(default)]
    pub wal: bool,
    /// The timed actions.
    pub events: Vec<EventSpec>,
}

fn default_seed() -> u64 {
    1
}

/// Errors surfaced while parsing or executing a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The JSON did not parse.
    Parse(serde_json::Error),
    /// A node name did not resolve.
    UnknownNode(String),
    /// A tenant index was out of range.
    UnknownTenant(usize),
    /// An order index did not resolve to a connection.
    UnknownOrder(usize),
    /// An unsupported line rate was requested.
    BadRate(u64),
    /// Two named nodes are not adjacent.
    NotAdjacent(String, String),
    /// A node is listed twice in `otn_switches`.
    DuplicateOtnSwitch(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "parse: {e}"),
            ScenarioError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            ScenarioError::UnknownTenant(i) => write!(f, "unknown tenant #{i}"),
            ScenarioError::UnknownOrder(i) => write!(f, "unknown order #{i}"),
            ScenarioError::BadRate(g) => write!(f, "unsupported rate {g} G"),
            ScenarioError::NotAdjacent(a, b) => write!(f, "{a} and {b} not adjacent"),
            ScenarioError::DuplicateOtnSwitch(n) => write!(f, "OTN switch at {n:?} listed twice"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Parse and run a scenario from JSON; returns the accumulated report.
pub fn run_json(json: &str) -> Result<String, ScenarioError> {
    let spec: ScenarioSpec = serde_json::from_str(json).map_err(ScenarioError::Parse)?;
    run(&spec)
}

fn rate_of(gbps: u64) -> Result<LineRate, ScenarioError> {
    match gbps {
        10 => Ok(LineRate::Gbps10),
        40 => Ok(LineRate::Gbps40),
        100 => Ok(LineRate::Gbps100),
        other => Err(ScenarioError::BadRate(other)),
    }
}

/// Execute a parsed scenario.
pub fn run(spec: &ScenarioSpec) -> Result<String, ScenarioError> {
    run_with(spec).map(|(out, _)| out)
}

/// Execute a parsed scenario and also hand back the finished controller,
/// so callers (the NOC bench target, tests) can inspect telemetry that
/// deliberately never reaches the report text.
pub fn run_with(spec: &ScenarioSpec) -> Result<(String, Controller), ScenarioError> {
    let mut ctl = genesis(spec);
    if spec.wal {
        ctl.enable_journal(griphon::WalConfig::default());
    }
    let out = drive(spec, &mut ctl, &mut |_| {})?;
    Ok((out, ctl))
}

/// CRC-32C over a scenario transcript and the controller's state digest:
/// what two runs of one scenario with an observer off and on (the NOC,
/// the WAL) must agree on.
pub fn transcript_digest(text: &str, state: &str) -> u32 {
    let mut crc = simcore::Crc32c::new();
    crc.update(text.as_bytes());
    crc.update(state.as_bytes());
    crc.finish()
}

/// Build the genesis controller for a spec: plant, configuration, and
/// NOC cadence — but none of the scenario's intents. Calling this twice
/// with the same spec yields byte-identical controllers, which is what
/// crash recovery and the warm standby replay against
/// (`griphon::durability`).
pub fn genesis(spec: &ScenarioSpec) -> Controller {
    let mut region_map = None;
    let net = match spec.topology {
        TopologySpec::Testbed { ots_per_node } => PhotonicNetwork::testbed(ots_per_node).0,
        TopologySpec::Nsfnet {
            ots_per_node,
            regens_per_node,
        } => PhotonicNetwork::nsfnet(ots_per_node, LineRate::Gbps10, regens_per_node),
        TopologySpec::Generated {
            target_roadms,
            plant_seed,
        } => {
            let plant = photonic::generate(&photonic::GeneratorConfig::with_target_roadms(
                target_roadms,
                plant_seed,
            ));
            region_map = Some(griphon::rwa::RegionMap::new(plant.region_of));
            plant.net
        }
    };
    let mut cfg = ControllerConfig {
        seed: spec.seed,
        ..ControllerConfig::default()
    };
    if spec.deterministic {
        cfg.ems = EmsProfile::calibrated_deterministic();
        cfg.equalization = EqualizationModel::calibrated_deterministic();
    }
    let mut ctl = Controller::new(net, cfg);
    if let Some(map) = region_map {
        ctl.install_region_map(map)
            .expect("generated plants satisfy the single-gateway invariant");
    }
    if let Some(secs) = spec.noc_scrape_secs {
        ctl.noc.enable(SimDuration::from_secs(secs));
    }
    ctl
}

/// Drive a spec's setup and timed events against `ctl`, invoking
/// `barrier` after setup and after every event — the hook HA harnesses
/// use as a log-shipping / snapshot point. Returns the accumulated
/// report text.
pub fn drive(
    spec: &ScenarioSpec,
    ctl: &mut Controller,
    barrier: &mut dyn FnMut(&mut Controller),
) -> Result<String, ScenarioError> {
    let node = |ctl: &Controller, name: &str| -> Result<RoadmId, ScenarioError> {
        ctl.net
            .roadm_by_name(name)
            .ok_or_else(|| ScenarioError::UnknownNode(name.to_string()))
    };
    let fiber = |ctl: &Controller, a: &str, b: &str| {
        let na = node(ctl, a)?;
        let nb = node(ctl, b)?;
        ctl.net
            .fiber_between(na, nb)
            .ok_or_else(|| ScenarioError::NotAdjacent(a.to_string(), b.to_string()))
    };

    // The whole setup phase — tenant onboarding, switch installs, trunk
    // provisioning — is one admission burst, group-committed to the WAL
    // as a single batch (one flush, one batch CRC; the segment bytes are
    // identical to per-call appends, so every golden digest holds).
    enum Setup {
        Tenants(Vec<CustomerId>),
        Abort(String),
    }
    let (setup, _commit) = ctl.journal_batch(|ctl| -> Result<Setup, ScenarioError> {
        let tenants: Vec<CustomerId> = spec
            .tenants
            .iter()
            // The journaled entry point, so tenant onboarding replays
            // from the intent log like every other northbound call.
            .map(|t| ctl.register_tenant(&t.name, DataRate::from_gbps(t.quota_gbps)))
            .collect();
        for name in &spec.otn_switches {
            let n = node(ctl, name)?;
            // Refused before the switch is journaled: a second switch on
            // one node is not a state the controller can hold.
            if ctl.otn_switch_at(n).is_some() {
                return Err(ScenarioError::DuplicateOtnSwitch(name.clone()));
            }
            ctl.add_otn_switch(n, DataRate::from_gbps(320));
        }
        for (a, b) in &spec.trunks {
            let na = node(ctl, a)?;
            let nb = node(ctl, b)?;
            // Trunk planning failures surface in the report, not as
            // panics.
            if let Err(e) = ctl.provision_trunk(na, nb, LineRate::Gbps10) {
                return Ok(Setup::Abort(format!(
                    "scenario aborted: trunk {a}–{b}: {e}\n"
                )));
            }
        }
        Ok(Setup::Tenants(tenants))
    });
    let tenants = match setup? {
        Setup::Tenants(t) => t,
        Setup::Abort(text) => return Ok(text),
    };
    ctl.run_until_idle();
    barrier(ctl);

    let mut events: Vec<(usize, &EventSpec)> = spec.events.iter().enumerate().collect();
    events.sort_by_key(|(i, e)| (e.at_secs, *i));

    let mut out = String::new();
    let mut orders: Vec<ConnectionId> = Vec::new();
    let tenant_of = |i: usize| -> Result<CustomerId, ScenarioError> {
        tenants
            .get(i)
            .copied()
            .ok_or(ScenarioError::UnknownTenant(i))
    };

    for (_, ev) in events {
        ctl.run_until(SimTime::from_secs(ev.at_secs));
        match &ev.action {
            ActionSpec::Wavelength {
                tenant,
                from,
                to,
                gbps,
            } => {
                let t = tenant_of(*tenant)?;
                let (f, d) = (node(ctl, from)?, node(ctl, to)?);
                match ctl.request_wavelength(t, f, d, rate_of(*gbps)?) {
                    Ok(id) => {
                        orders.push(id);
                        let _ = writeln!(out, "[{}] ordered {id}: {gbps}G {from}→{to}", ctl.now());
                    }
                    Err(e) => {
                        let _ = writeln!(out, "[{}] order REFUSED ({from}→{to}): {e}", ctl.now());
                    }
                }
            }
            ActionSpec::ProtectedWavelength {
                tenant,
                from,
                to,
                gbps,
            } => {
                let t = tenant_of(*tenant)?;
                let (f, d) = (node(ctl, from)?, node(ctl, to)?);
                match ctl.request_protected_wavelength(t, f, d, rate_of(*gbps)?) {
                    Ok(id) => {
                        orders.push(id);
                        let _ =
                            writeln!(out, "[{}] ordered {id}: {gbps}G 1+1 {from}→{to}", ctl.now());
                    }
                    Err(e) => {
                        let _ =
                            writeln!(out, "[{}] 1+1 order REFUSED ({from}→{to}): {e}", ctl.now());
                    }
                }
            }
            ActionSpec::Bundle {
                tenant,
                from,
                to,
                gbps,
            } => {
                let t = tenant_of(*tenant)?;
                let (f, d) = (node(ctl, from)?, node(ctl, to)?);
                match ctl.request_bandwidth(t, f, d, DataRate::from_gbps(*gbps)) {
                    Ok(bundle) => {
                        let _ = writeln!(
                            out,
                            "[{}] ordered {}: {gbps}G as {} members",
                            ctl.now(),
                            bundle.id,
                            bundle.members.len()
                        );
                        orders.extend(bundle.members);
                    }
                    Err(e) => {
                        let _ = writeln!(out, "[{}] bundle REFUSED: {e}", ctl.now());
                    }
                }
            }
            ActionSpec::Teardown { order } => {
                let id = *orders
                    .get(*order)
                    .ok_or(ScenarioError::UnknownOrder(*order))?;
                match ctl.request_teardown(id) {
                    Ok(()) => {
                        let _ = writeln!(out, "[{}] teardown {id} requested", ctl.now());
                    }
                    Err(e) => {
                        let _ = writeln!(out, "[{}] teardown {id} refused: {e}", ctl.now());
                    }
                }
            }
            ActionSpec::CutFiber { a, b } => {
                let f = fiber(ctl, a, b)?;
                ctl.inject_fiber_cut(f, 0);
                let _ = writeln!(out, "[{}] CUT {a}–{b}", ctl.now());
            }
            ActionSpec::Repair { a, b, after_secs } => {
                let f = fiber(ctl, a, b)?;
                ctl.schedule_repair(f, SimDuration::from_secs(*after_secs));
                let _ = writeln!(out, "[{}] repair {a}–{b} in {after_secs}s", ctl.now());
            }
            ActionSpec::Maintenance { a, b } => {
                let f = fiber(ctl, a, b)?;
                match ctl.start_fiber_maintenance(f) {
                    Ok(moved) => {
                        let _ = writeln!(
                            out,
                            "[{}] maintenance {a}–{b}: {} circuits moving",
                            ctl.now(),
                            moved.len()
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "[{}] maintenance {a}–{b} failed: {e}", ctl.now());
                    }
                }
            }
            ActionSpec::EndMaintenance { a, b } => {
                let f = fiber(ctl, a, b)?;
                ctl.end_fiber_maintenance(f);
                let _ = writeln!(out, "[{}] maintenance done {a}–{b}", ctl.now());
            }
            ActionSpec::Reserve {
                tenant,
                from,
                to,
                gbps,
                start_secs,
                end_secs,
            } => {
                let t = tenant_of(*tenant)?;
                let (f, d) = (node(ctl, from)?, node(ctl, to)?);
                match ctl.reserve_bandwidth(
                    t,
                    f,
                    d,
                    DataRate::from_gbps(*gbps),
                    SimTime::from_secs(*start_secs),
                    SimTime::from_secs(*end_secs),
                ) {
                    Ok(id) => {
                        let _ = writeln!(
                            out,
                            "[{}] booked {id}: {gbps}G [{start_secs}s, {end_secs}s)",
                            ctl.now()
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "[{}] booking REFUSED: {e}", ctl.now());
                    }
                }
            }
            ActionSpec::Report => {
                let _ = writeln!(out, "\n===== report at {} =====", ctl.now());
                for (i, t) in tenants.iter().enumerate() {
                    out.push_str(&ctl.customer_view(*t));
                    let sla = ctl.sla_report(*t);
                    let _ = writeln!(
                        out,
                        "SLA: aggregate {:.5} ({}), worst circuit {:.5}",
                        sla.aggregate,
                        griphon::nines(sla.aggregate),
                        sla.worst
                    );
                    let _ = i;
                }
                let _ = writeln!(out, "--- carrier metrics ---");
                out.push_str(&ctl.metrics.report());
                out.push('\n');
            }
        }
        barrier(ctl);
    }
    ctl.run_until_idle();
    let _ = writeln!(out, "\n===== final state at {} =====", ctl.now());
    for t in &tenants {
        out.push_str(&ctl.customer_view(*t));
    }
    out.push_str(&ctl.metrics.report());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"{
        "topology": { "testbed": { "ots_per_node": 6 } },
        "deterministic": true,
        "tenants": [
            { "name": "acme", "quota_gbps": 100 },
            { "name": "bravo", "quota_gbps": 50 }
        ],
        "otn_switches": ["I", "IV"],
        "trunks": [["I", "IV"]],
        "events": [
            { "at_secs": 0,     "do": { "wavelength": { "tenant": 0, "from": "I", "to": "IV", "gbps": 10 } } },
            { "at_secs": 0,     "do": { "protected_wavelength": { "tenant": 1, "from": "I", "to": "IV", "gbps": 10 } } },
            { "at_secs": 10,    "do": { "bundle": { "tenant": 0, "from": "I", "to": "IV", "gbps": 12 } } },
            { "at_secs": 600,   "do": { "cut_fiber": { "a": "I", "b": "IV" } } },
            { "at_secs": 600,   "do": { "repair": { "a": "I", "b": "IV", "after_secs": 28800 } } },
            { "at_secs": 3600,  "do": "report" },
            { "at_secs": 7200,  "do": { "teardown": { "order": 0 } } }
        ]
    }"#;

    #[test]
    fn scenario_runs_end_to_end() {
        let out = run_json(SCENARIO).unwrap();
        assert!(out.contains("ordered conn0"), "{out}");
        assert!(out.contains("1+1"), "{out}");
        assert!(out.contains("CUT I–IV"));
        assert!(out.contains("report at"));
        assert!(out.contains("SLA: aggregate"));
        assert!(out.contains("fault.restored"));
        assert!(out.contains("final state"));
    }

    #[test]
    fn scenario_is_deterministic() {
        assert_eq!(run_json(SCENARIO).unwrap(), run_json(SCENARIO).unwrap());
    }

    #[test]
    fn bad_json_reports_parse_error() {
        assert!(matches!(
            run_json("{ not json"),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let bad = r#"{
            "topology": { "testbed": { "ots_per_node": 2 } },
            "tenants": [ { "name": "a", "quota_gbps": 10 } ],
            "events": [
                { "at_secs": 0, "do": { "wavelength": { "tenant": 0, "from": "X", "to": "IV", "gbps": 10 } } }
            ]
        }"#;
        assert!(matches!(
            run_json(bad),
            Err(ScenarioError::UnknownNode(n)) if n == "X"
        ));
    }

    #[test]
    fn duplicate_otn_switch_rejected() {
        let bad = r#"{
            "topology": { "testbed": { "ots_per_node": 2 } },
            "wal": true,
            "tenants": [],
            "otn_switches": ["I", "I"],
            "events": []
        }"#;
        assert!(matches!(
            run_json(bad),
            Err(ScenarioError::DuplicateOtnSwitch(n)) if n == "I"
        ));
    }

    #[test]
    fn bad_rate_rejected() {
        let bad = r#"{
            "topology": { "testbed": { "ots_per_node": 2 } },
            "tenants": [ { "name": "a", "quota_gbps": 100 } ],
            "events": [
                { "at_secs": 0, "do": { "wavelength": { "tenant": 0, "from": "I", "to": "IV", "gbps": 25 } } }
            ]
        }"#;
        assert!(matches!(run_json(bad), Err(ScenarioError::BadRate(25))));
    }

    #[test]
    fn refused_orders_are_reported_not_fatal() {
        // Quota of 5 G cannot buy a 10 G wavelength.
        let s = r#"{
            "topology": { "testbed": { "ots_per_node": 2 } },
            "deterministic": true,
            "tenants": [ { "name": "tiny", "quota_gbps": 5 } ],
            "events": [
                { "at_secs": 0, "do": { "wavelength": { "tenant": 0, "from": "I", "to": "IV", "gbps": 10 } } }
            ]
        }"#;
        let out = run_json(s).unwrap();
        assert!(out.contains("REFUSED"), "{out}");
    }

    #[test]
    fn reservations_run_from_json() {
        let s = r#"{
            "topology": { "testbed": { "ots_per_node": 6 } },
            "deterministic": true,
            "tenants": [ { "name": "acme", "quota_gbps": 100 } ],
            "otn_switches": ["I", "IV"],
            "trunks": [["I", "IV"]],
            "events": [
                { "at_secs": 100,   "do": { "reserve": { "tenant": 0, "from": "I", "to": "IV", "gbps": 12, "start_secs": 7200, "end_secs": 14400 } } },
                { "at_secs": 10000, "do": "report" }
            ]
        }"#;
        let out = run_json(s).unwrap();
        assert!(out.contains("booked resv0"), "{out}");
        assert!(out.contains("resv.completed = 1"), "{out}");
    }

    #[test]
    fn nsfnet_topology_resolves_city_names() {
        let s = r#"{
            "topology": { "nsfnet": { "ots_per_node": 4, "regens_per_node": 2 } },
            "deterministic": true,
            "tenants": [ { "name": "acme", "quota_gbps": 100 } ],
            "events": [
                { "at_secs": 0, "do": { "wavelength": { "tenant": 0, "from": "Seattle", "to": "Princeton", "gbps": 10 } } },
                { "at_secs": 3600, "do": "report" }
            ]
        }"#;
        let out = run_json(s).unwrap();
        assert!(out.contains("Seattle"), "{out}");
        assert!(out.contains("[up]"), "{out}");
    }
}
