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
//! The runner is a naming layer over the intent log's language. Each
//! action's node, fibre, tenant and order names are resolved to ids once,
//! into the [`Intent`] the action journals, and that intent runs through
//! [`recovery::apply`](apply) — the mapping crash recovery replays — whose
//! [`Applied`] outcome prints the action's transcript line. The set-up
//! (tenants, OTN switches, trunks) goes the same way. Events execute in
//! time order; `report` journals nothing and snapshots customer views, SLA
//! aggregates and headline metrics into the runner's output.

use serde::Deserialize;
use std::fmt::Write as _;

use griphon::controller::{Controller, ControllerConfig};
use griphon::durability::recovery::{apply, Applied, ApplyError};
use griphon::durability::wal::encode_rate;
use griphon::tenant::DEFAULT_PRIORITY;
use griphon::{ConnectionId, CustomerId, Intent};
use photonic::{FiberId, LineRate, PhotonicNetwork, RoadmId};
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

/// A connection order.
#[derive(Debug, Clone, Deserialize)]
pub struct OrderSpec {
    /// Tenant index.
    pub tenant: usize,
    /// A-end node name.
    pub from: String,
    /// Z-end node name.
    pub to: String,
    /// Rate in Gbps: the line rate of a wavelength, a bundle's aggregate.
    pub gbps: u64,
}

/// The fiber between two named nodes.
#[derive(Debug, Clone, Deserialize)]
pub struct LinkSpec {
    /// One endpoint name.
    pub a: String,
    /// Other endpoint name.
    pub b: String,
}

/// An advance booking: an order's fields plus its window.
#[derive(Debug, Clone, Deserialize)]
pub struct BookingSpec {
    /// Tenant index.
    pub tenant: usize,
    /// A-end node name.
    pub from: String,
    /// Z-end node name.
    pub to: String,
    /// Aggregate rate in Gbps.
    pub gbps: u64,
    /// Window start (seconds from scenario start).
    pub start_secs: u64,
    /// Window end (seconds from scenario start).
    pub end_secs: u64,
}

/// An action within the scenario. Node references use display names
/// ("I"…"IV" on the testbed, city names on NSFNET).
#[derive(Debug, Clone, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ActionSpec {
    /// Order an unprotected wavelength (gbps ∈ {10, 40, 100}).
    Wavelength(OrderSpec),
    /// Order a 1+1-protected wavelength.
    ProtectedWavelength(OrderSpec),
    /// Order a composite bundle of the given aggregate rate.
    Bundle(OrderSpec),
    /// Tear down the n-th successfully ordered connection (0-based,
    /// order of issue; bundles count each member).
    Teardown {
        /// Order index.
        order: usize,
    },
    /// Cut the fiber between two nodes.
    CutFiber(LinkSpec),
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
    Maintenance(LinkSpec),
    /// Return a fiber from maintenance.
    EndMaintenance(LinkSpec),
    /// Book an advance reservation (calendared BoD window).
    Reserve(BookingSpec),
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

/// Why `apply` accepts every intent the runner builds: each id in one comes
/// from the plant's own lookups, and a second OTN switch on a node is
/// caught before this is relied on.
const RESOLVED: &str = "the runner resolves every id against the plant";

/// Parse and run a scenario from JSON; returns the accumulated report.
pub fn run_json(json: &str) -> Result<String, ScenarioError> {
    let spec: ScenarioSpec = serde_json::from_str(json).map_err(ScenarioError::Parse)?;
    run_with(&spec).map(|(out, _)| out)
}

/// The intent log's tag for a line rate of `gbps`.
fn rate_of(gbps: u64) -> Result<u8, ScenarioError> {
    match gbps {
        10 => Ok(encode_rate(LineRate::Gbps10)),
        40 => Ok(encode_rate(LineRate::Gbps40)),
        100 => Ok(encode_rate(LineRate::Gbps100)),
        other => Err(ScenarioError::BadRate(other)),
    }
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
    let base = if spec.deterministic {
        ControllerConfig::quiet()
    } else {
        ControllerConfig::default()
    };
    let cfg = ControllerConfig {
        seed: spec.seed,
        ..base
    };
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
    // The whole setup phase — tenant onboarding, switch installs, trunk
    // provisioning — is one admission burst, group-committed to the WAL
    // as a single batch (one flush, one batch CRC; the segment bytes are
    // identical to per-call appends, so every golden digest holds). A
    // trunk that cannot be planned ends the scenario with its transcript
    // (the inner `Err`), not a panic.
    type Setup = Result<Result<Vec<CustomerId>, String>, ScenarioError>;
    let (setup, _commit) = ctl.journal_batch(|ctl| -> Setup {
        let mut tenants = Vec::new();
        for t in &spec.tenants {
            let tenant = Intent::RegisterTenant {
                name: t.name.clone(),
                quota_bps: DataRate::from_gbps(t.quota_gbps).bps(),
                priority: DEFAULT_PRIORITY,
            };
            let Applied::Tenant(id) = apply(ctl, &tenant).expect(RESOLVED) else {
                unreachable!("a tenant registers as Applied::Tenant");
            };
            tenants.push(id);
        }
        for name in &spec.otn_switches {
            let (node, fabric_bps) = (node(ctl, name)?, DataRate::from_gbps(320).bps());
            let added = apply(ctl, &Intent::AddOtnSwitch { node, fabric_bps });
            if let Err(ApplyError::DuplicateOtnSwitch { .. }) = added {
                return Err(ScenarioError::DuplicateOtnSwitch(name.clone()));
            }
            added.expect(RESOLVED);
        }
        for (a, b) in &spec.trunks {
            let trunk = Intent::ProvisionTrunk {
                a: node(ctl, a)?,
                b: node(ctl, b)?,
                rate: encode_rate(LineRate::Gbps10),
            };
            if let Applied::Trunk(Err(e)) = apply(ctl, &trunk).expect(RESOLVED) {
                return Ok(Err(format!("scenario aborted: trunk {a}–{b}: {e}\n")));
            }
        }
        Ok(Ok(tenants))
    });
    let tenants = match setup? {
        Ok(tenants) => tenants,
        Err(abort) => return Ok(abort),
    };
    ctl.run_until_idle();
    barrier(ctl);

    // A stable sort: events at one instant run in file order.
    let mut events: Vec<&EventSpec> = spec.events.iter().collect();
    events.sort_by_key(|e| e.at_secs);

    let mut out = String::new();
    let mut orders: Vec<ConnectionId> = Vec::new();
    for ev in events {
        ctl.run_until(SimTime::from_secs(ev.at_secs));
        match resolve(&ev.action, ctl, &tenants, &orders)? {
            Some(intent) => {
                let applied = apply(ctl, &intent).expect(RESOLVED);
                let line = outcome_line(&ev.action, applied, &mut orders);
                let _ = writeln!(out, "[{}] {line}", ctl.now());
            }
            None => {
                let _ = writeln!(out, "\n===== report at {} =====", ctl.now());
                for t in &tenants {
                    out.push_str(&ctl.customer_view(*t));
                    let sla = ctl.sla_report(*t);
                    let _ = writeln!(
                        out,
                        "SLA: aggregate {:.5} ({}), worst circuit {:.5}",
                        sla.aggregate,
                        griphon::nines(sla.aggregate),
                        sla.worst
                    );
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

/// The raw id of the node called `name`.
fn node(ctl: &Controller, name: &str) -> Result<u32, ScenarioError> {
    ctl.net
        .roadm_by_name(name)
        .map(RoadmId::raw)
        .ok_or_else(|| ScenarioError::UnknownNode(name.to_string()))
}

/// The intent `action` journals, its names resolved against the plant, the
/// onboarded `tenants` and the connections `orders` placed so far; `None`
/// for a report, which journals nothing.
fn resolve(
    action: &ActionSpec,
    ctl: &Controller,
    tenants: &[CustomerId],
    orders: &[ConnectionId],
) -> Result<Option<Intent>, ScenarioError> {
    let ends = |tenant: usize, from: &str, to: &str| -> Result<(u32, u32, u32), ScenarioError> {
        let customer = tenants
            .get(tenant)
            .ok_or(ScenarioError::UnknownTenant(tenant))?;
        Ok((customer.raw(), node(ctl, from)?, node(ctl, to)?))
    };
    let fiber = |a: &str, b: &str| -> Result<u32, ScenarioError> {
        let (na, nb) = (RoadmId::new(node(ctl, a)?), RoadmId::new(node(ctl, b)?));
        ctl.net
            .fiber_between(na, nb)
            .map(FiberId::raw)
            .ok_or_else(|| ScenarioError::NotAdjacent(a.to_string(), b.to_string()))
    };
    Ok(Some(match action {
        ActionSpec::Wavelength(o) => {
            let (customer, from, to) = ends(o.tenant, &o.from, &o.to)?;
            let rate = rate_of(o.gbps)?;
            Intent::Wavelength {
                customer,
                from,
                to,
                rate,
            }
        }
        ActionSpec::ProtectedWavelength(o) => {
            let (customer, from, to) = ends(o.tenant, &o.from, &o.to)?;
            let rate = rate_of(o.gbps)?;
            Intent::ProtectedWavelength {
                customer,
                from,
                to,
                rate,
            }
        }
        ActionSpec::Bundle(o) => {
            let (customer, from, to) = ends(o.tenant, &o.from, &o.to)?;
            let target_bps = DataRate::from_gbps(o.gbps).bps();
            Intent::Bandwidth {
                customer,
                from,
                to,
                target_bps,
            }
        }
        ActionSpec::Teardown { order } => {
            let conn = orders
                .get(*order)
                .ok_or(ScenarioError::UnknownOrder(*order))?;
            Intent::Teardown { conn: conn.raw() }
        }
        ActionSpec::CutFiber(l) => Intent::CutFiber {
            fiber: fiber(&l.a, &l.b)?,
            span: 0,
        },
        ActionSpec::Repair { a, b, after_secs } => Intent::ScheduleRepair {
            fiber: fiber(a, b)?,
            after_ns: SimDuration::from_secs(*after_secs).as_nanos(),
        },
        ActionSpec::Maintenance(l) => Intent::StartFiberMaintenance {
            fiber: fiber(&l.a, &l.b)?,
        },
        ActionSpec::EndMaintenance(l) => Intent::EndFiberMaintenance {
            fiber: fiber(&l.a, &l.b)?,
        },
        ActionSpec::Reserve(r) => {
            let (customer, from, to) = ends(r.tenant, &r.from, &r.to)?;
            Intent::Reserve {
                customer,
                from,
                to,
                rate_bps: DataRate::from_gbps(r.gbps).bps(),
                start_ns: SimTime::from_secs(r.start_secs).as_nanos(),
                end_ns: SimTime::from_secs(r.end_secs).as_nanos(),
            }
        }
        ActionSpec::Report => return Ok(None),
    }))
}

/// The transcript line of an action from what its intent did; the
/// connections an order placed join `orders`.
fn outcome_line(action: &ActionSpec, applied: Applied, orders: &mut Vec<ConnectionId>) -> String {
    match (action, applied) {
        (ActionSpec::Wavelength(o), Applied::Connection(Ok(id))) => {
            orders.push(id);
            format!("ordered {id}: {}G {}→{}", o.gbps, o.from, o.to)
        }
        (ActionSpec::Wavelength(o), Applied::Connection(Err(e))) => {
            format!("order REFUSED ({}→{}): {e}", o.from, o.to)
        }
        (ActionSpec::ProtectedWavelength(o), Applied::Connection(Ok(id))) => {
            orders.push(id);
            format!("ordered {id}: {}G 1+1 {}→{}", o.gbps, o.from, o.to)
        }
        (ActionSpec::ProtectedWavelength(o), Applied::Connection(Err(e))) => {
            format!("1+1 order REFUSED ({}→{}): {e}", o.from, o.to)
        }
        (ActionSpec::Bundle(o), Applied::Bundle(Ok(bundle))) => {
            let n = bundle.members.len();
            orders.extend(bundle.members);
            format!("ordered {}: {}G as {n} members", bundle.id, o.gbps)
        }
        (ActionSpec::Bundle(_), Applied::Bundle(Err(e))) => format!("bundle REFUSED: {e}"),
        (ActionSpec::Teardown { order }, Applied::Done(done)) => match done {
            Ok(()) => format!("teardown {} requested", orders[*order]),
            Err(e) => format!("teardown {} refused: {e}", orders[*order]),
        },
        (ActionSpec::CutFiber(l), _) => format!("CUT {}–{}", l.a, l.b),
        (ActionSpec::Repair { a, b, after_secs }, _) => format!("repair {a}–{b} in {after_secs}s"),
        (ActionSpec::Maintenance(l), Applied::Moved(Ok(moved))) => {
            let n = moved.len();
            format!("maintenance {}–{}: {n} circuits moving", l.a, l.b)
        }
        (ActionSpec::Maintenance(l), Applied::Moved(Err(e))) => {
            format!("maintenance {}–{} failed: {e}", l.a, l.b)
        }
        (ActionSpec::EndMaintenance(l), _) => format!("maintenance done {}–{}", l.a, l.b),
        (ActionSpec::Reserve(r), Applied::Booking(Ok(id))) => {
            let (gbps, start, end) = (r.gbps, r.start_secs, r.end_secs);
            format!("booked {id}: {gbps}G [{start}s, {end}s)")
        }
        (ActionSpec::Reserve(_), Applied::Booking(Err(e))) => format!("booking REFUSED: {e}"),
        (action, applied) => unreachable!("{action:?} applied as {applied:?}"),
    }
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

    /// Every name an action resolves — node, tenant, order, the fibre
    /// between two nodes — left unresolvable is its own typed error.
    #[test]
    fn unknown_node_rejected() {
        let actions = [
            r#"{ "wavelength": { "tenant": 0, "from": "X", "to": "IV", "gbps": 10 } }"#,
            r#"{ "bundle": { "tenant": 1, "from": "I", "to": "IV", "gbps": 10 } }"#,
            r#"{ "teardown": { "order": 0 } }"#,
            r#"{ "cut_fiber": { "a": "II", "b": "IV" } }"#,
        ];
        let errors = actions.map(|action| {
            let bad = format!(
                r#"{{
                    "topology": {{ "testbed": {{ "ots_per_node": 2 }} }},
                    "tenants": [ {{ "name": "a", "quota_gbps": 10 }} ],
                    "events": [ {{ "at_secs": 0, "do": {action} }} ]
                }}"#
            );
            format!("{:?}", run_json(&bad).unwrap_err())
        });
        let expected = [
            r#"UnknownNode("X")"#,
            "UnknownTenant(1)",
            "UnknownOrder(0)",
            r#"NotAdjacent("II", "IV")"#,
        ];
        assert_eq!(errors, expected);
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

    /// A trunk between nodes with no OTN switch cannot be planned: the
    /// scenario ends with that one transcript line.
    #[test]
    fn trunk_without_switches_aborts() {
        let s = r#"{
            "topology": { "testbed": { "ots_per_node": 2 } },
            "tenants": [],
            "trunks": [["I", "IV"]],
            "events": [ { "at_secs": 0, "do": "report" } ]
        }"#;
        assert_eq!(
            run_json(s).unwrap(),
            "scenario aborted: trunk I–IV: no OTN switch at roadm0\n"
        );
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
