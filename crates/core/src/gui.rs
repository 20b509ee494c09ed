//! The customer-facing view ("GUI" model).
//!
//! §2.2: *"Each customer has a graphical user interface to GRIPhoN to
//! visualize and manage his connections. The customer only visualizes the
//! channelized or un-channelized interfaces of the NTE on his premises …
//! The complexity of the GRIPhoN network (access pipes, carrier
//! equipments, network layers, GRIPhoN controller) is hidden from the
//! customer."*
//!
//! We model the GUI as a *view function*: [`Controller::customer_view`]
//! renders exactly what that customer may see — their own connections,
//! states, rates and fault indications — and nothing about paths,
//! wavelengths, other tenants, or carrier inventory. Tests assert the
//! hiding property, not just the rendering.

use std::fmt::Write as _;

use crate::connection::ConnState;
use crate::controller::Controller;
use crate::tenant::CustomerId;

/// A customer-visible connection row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CustomerConnectionView {
    /// The connection id (the customer's order handle).
    pub id: String,
    /// A-end site name.
    pub from: String,
    /// Z-end site name.
    pub to: String,
    /// The rate purchased.
    pub rate: String,
    /// Customer-vocabulary status.
    pub status: &'static str,
    /// Cumulative outage, if any.
    pub outage: Option<String>,
}

impl Controller {
    /// Structured per-connection rows for one customer.
    pub(crate) fn customer_rows(&self, customer: CustomerId) -> Vec<CustomerConnectionView> {
        self.connections()
            .filter(|c| c.customer == customer && !c.state.is_terminal())
            .map(|c| {
                let status = match c.state {
                    ConnState::Provisioning => "setting up",
                    ConnState::Active => "up",
                    ConnState::Failed => "OUTAGE (fault located, restoring)",
                    ConnState::Restoring => "restoring",
                    ConnState::TearingDown => "releasing",
                    ConnState::Released | ConnState::Blocked => unreachable!(),
                };
                CustomerConnectionView {
                    id: c.id.to_string(),
                    from: self.net.name(c.from).to_string(),
                    to: self.net.name(c.to).to_string(),
                    rate: c.kind.rate().to_string(),
                    status,
                    outage: (!c.outage_total.is_zero() || c.outage_since.is_some()).then(|| {
                        let total = match c.outage_since {
                            Some(start) => c.outage_total + self.now().saturating_since(start),
                            None => c.outage_total,
                        };
                        total.to_string()
                    }),
                }
            })
            .collect()
    }

    /// Render the customer GUI as text.
    pub fn customer_view(&self, customer: CustomerId) -> String {
        let name = self
            .tenants
            .get(customer)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| "?".into());
        let mut out = String::new();
        let _ = writeln!(out, "=== GRIPhoN connections for {name} ===");
        let rows = self.customer_rows(customer);
        if rows.is_empty() {
            out.push_str("(no connections)\n");
            return out;
        }
        for r in rows {
            let _ = write!(
                out,
                "{:<8} {:>4}  {} → {}  [{}]",
                r.id, r.rate, r.from, r.to, r.status
            );
            if let Some(o) = r.outage {
                let _ = write!(out, "  outage so far: {o}");
            }
            out.push('\n');
        }
        if let Some(t) = self.tenants.get(customer) {
            let _ = writeln!(out, "committed {} of {} quota", t.in_use, t.quota);
        }
        out
    }
}

impl Controller {
    /// The carrier's operations view — everything the customer view
    /// hides: spectrum occupancy per fiber, pools, active workload.
    pub fn carrier_view(&self) -> String {
        let mut out = String::from("=== GRIPhoN carrier operations ===\n");
        out.push_str(&self.net.render_ascii());
        out.push_str("\nspectrum:\n");
        out.push_str(&self.net.spectrum_map());
        let (rt, ru) = self.regen_stats();
        let idle_ots = self
            .net
            .transponder_ids()
            .filter(|t| self.net.transponder(*t).is_idle())
            .count();
        let _ = writeln!(
            out,
            "\npools: {} OTs ({} idle), {} regens ({} in use)",
            self.net.transponder_count(),
            idle_ots,
            rt,
            ru
        );
        let mut by_state: std::collections::BTreeMap<&str, usize> = Default::default();
        for c in self.connections() {
            *by_state
                .entry(match c.state {
                    ConnState::Provisioning => "provisioning",
                    ConnState::Active => "active",
                    ConnState::Failed => "failed",
                    ConnState::Restoring => "restoring",
                    ConnState::TearingDown => "tearing-down",
                    ConnState::Released => "released",
                    ConnState::Blocked => "blocked",
                })
                .or_insert(0) += 1;
        }
        let _ = writeln!(out, "connections: {by_state:?}");
        let _ = writeln!(
            out,
            "trunks: {} ({} ready)",
            self.trunks().len(),
            self.trunks().iter().filter(|t| t.ready).count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::controller::{Controller, ControllerConfig};
    use photonic::{LineRate, PhotonicNetwork};
    use simcore::DataRate;

    fn setup() -> (
        Controller,
        photonic::TestbedIds,
        crate::tenant::CustomerId,
        crate::tenant::CustomerId,
    ) {
        let (net, ids) = PhotonicNetwork::testbed(6);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        let a = ctl.tenants.register("acme-cloud", DataRate::from_gbps(100));
        let b = ctl
            .tenants
            .register("bravo-cloud", DataRate::from_gbps(100));
        (ctl, ids, a, b)
    }

    #[test]
    fn view_shows_own_connections_with_status() {
        let (mut ctl, ids, a, _) = setup();
        let id = ctl
            .request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        let during = ctl.customer_view(a);
        assert!(during.contains("setting up"));
        ctl.run_until_idle();
        let after = ctl.customer_view(a);
        assert!(after.contains("[up]"), "{after}");
        assert!(after.contains("10G"));
        assert!(after.contains("I → IV"));
        assert!(after.contains(&id.to_string()));
    }

    #[test]
    fn view_hides_other_tenants_and_internals() {
        let (mut ctl, ids, a, b) = setup();
        ctl.request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let bs_view = ctl.customer_view(b);
        assert!(bs_view.contains("(no connections)"));
        assert!(!bs_view.contains("conn0"), "must not leak tenant A's order");
        // Carrier internals never appear in any customer view.
        let as_view = ctl.customer_view(a);
        for forbidden in ["λ", "fiber", "regen", "degree", "FXC", "express"] {
            assert!(
                !as_view.contains(forbidden),
                "leaked internal {forbidden:?}: {as_view}"
            );
        }
    }

    #[test]
    fn view_reports_outage_during_fault() {
        let (mut ctl, ids, a, _) = setup();
        ctl.request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        let v = ctl.customer_view(a);
        assert!(v.contains("OUTAGE"), "{v}");
        ctl.run_until_idle();
        let v = ctl.customer_view(a);
        assert!(v.contains("[up]"));
        assert!(v.contains("outage so far"), "{v}");
    }

    #[test]
    fn carrier_view_shows_internals() {
        let (mut ctl, ids, a, _) = setup();
        ctl.request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let v = ctl.carrier_view();
        assert!(v.contains("spectrum:"), "{v}");
        assert!(v.contains('█'), "one lit channel visible");
        assert!(v.contains("OTs"));
        assert!(v.contains("\"active\": 1"), "{v}");
    }

    #[test]
    fn released_connections_disappear() {
        let (mut ctl, ids, a, _) = setup();
        let id = ctl
            .request_wavelength(a, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.request_teardown(id).unwrap();
        ctl.run_until_idle();
        assert!(ctl.customer_view(a).contains("(no connections)"));
    }
}
