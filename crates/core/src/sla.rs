//! Availability accounting and SLA reporting.
//!
//! The BoD service's selling point over "today's reality" is measured
//! here: per-connection availability (uptime over in-service lifetime)
//! and the per-tenant aggregate a service-level agreement would be
//! scored against. Five nines needs automated restoration — a single
//! 8-hour manual repair in a month caps availability at ~98.9 %, while
//! GRIPhoN's minute-scale restoration keeps the same month above
//! 99.99 % (experiment-visible via these reports).

use simcore::{FamilyRegistry, SimDuration};

use crate::connection::{ConnState, ConnectionId};
use crate::controller::Controller;
use crate::tenant::CustomerId;

/// One connection's availability record.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionAvailability {
    /// The connection.
    pub id: ConnectionId,
    /// Time since it first became active (until now or release).
    pub in_service: SimDuration,
    /// Accumulated downtime (including a still-open outage).
    pub downtime: SimDuration,
    /// `1 − downtime / in_service`, or 1.0 for zero lifetime.
    pub availability: f64,
}

/// A tenant's aggregate SLA view.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaReport {
    /// Per-connection rows (non-terminal and released connections that
    /// ever activated).
    pub connections: Vec<ConnectionAvailability>,
    /// Rows with a non-zero observation window — only these can carry
    /// availability evidence.
    pub observed: usize,
    /// Service-time-weighted aggregate availability.
    pub aggregate: f64,
    /// The worst *observed* row's availability (SLAs bind on the worst
    /// circuit, but a zero-length window is no evidence of perfection
    /// or failure and is excluded).
    pub worst: f64,
}

impl SlaReport {
    /// Publish the report into `reg` as labeled gauges, so the SLO
    /// engine and the fleet rollup consume SLA evidence through the
    /// same metrics pipeline as everything else. Gauge semantics: each
    /// export overwrites the previous scrape's values.
    pub fn export(&self, customer: &str, reg: &mut FamilyRegistry) {
        for (scope, avail) in [("aggregate", self.aggregate), ("worst", self.worst)] {
            reg.gauge(
                "sla_availability",
                &[("customer", customer), ("scope", scope)],
            )
            .set(avail);
            reg.gauge("sla_nines", &[("customer", customer), ("scope", scope)])
                .set(nines_value(avail));
        }
        reg.gauge("sla_connections", &[("customer", customer)])
            .set(self.connections.len() as f64);
        reg.gauge("sla_observed_connections", &[("customer", customer)])
            .set(self.observed as f64);
        let downtime: f64 = self
            .connections
            .iter()
            .map(|r| r.downtime.as_secs_f64())
            .sum();
        reg.gauge("sla_downtime_seconds", &[("customer", customer)])
            .set(downtime);
        for row in &self.connections {
            let conn = row.id.to_string();
            reg.gauge(
                "sla_connection_availability",
                &[("conn", &conn), ("customer", customer)],
            )
            .set(row.availability);
        }
    }
}

impl Controller {
    /// Availability of one connection as of now (None if it never
    /// activated).
    pub(crate) fn connection_availability(
        &self,
        id: ConnectionId,
    ) -> Option<ConnectionAvailability> {
        let c = self.connection(id)?;
        let start = c.activated_at?;
        let now = self.now();
        let in_service = now.saturating_since(start);
        let open_outage = match (c.state, c.outage_since) {
            (ConnState::Released, _) => SimDuration::ZERO,
            (_, Some(since)) => now.saturating_since(since),
            _ => SimDuration::ZERO,
        };
        let downtime = c.outage_total + open_outage;
        let availability = if in_service.is_zero() {
            1.0
        } else {
            1.0 - downtime.as_secs_f64() / in_service.as_secs_f64()
        };
        Some(ConnectionAvailability {
            id,
            in_service,
            downtime,
            availability: availability.clamp(0.0, 1.0),
        })
    }

    /// The tenant's SLA report.
    pub fn sla_report(&self, customer: CustomerId) -> SlaReport {
        let rows: Vec<ConnectionAvailability> = self
            .connections()
            .filter(|c| c.customer == customer)
            .filter_map(|c| self.connection_availability(c.id))
            .collect();
        let total_service: f64 = rows.iter().map(|r| r.in_service.as_secs_f64()).sum();
        let total_down: f64 = rows.iter().map(|r| r.downtime.as_secs_f64()).sum();
        let aggregate = if total_service == 0.0 {
            1.0
        } else {
            (1.0 - total_down / total_service).clamp(0.0, 1.0)
        };
        let worst = rows
            .iter()
            .filter(|r| !r.in_service.is_zero())
            .map(|r| r.availability)
            .fold(1.0f64, f64::min);
        let observed = rows.iter().filter(|r| !r.in_service.is_zero()).count();
        SlaReport {
            connections: rows,
            observed,
            aggregate,
            worst,
        }
    }
}

/// Cap on the nine count: beyond nine nines the float arithmetic of
/// `1 − downtime/lifetime` has no resolution left, so higher values are
/// reported as "at least nine" rather than as a meaningless magnitude
/// (or the old `∞`, which JSON consumers could not parse).
pub(crate) const MAX_NINES: f64 = 9.0;

/// The availability's nine count as a finite float in `[0, MAX_NINES]`
/// (0.9995 → 3.3; exactly 1.0 → `MAX_NINES`). This is the numeric form
/// exported as the `sla_nines` gauge.
pub(crate) fn nines_value(availability: f64) -> f64 {
    if availability >= 1.0 {
        return MAX_NINES;
    }
    if availability <= 0.0 {
        return 0.0;
    }
    (-(1.0 - availability).log10()).clamp(0.0, MAX_NINES)
}

/// Format an availability as "N nines" shorthand (e.g. 0.9995 → "3.3
/// nines"). Values at or above the `MAX_NINES` measurement cap render
/// as "9.0+ nines".
pub fn nines(availability: f64) -> String {
    let n = nines_value(availability);
    if n >= MAX_NINES {
        "9.0+ nines".to_string()
    } else {
        format!("{n:.1} nines")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::{LineRate, PhotonicNetwork};
    use simcore::DataRate;

    #[test]
    fn availability_reflects_restoration_speed() {
        // Same cut, automated vs manual — the SLA difference over a week.
        let week = simcore::SimTime::from_secs(7 * 86_400);
        let run = |auto: bool| -> f64 {
            let (net, ids) = PhotonicNetwork::testbed(4);
            let mut ctl = Controller::new(
                net,
                ControllerConfig {
                    auto_restore: auto,
                    ..ControllerConfig::quiet()
                },
            );
            let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
            let _id = ctl
                .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap();
            ctl.run_until_idle();
            ctl.inject_fiber_cut(ids.f_i_iv, 0);
            ctl.schedule_repair(ids.f_i_iv, SimDuration::from_hours(8));
            ctl.run_until(week);
            ctl.sla_report(csp).aggregate
        };
        let griphon = run(true);
        let manual = run(false);
        assert!(griphon > 0.9998, "griphon={griphon}");
        assert!(manual < 0.96, "manual={manual}");
        assert!(griphon > manual);
    }

    #[test]
    fn open_outage_counts_against_availability() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                auto_restore: false,
                ..ControllerConfig::quiet()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let t_up = ctl.now();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        // One hour into an unrepaired outage…
        ctl.run_until(t_up + SimDuration::from_hours(2));
        let a = ctl.connection_availability(id).unwrap();
        assert!(a.downtime >= SimDuration::from_hours(1));
        assert!(a.availability < 1.0);
        // Aggregate and worst agree for a single circuit.
        let report = ctl.sla_report(csp);
        assert!((report.aggregate - a.availability).abs() < 1e-9);
        assert_eq!(report.worst, a.availability);
    }

    #[test]
    fn never_activated_connections_are_excluded() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let _id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        // Still provisioning: no availability row yet.
        let report = ctl.sla_report(csp);
        assert!(report.connections.is_empty());
        assert_eq!(report.aggregate, 1.0);
    }

    #[test]
    fn worst_excludes_zero_window_rows() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                auto_restore: false,
                ..ControllerConfig::quiet()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let _a = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let t0 = ctl.now();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.run_until(t0 + SimDuration::from_hours(2));
        // A second circuit on an unaffected path whose activation instant
        // *is* the report instant: zero observation window.
        let b = ctl
            .request_wavelength(csp, ids.i, ids.ii, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let row_b = ctl.connection_availability(b).unwrap();
        assert!(row_b.in_service.is_zero(), "b must be freshly activated");
        let report = ctl.sla_report(csp);
        assert_eq!(report.connections.len(), 2);
        assert_eq!(report.observed, 1, "zero-window row carries no evidence");
        assert!(
            report.worst < 1.0,
            "worst must come from the observed circuit, not the fresh one"
        );
    }

    #[test]
    fn report_exports_as_labeled_gauges() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(
            net,
            ControllerConfig {
                auto_restore: false,
                ..ControllerConfig::quiet()
            },
        );
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let _id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        let t0 = ctl.now();
        ctl.inject_fiber_cut(ids.f_i_iv, 0);
        ctl.run_until(t0 + SimDuration::from_hours(2));
        let report = ctl.sla_report(csp);
        let mut reg = simcore::FamilyRegistry::new();
        report.export("acme", &mut reg);
        let agg = reg
            .get_gauge(
                "sla_availability",
                &[("customer", "acme"), ("scope", "aggregate")],
            )
            .unwrap()
            .get();
        assert!((agg - report.aggregate).abs() < 1e-15);
        let nines_worst = reg
            .get_gauge("sla_nines", &[("customer", "acme"), ("scope", "worst")])
            .unwrap()
            .get();
        assert!((nines_worst - nines_value(report.worst)).abs() < 1e-15);
        assert_eq!(
            reg.get_gauge("sla_connections", &[("customer", "acme")])
                .unwrap()
                .get(),
            1.0
        );
        let exp = reg.expose();
        assert!(
            exp.contains("sla_connection_availability{conn=\"conn0\",customer=\"acme\"}"),
            "{exp}"
        );
        // Re-export overwrites (gauge semantics), it does not accumulate.
        report.export("acme", &mut reg);
        assert_eq!(reg.expose(), exp);
    }

    #[test]
    fn nines_formatting() {
        assert_eq!(nines(0.999), "3.0 nines");
        assert_eq!(nines(0.99999), "5.0 nines");
        assert_eq!(nines(1.0), "9.0+ nines");
        assert_eq!(nines(0.0), "0.0 nines");
        assert!(nines(0.9995).starts_with("3.3"));
    }

    #[test]
    fn nines_edge_cases() {
        // Exact runs of nines land exactly on the integer nine count.
        assert_eq!(nines(0.9999), "4.0 nines");
        assert_eq!(nines(0.999999), "6.0 nines");
        // Values outside [0, 1] saturate rather than produce NaN/−∞ text.
        assert_eq!(nines(1.5), "9.0+ nines");
        assert_eq!(nines(-0.25), "0.0 nines");
        // Just below 1.0 stays finite and hits the measurement cap (no
        // log-of-zero blowup, no unparseable ∞).
        assert_eq!(nines(1.0 - f64::EPSILON), "9.0+ nines");
        // Just above 0.0 is a tiny but non-negative nine count.
        assert_eq!(nines(0.1), "0.0 nines");
    }

    #[test]
    fn nines_value_is_finite_and_monotone() {
        for a in [-1.0, 0.0, 0.5, 0.999, 0.999999999, 1.0, 2.0] {
            let n = nines_value(a);
            assert!(
                n.is_finite() && (0.0..=MAX_NINES).contains(&n),
                "{a} -> {n}"
            );
        }
        assert_eq!(nines_value(1.0), MAX_NINES);
        assert_eq!(nines_value(0.0), 0.0);
        assert!(nines_value(0.9999) > nines_value(0.999));
        assert!((nines_value(0.999) - 3.0).abs() < 1e-9);
    }

    /// An outage whose restoration completes *between* two NOC scrape
    /// instants must be accounted exactly: the availability ledger uses
    /// event times, never scrape-quantized ones, so the report is
    /// identical with the NOC scraping right across the repair.
    #[test]
    fn repair_straddling_a_scrape_boundary_is_accounted_exactly() {
        let run = |noc: bool| {
            let (net, ids) = PhotonicNetwork::testbed(4);
            let mut ctl = Controller::new(net, ControllerConfig::quiet());
            if noc {
                // 60 s cadence: the ~66 s restoration spans a scrape tick.
                ctl.noc.enable(SimDuration::from_secs(60));
            }
            let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
            let id = ctl
                .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
                .unwrap();
            ctl.run_until_idle();
            let t_cut = ctl.now();
            ctl.inject_fiber_cut(ids.f_i_iv, 0);
            ctl.run_until(t_cut + SimDuration::from_hours(2));
            (
                ctl.connection_availability(id).unwrap(),
                ctl.sla_report(csp),
                ctl.noc.scrapes(),
            )
        };
        let (a_on, r_on, scrapes_on) = run(true);
        let (a_off, r_off, scrapes_off) = run(false);
        assert!(scrapes_on > 0 && scrapes_off == 0);
        assert_eq!(a_on, a_off, "availability must not depend on the NOC");
        assert_eq!(r_on, r_off, "SLA report must not depend on the NOC");
        // Downtime is the restoration interval, not a scrape multiple.
        assert!(a_on.downtime > SimDuration::from_secs(60));
        assert!(a_on.downtime < SimDuration::from_secs(120));
        assert_ne!(a_on.downtime.as_nanos() % 60_000_000_000, 0);
        let expect = 1.0 - a_on.downtime.as_secs_f64() / a_on.in_service.as_secs_f64();
        assert!((a_on.availability - expect).abs() < 1e-12);
    }

    #[test]
    fn healthy_connection_is_fully_available() {
        let (net, ids) = PhotonicNetwork::testbed(4);
        let mut ctl = Controller::new(net, ControllerConfig::quiet());
        let csp = ctl.tenants.register("acme", DataRate::from_gbps(100));
        let id = ctl
            .request_wavelength(csp, ids.i, ids.iv, LineRate::Gbps10)
            .unwrap();
        ctl.run_until_idle();
        ctl.run_until(ctl.now() + SimDuration::from_hours(100));
        let a = ctl.connection_availability(id).unwrap();
        assert_eq!(a.availability, 1.0);
        assert_eq!(a.downtime, SimDuration::ZERO);
    }
}
