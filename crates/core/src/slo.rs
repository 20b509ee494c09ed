//! Declarative SLOs, error budgets and multi-window burn-rate alerting,
//! plus the fleet-level telemetry rollup (DESIGN.md §14).
//!
//! The paper's headline artifacts are *service-level* numbers — Table 2
//! setup latencies, restoration speed, the availability gap between
//! manual repair and automated restoration. This module turns those
//! targets into machine-checked objectives:
//!
//! 1. **[`SloSpec`]** declares an objective ("99.99 % of minutes
//!    available", "99 % of setups under 70 s") as a good/bad event
//!    stream scored against a target fraction.
//! 2. **[`SloEngine`]** ingests time-ordered observations per
//!    `(spec, scope)` — scopes are tenants, regions, or whatever the
//!    caller labels — and evaluates error budgets and burn rates over
//!    sliding sim-time windows.
//! 3. **Burn-rate alerts** follow the multi-window pattern: a *page*
//!    needs both the 5-minute and 1-hour windows burning ≥ 14.4× (the
//!    rate that exhausts a 30-day budget in ~2 days), a *ticket* needs
//!    the 6-hour and 3-day windows ≥ 1×. The double window keeps a
//!    brief spike from paging while still catching slow leaks. Alerts
//!    are handed to [`crate::noc::Noc::on_slo_alert`] for root-cause
//!    attribution.
//! 4. **[`TelemetryRollup`]** merges per-cell [`FamilyRegistry`]
//!    snapshots into one fleet view, tagging each cell's families with
//!    its region label — the aggregation layer between
//!    `parallel_cells_with` shards and the exposition text.
//!
//! Everything here is pure sim-time bookkeeping: no wall clock, no
//! randomness, `BTreeMap` storage — evaluation is a deterministic
//! function of the observation stream.

use std::collections::BTreeMap;

use simcore::{FamilyRegistry, SimDuration, SimTime};

/// Fast multi-window pair (page severity): 5 minutes and 1 hour.
pub(crate) const FAST_WINDOWS: (SimDuration, SimDuration) =
    (SimDuration::from_mins(5), SimDuration::from_hours(1));

/// Slow multi-window pair (ticket severity): 6 hours and 3 days.
pub(crate) const SLOW_WINDOWS: (SimDuration, SimDuration) =
    (SimDuration::from_hours(6), SimDuration::from_hours(72));

/// Burn rate both fast windows must exceed to page: consumes a 30-day
/// budget in ~2 days.
pub(crate) const FAST_BURN_THRESHOLD: f64 = 14.4;

/// Burn rate both slow windows must exceed to file a ticket: exactly
/// budget-neutral, i.e. any sustained overspend.
pub(crate) const SLOW_BURN_THRESHOLD: f64 = 1.0;

/// One declarative service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Objective name ("availability", "setup_latency_p99", …) — the
    /// `slo` label everywhere downstream.
    pub name: &'static str,
    /// Target good fraction in `(0, 1)`, e.g. `0.9999`.
    pub objective: f64,
    /// For latency-flavoured SLOs: the threshold in seconds an
    /// observation must stay under to count as good. Ignored by
    /// [`SloEngine::observe`] (binary feeds); used by
    /// [`SloEngine::observe_latency`].
    pub threshold_secs: f64,
}

/// Evaluated state of one `(spec, scope)` stream at an instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The objective's name.
    pub slo: &'static str,
    /// The stream's scope label (tenant, region, …).
    pub scope: String,
    /// The target good fraction.
    pub objective: f64,
    /// Observations ingested so far.
    pub events: u64,
    /// Observations that were bad.
    pub bad: u64,
    /// Fraction of the error budget still unspent over the whole
    /// stream: 1 when clean, 0 when exactly spent, negative when
    /// overspent. 1 for an empty stream.
    pub budget_remaining: f64,
    /// Burn rates over (5m, 1h, 6h, 3d) windows ending now.
    pub burn: [f64; 4],
}

/// One rising-edge burn-rate alert found by [`SloEngine::scan_alerts`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurnAlert {
    /// The objective's name.
    pub slo: &'static str,
    /// The stream's scope label.
    pub scope: String,
    /// First evaluation instant at which the condition held.
    pub at: SimTime,
    /// `"page"` (fast windows) or `"ticket"` (slow windows).
    pub severity: &'static str,
    /// Burn rate over the short window of the triggering pair at `at`.
    pub short_burn: f64,
    /// Burn rate over the long window of the triggering pair at `at`.
    pub long_burn: f64,
}

/// The SLO engine: declarative specs + per-scope observation streams,
/// evaluated into error budgets and multi-window burn-rate alerts.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    /// Time-ordered good/bad events per scope, one map per spec (same
    /// index as `specs`), so a stream is found by `&str` scope without
    /// building an owned key.
    streams: Vec<BTreeMap<String, Vec<(SimTime, bool)>>>,
}

impl SloEngine {
    /// An engine scoring against `specs`.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        for s in &specs {
            assert!(
                s.objective > 0.0 && s.objective < 1.0,
                "objective for {} must be in (0, 1)",
                s.name
            );
        }
        SloEngine {
            streams: vec![BTreeMap::new(); specs.len()],
            specs,
        }
    }

    /// Every stream as `(spec index, scope, events)`, in `(spec, scope)`
    /// order.
    fn streams(&self) -> impl Iterator<Item = (usize, &String, &Vec<(SimTime, bool)>)> {
        self.streams
            .iter()
            .enumerate()
            .flat_map(|(idx, by_scope)| by_scope.iter().map(move |(scope, s)| (idx, scope, s)))
    }

    fn spec_index(&self, name: &str) -> usize {
        self.specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown SLO {name:?}"))
    }

    /// Ingest one binary observation. Observations per stream must
    /// arrive in non-decreasing time order (they come from a
    /// deterministic simulation, so they do).
    pub fn observe(&mut self, slo: &str, scope: &str, at: SimTime, good: bool) {
        let idx = self.spec_index(slo);
        let streams = &mut self.streams[idx];
        let stream = match streams.get_mut(scope) {
            Some(stream) => stream,
            None => streams.entry(scope.to_string()).or_default(),
        };
        if let Some(&(last, _)) = stream.last() {
            assert!(at >= last, "observations for {slo}/{scope} out of order");
        }
        stream.push((at, good));
    }

    /// Ingest one latency observation, scored against the spec's
    /// `threshold_secs`.
    pub fn observe_latency(&mut self, slo: &str, scope: &str, at: SimTime, latency: SimDuration) {
        let idx = self.spec_index(slo);
        let good = latency.as_secs_f64() <= self.specs[idx].threshold_secs;
        self.observe(slo, scope, at, good);
    }

    /// `(total, bad)` event counts in the half-open window
    /// `(now − w, now]` of one stream.
    fn window_counts(stream: &[(SimTime, bool)], now: SimTime, w: SimDuration) -> (u64, u64) {
        let lo_ns = now.as_nanos().saturating_sub(w.as_nanos());
        let lo = stream.partition_point(|&(t, _)| t.as_nanos() <= lo_ns);
        let hi = stream.partition_point(|&(t, _)| t <= now);
        let total = (hi - lo) as u64;
        let bad = stream[lo..hi].iter().filter(|&&(_, good)| !good).count() as u64;
        (total, bad)
    }

    /// Burn rate of `(slo, scope)` over the window ending at `now`:
    /// observed bad fraction divided by the budgeted bad fraction
    /// `1 − objective`. 1.0 means the budget is being spent exactly at
    /// the sustainable rate; 0 for an empty window.
    pub fn burn_rate(&self, slo: &str, scope: &str, now: SimTime, w: SimDuration) -> f64 {
        let idx = self.spec_index(slo);
        let Some(stream) = self.streams[idx].get(scope) else {
            return 0.0;
        };
        let (total, bad) = Self::window_counts(stream, now, w);
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / (1.0 - self.specs[idx].objective)
    }

    fn severity_at(
        &self,
        idx: usize,
        stream: &[(SimTime, bool)],
        now: SimTime,
    ) -> Option<(&'static str, f64, f64)> {
        let budget = 1.0 - self.specs[idx].objective;
        let burn = |w: SimDuration| {
            let (total, bad) = Self::window_counts(stream, now, w);
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let (fast_s, fast_l) = (burn(FAST_WINDOWS.0), burn(FAST_WINDOWS.1));
        if fast_s >= FAST_BURN_THRESHOLD && fast_l >= FAST_BURN_THRESHOLD {
            return Some(("page", fast_s, fast_l));
        }
        let (slow_s, slow_l) = (burn(SLOW_WINDOWS.0), burn(SLOW_WINDOWS.1));
        if slow_s >= SLOW_BURN_THRESHOLD && slow_l >= SLOW_BURN_THRESHOLD {
            return Some(("ticket", slow_s, slow_l));
        }
        None
    }

    /// Sweep every stream over evaluation instants `step, 2·step, …`
    /// up to and including `until`, returning rising-edge alerts: one
    /// [`BurnAlert`] per transition into a (new) severity, none while a
    /// condition merely persists. Streams are scanned in deterministic
    /// `(spec, scope)` order; within a stream, alerts are time-ordered.
    pub fn scan_alerts(&self, step: SimDuration, until: SimTime) -> Vec<BurnAlert> {
        assert!(!step.is_zero(), "scan step must be positive");
        let mut alerts = Vec::new();
        for (idx, scope, stream) in self.streams() {
            let mut prev: Option<&'static str> = None;
            let mut t = SimTime::ZERO + step;
            while t <= until {
                let cur = self.severity_at(idx, stream, t);
                match cur {
                    Some((sev, short_burn, long_burn)) if prev != Some(sev) => {
                        alerts.push(BurnAlert {
                            slo: self.specs[idx].name,
                            scope: scope.clone(),
                            at: t,
                            severity: sev,
                            short_burn,
                            long_burn,
                        });
                        prev = Some(sev);
                    }
                    Some(_) => {}
                    None => prev = None,
                }
                t += step;
            }
        }
        alerts
    }

    /// Evaluate every stream at `now` into status rows, in
    /// deterministic `(spec, scope)` order.
    pub fn evaluate(&self, now: SimTime) -> Vec<SloStatus> {
        let windows = [
            FAST_WINDOWS.0,
            FAST_WINDOWS.1,
            SLOW_WINDOWS.0,
            SLOW_WINDOWS.1,
        ];
        self.streams()
            .map(|(idx, scope, stream)| {
                let spec = &self.specs[idx];
                let events = stream.len() as u64;
                let bad = stream.iter().filter(|&&(_, good)| !good).count() as u64;
                let budget = (1.0 - spec.objective) * events as f64;
                let budget_remaining = if events == 0 {
                    1.0
                } else {
                    1.0 - bad as f64 / budget
                };
                let burn = windows.map(|w| {
                    let (total, b) = Self::window_counts(stream, now, w);
                    if total == 0 {
                        0.0
                    } else {
                        (b as f64 / total as f64) / (1.0 - spec.objective)
                    }
                });
                SloStatus {
                    slo: spec.name,
                    scope: scope.clone(),
                    objective: spec.objective,
                    events,
                    bad,
                    budget_remaining,
                    burn,
                }
            })
            .collect()
    }

    /// Publish the evaluation at `now` into `reg` as labeled gauges
    /// (`slo_objective`, `slo_events`, `slo_bad_events`,
    /// `slo_budget_remaining`, and `slo_burn_rate` per window).
    pub fn export(&self, now: SimTime, reg: &mut FamilyRegistry) {
        for st in self.evaluate(now) {
            let base = [("scope", st.scope.as_str()), ("slo", st.slo)];
            reg.gauge("slo_objective", &base).set(st.objective);
            reg.gauge("slo_events", &base).set(st.events as f64);
            reg.gauge("slo_bad_events", &base).set(st.bad as f64);
            reg.gauge("slo_budget_remaining", &base)
                .set(st.budget_remaining);
            for (w, rate) in ["5m", "1h", "6h", "3d"].iter().zip(st.burn) {
                reg.gauge(
                    "slo_burn_rate",
                    &[("scope", st.scope.as_str()), ("slo", st.slo), ("window", w)],
                )
                .set(rate);
            }
        }
    }
}

/// Fleet-level telemetry aggregation: per-cell registries merge in under
/// a `region` label, fleet-wide registries merge in unlabeled, and the
/// combined view exposes as one Prometheus-style text page.
#[derive(Debug, Clone, Default)]
pub struct TelemetryRollup {
    fleet: FamilyRegistry,
    regions: Vec<String>,
}

impl TelemetryRollup {
    /// An empty rollup.
    pub fn new() -> TelemetryRollup {
        TelemetryRollup::default()
    }

    /// Merge one cell's registry under `region="…"`. Counters add,
    /// gauges overwrite (max-tracking retained), histograms merge —
    /// including their exemplar reservoirs, so a fleet histogram still
    /// links back to the traces of every region.
    pub fn absorb(&mut self, region: &str, cell: &FamilyRegistry) {
        self.fleet.merge_labeled(cell, "region", region);
        if !self.regions.iter().any(|r| r == region) {
            self.regions.push(region.to_string());
        }
    }

    /// Merge a fleet-scoped registry (SLA gauges, SLO evaluation) with
    /// its labels unchanged.
    pub fn absorb_global(&mut self, reg: &FamilyRegistry) {
        self.fleet.merge_from(reg);
    }

    /// The fleet view as Prometheus-style exposition text.
    pub fn expose(&self) -> String {
        self.fleet.expose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "availability",
                objective: 0.9999,
                threshold_secs: 0.0,
            },
            SloSpec {
                name: "setup_latency",
                objective: 0.99,
                threshold_secs: 70.0,
            },
        ]
    }

    #[test]
    fn window_math_is_half_open_and_exact() {
        let mut eng = SloEngine::new(specs());
        // Bad minute at t=300 s exactly, good elsewhere.
        for m in 1..=10u64 {
            let t = SimTime::from_secs(60 * m);
            eng.observe("availability", "acme", t, m != 5);
        }
        // Window (300, 600]: five events, none bad (t=300 excluded).
        let now = SimTime::from_secs(600);
        assert_eq!(
            eng.burn_rate("availability", "acme", now, SimDuration::from_mins(5)),
            0.0
        );
        // Window (240, 540]: five events, one bad → burn 0.2/1e-4 = 2000.
        let now = SimTime::from_secs(540);
        let burn = eng.burn_rate("availability", "acme", now, SimDuration::from_mins(5));
        assert!((burn - 2000.0).abs() < 1e-9, "{burn}");
        // Empty window and unknown scope burn 0.
        assert_eq!(
            eng.burn_rate(
                "availability",
                "acme",
                SimTime::from_secs(100_000),
                SimDuration::from_mins(5)
            ),
            0.0
        );
        assert_eq!(
            eng.burn_rate("availability", "nobody", now, SimDuration::from_mins(5)),
            0.0
        );
    }

    #[test]
    fn latency_observations_score_against_threshold() {
        let mut eng = SloEngine::new(specs());
        let t = SimTime::from_secs(10);
        eng.observe_latency("setup_latency", "r0", t, SimDuration::from_secs(62));
        eng.observe_latency("setup_latency", "r0", t, SimDuration::from_secs(71));
        let st = &eng.evaluate(t)[0];
        assert_eq!((st.events, st.bad), (2, 1));
    }

    #[test]
    fn page_needs_both_fast_windows() {
        let mut eng = SloEngine::new(specs());
        // One bad sample in an otherwise empty stream: the 5 m window
        // burns hard, but so does the 1 h window (same lone event), so
        // this *does* page — then a long good tail recovers it.
        for m in 1..=120u64 {
            let t = SimTime::from_secs(60 * m);
            eng.observe("availability", "acme", t, !(30..=35).contains(&m));
        }
        let alerts = eng.scan_alerts(SimDuration::from_mins(1), SimTime::from_secs(60 * 120));
        let pages: Vec<_> = alerts.iter().filter(|a| a.severity == "page").collect();
        assert_eq!(pages.len(), 1, "rising edge only: {alerts:?}");
        assert_eq!(pages[0].at, SimTime::from_secs(60 * 30));
        assert!(pages[0].short_burn >= FAST_BURN_THRESHOLD);
        assert!(pages[0].long_burn >= FAST_BURN_THRESHOLD);
        // After the outage the fast windows drain and the alert clears;
        // a second identical outage would page again (rising edge).
        let mut eng2 = eng.clone();
        for m in 121..=240u64 {
            let t = SimTime::from_secs(60 * m);
            eng2.observe("availability", "acme", t, !(200..=205).contains(&m));
        }
        let alerts2 = eng2.scan_alerts(SimDuration::from_mins(1), SimTime::from_secs(60 * 240));
        let pages2: Vec<_> = alerts2.iter().filter(|a| a.severity == "page").collect();
        assert_eq!(pages2.len(), 2);
    }

    #[test]
    fn slow_leak_tickets_but_does_not_page() {
        let mut eng = SloEngine::new(specs());
        // 2 % of setups slow, sustained for two days: burn 2 over a 1 %
        // budget — ticket territory, far below the 14.4 page threshold.
        for i in 0..2880u64 {
            let t = SimTime::from_secs(60 * i);
            eng.observe("setup_latency", "fleet", t, i % 50 != 0);
        }
        let alerts = eng.scan_alerts(SimDuration::from_mins(30), SimTime::from_secs(60 * 2880));
        assert!(alerts.iter().all(|a| a.severity == "ticket"), "{alerts:?}");
        assert!(!alerts.is_empty());
    }

    #[test]
    fn evaluate_and_export_cover_budgets() {
        let mut eng = SloEngine::new(specs());
        for i in 0..10_000u64 {
            eng.observe("availability", "acme", SimTime::from_secs(i), i != 0);
        }
        let now = SimTime::from_secs(9_999);
        let st = &eng.evaluate(now)[0];
        assert_eq!(st.events, 10_000);
        assert_eq!(st.bad, 1);
        // Budget: 1e-4 × 10_000 = 1 bad event allowed → exactly spent.
        assert!(st.budget_remaining.abs() < 1e-9, "{}", st.budget_remaining);
        let mut reg = FamilyRegistry::new();
        eng.export(now, &mut reg);
        let exp = reg.expose();
        assert!(
            exp.contains("slo_budget_remaining{scope=\"acme\",slo=\"availability\"}"),
            "{exp}"
        );
        assert!(
            exp.contains("slo_burn_rate{scope=\"acme\",slo=\"availability\",window=\"3d\"}"),
            "{exp}"
        );
    }

    #[test]
    fn rollup_merge_matches_single_registry() {
        let mut cell_a = FamilyRegistry::new();
        cell_a.counter("setup_total", &[]).add(4);
        cell_a.histogram("setup_secs", &[]).record(62.0);
        let mut cell_b = FamilyRegistry::new();
        cell_b.counter("setup_total", &[]).add(2);
        cell_b.histogram("setup_secs", &[]).record(70.0);
        let mut roll = TelemetryRollup::new();
        roll.absorb("0", &cell_a);
        roll.absorb("1", &cell_b);
        let mut global = FamilyRegistry::new();
        global
            .gauge("sla_availability", &[("customer", "acme")])
            .set(0.9999);
        roll.absorb_global(&global);
        assert_eq!(roll.regions, ["0".to_string(), "1".to_string()]);
        let exp = roll.expose();
        assert!(exp.contains("setup_total{region=\"0\"} 4"), "{exp}");
        assert!(exp.contains("setup_total{region=\"1\"} 2"), "{exp}");
        assert!(
            exp.contains("sla_availability{customer=\"acme\"} 0.9999"),
            "{exp}"
        );
        assert_eq!(roll.fleet.counter_family_total("setup_total"), 6);
    }

    #[test]
    #[should_panic(expected = "unknown SLO")]
    fn unknown_spec_panics() {
        let mut eng = SloEngine::new(specs());
        eng.observe("nope", "x", SimTime::ZERO, true);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_observations_panic() {
        let mut eng = SloEngine::new(specs());
        eng.observe("availability", "x", SimTime::from_secs(10), true);
        eng.observe("availability", "x", SimTime::from_secs(5), true);
    }
}
