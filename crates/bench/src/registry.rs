//! The single source of truth for `repro` targets.
//!
//! Every target — its name, one-line description, and runner — lives in
//! one table. The `repro` binary derives its usage text, its `--list`
//! output, its dispatch and `repro all` from this table, so a target
//! added here can never drift out of the help text (the bug that hid
//! `perf` and `e5b-full-mesh` from the usage strings) or out of `all`.

use crate::experiments as exp;
use crate::harness::{self, GateError};

/// Category a target belongs to — `--list` groups by these, in the
/// order they are declared here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Direct reproductions of the paper's tables, figures, and
    /// experiment narratives.
    Paper,
    /// Engine performance: route-cache and planning-latency counters.
    Perf,
    /// Economics / workload studies (bandwidth-on-demand value).
    Economics,
    /// Observability: tracing, telemetry, alarm correlation.
    Observability,
    /// Measurement: active probing, available-bandwidth estimation,
    /// estimation-aware BoD.
    Measurement,
    /// Durability: WAL, snapshots, failover.
    Durability,
    /// Continental-scale sweeps over generated plants.
    Scale,
    /// Service plane: the northbound intent API under tenant load.
    Service,
}

impl Category {
    /// `--list` section header.
    pub fn header(self) -> &'static str {
        match self {
            Category::Paper => "paper",
            Category::Perf => "perf",
            Category::Economics => "economics",
            Category::Observability => "observability",
            Category::Measurement => "measurement",
            Category::Durability => "durability",
            Category::Scale => "scale",
            Category::Service => "service",
        }
    }

    /// Whether this category's targets are harness experiments that
    /// write `BENCH_*.json` artifacts; the others print paper tables,
    /// and `repro all` runs them.
    pub fn writes_artifacts(self) -> bool {
        !matches!(self, Category::Paper | Category::Perf | Category::Economics)
    }
}

/// Every category, in the order `--list` prints its sections.
pub const CATEGORIES: &[Category] = &[
    Category::Paper,
    Category::Perf,
    Category::Economics,
    Category::Observability,
    Category::Measurement,
    Category::Durability,
    Category::Scale,
    Category::Service,
];

/// One runnable `repro` target.
pub struct Target {
    /// Name passed on the command line (`repro <name>`).
    pub name: &'static str,
    /// One-line description for `repro --list`.
    pub about: &'static str,
    /// Section this target is listed under.
    pub category: Category,
    /// Runner; returns the text to print, or the gate that failed.
    pub run: fn() -> Result<String, GateError>,
}

/// Every target, in the order usage and `--list` present them.
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1",
        about: "Table 1 — BoD vision vs today's reality vs GRIPhoN, quantified",
        category: Category::Paper,
        run: || Ok(exp::table1()),
    },
    Target {
        name: "table2",
        about: "Table 2 — wavelength setup time vs path length (1/2/3 hops)",
        category: Category::Paper,
        run: || Ok(exp::table2()),
    },
    Target {
        name: "fig1",
        about: "Fig. 1 — current services and layers (W-DCS/SONET/DWDM)",
        category: Category::Paper,
        run: || Ok(exp::fig_layers(false)),
    },
    Target {
        name: "fig2",
        about: "Fig. 2 — future services and layers (OTN/DWDM BoD)",
        category: Category::Paper,
        run: || Ok(exp::fig_layers(true)),
    },
    Target {
        name: "fig3",
        about: "Fig. 3 — BoD architecture walk-through (λ and OTN paths)",
        category: Category::Paper,
        run: || Ok(exp::fig3()),
    },
    Target {
        name: "fig4",
        about: "Fig. 4 — the four-ROADM testbed, rendered and checked",
        category: Category::Paper,
        run: || Ok(exp::fig4()),
    },
    Target {
        name: "e1-teardown",
        about: "E1 — §3 prose timings: setup range, teardown",
        category: Category::Paper,
        run: || Ok(exp::e1_teardown()),
    },
    Target {
        name: "e2-restoration",
        about: "E2 — restoration after a fiber cut",
        category: Category::Paper,
        run: || Ok(exp::e2_restoration()),
    },
    Target {
        name: "e2b-parallelism",
        about: "E2b — EMS parallelism ablation",
        category: Category::Paper,
        run: || Ok(exp::e2b_parallelism()),
    },
    Target {
        name: "e3-maintenance",
        about: "E3 — maintenance hit: bridge-and-roll vs cold reroute",
        category: Category::Paper,
        run: || Ok(exp::e3_maintenance()),
    },
    Target {
        name: "e4-composite",
        about: "E4 — composite BoD: 12 G = 10G λ + 2×1G OTN",
        category: Category::Paper,
        run: || Ok(exp::e4_composite()),
    },
    Target {
        name: "e5-bulk",
        about: "E5 — one week of bulk replication: BoD vs static vs S&F",
        category: Category::Paper,
        run: || Ok(exp::e5_bulk()),
    },
    Target {
        name: "e5b-full-mesh",
        about: "E5b — full-mesh replication, three DCs, one carrier",
        category: Category::Paper,
        run: || Ok(exp::e5b_full_mesh()),
    },
    Target {
        name: "fig6",
        about: "Fig. 6 — one week of two-DC replication: cost per policy",
        category: Category::Economics,
        run: || Ok(exp::fig6()),
    },
    Target {
        name: "fig7",
        about: "Fig. 7 — weekly cost vs offered bulk load",
        category: Category::Economics,
        run: || Ok(exp::fig7()),
    },
    Target {
        name: "e6-grooming",
        about: "E6 — grooming: OTN switching vs muxponder-only",
        category: Category::Paper,
        run: || Ok(exp::e6_grooming()),
    },
    Target {
        name: "e7-ablation",
        about: "E7 — setup time vs hops under control-plane ablations",
        category: Category::Paper,
        run: || Ok(exp::e7_ablation()),
    },
    Target {
        name: "e8-protection",
        about: "E8 — 1+1 protection vs restoration: footprint, outage",
        category: Category::Paper,
        run: || Ok(exp::e8_protection()),
    },
    Target {
        name: "e9-planning",
        about: "E9 — transponder-pool blocking: Erlang-B vs simulation",
        category: Category::Paper,
        run: || Ok(exp::e9_planning()),
    },
    Target {
        name: "e10-sla",
        about: "E10 — a month of fiber cuts: availability, auto vs manual",
        category: Category::Paper,
        run: || Ok(exp::e10_sla()),
    },
    Target {
        name: "perf",
        about: "engine performance counters (route cache, CSR sweeps)",
        category: Category::Perf,
        run: || Ok(exp::perf()),
    },
    Target {
        name: "all",
        about: "every target above, plus fig6, fig7 and perf",
        category: Category::Paper,
        run: all,
    },
    Target {
        name: "trace",
        about: "writes BENCH_trace.json + BENCH_trace_chrome.json",
        category: Category::Observability,
        run: || harness::emit(&crate::trace_target::Trace),
    },
    Target {
        name: "noc",
        about: "writes BENCH_noc.json + noc_exposition.txt",
        category: Category::Observability,
        run: || harness::emit(&crate::noc_target::Noc),
    },
    Target {
        name: "slo",
        about: "writes BENCH_slo.json + slo_exposition.txt (error budgets, burn alerts, exemplars)",
        category: Category::Observability,
        run: || harness::emit(&crate::slo_target::Slo),
    },
    Target {
        name: "measure",
        about: "writes BENCH_measure.json + measure_exposition.txt (probing, estimation, regret)",
        category: Category::Measurement,
        run: || harness::emit(&crate::measure_target::Measure),
    },
    Target {
        name: "ha",
        about: "writes BENCH_ha.json (WAL, snapshots, crash-point failover)",
        category: Category::Durability,
        run: || harness::emit(&crate::ha_target::Ha),
    },
    Target {
        name: "scale",
        about: "writes BENCH_scale.json (plant-size sweep, sharded RWA, digests)",
        category: Category::Scale,
        run: || harness::emit(&crate::scale_target::Scale),
    },
    Target {
        name: "serve",
        about: "writes BENCH_serve.json (intent API server: fleet × load sweep, fairness)",
        category: Category::Service,
        run: || harness::emit(&crate::serve_target::Serve),
    },
];

/// `repro all`: every paper, economics and perf target, in table order.
/// Each is an independent cell (own controllers, own seeds), so the
/// sweep fans out across threads; output order is fixed regardless of
/// completion order.
fn all() -> Result<String, GateError> {
    let targets: Vec<&Target> = TARGETS
        .iter()
        .filter(|t| !t.category.writes_artifacts() && t.name != "all")
        .collect();
    let texts: Result<Vec<String>, GateError> = harness::parallel_cells(targets, |t| (t.run)())
        .into_iter()
        .collect();
    Ok(texts?.join("\n\n"))
}

/// Look up a target by name.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// The bare target-name list, wrapped for terminal width — used both in
/// the usage error and the binary's doc comment.
pub fn usage() -> String {
    let mut out = String::new();
    let mut line = String::new();
    for t in TARGETS {
        if !line.is_empty() && line.len() + t.name.len() + 1 > 72 {
            out.push_str(line.trim_end());
            out.push('\n');
            line.clear();
        }
        line.push_str(t.name);
        line.push(' ');
    }
    out.push_str(line.trim_end());
    out
}

/// The `--list` output: one aligned `name — about` row per target,
/// grouped under category headers ([`CATEGORIES`] order; declaration
/// order within a group).
pub fn list() -> String {
    let width = TARGETS.iter().map(|t| t.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (i, cat) in CATEGORIES.iter().enumerate() {
        let rows: Vec<&Target> = TARGETS.iter().filter(|t| t.category == *cat).collect();
        if rows.is_empty() {
            continue;
        }
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("{}:\n", cat.header()));
        for t in rows {
            out.push_str(&format!("  {:width$}  {}\n", t.name, t.about));
        }
    }
    out.pop(); // drop the trailing newline
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, t) in TARGETS.iter().enumerate() {
            assert!(
                TARGETS[..i].iter().all(|u| u.name != t.name),
                "duplicate target {}",
                t.name
            );
            assert_eq!(find(t.name).unwrap().name, t.name);
        }
        assert!(find("no-such-target").is_none());
    }

    #[test]
    fn usage_and_list_cover_every_target() {
        let usage = usage();
        let list = list();
        for t in TARGETS {
            assert!(usage.contains(t.name), "usage omits {}", t.name);
            assert!(list.contains(t.name), "--list omits {}", t.name);
        }
    }

    #[test]
    fn list_groups_by_category() {
        let list = list();
        for cat in CATEGORIES {
            let header = format!("{}:", cat.header());
            assert!(list.contains(&header), "--list omits section {header}");
        }
        // Sections appear in CATEGORIES order.
        let mut last = 0;
        for cat in CATEGORIES {
            let pos = list
                .find(&format!("{}:", cat.header()))
                .expect("section present");
            assert!(pos >= last, "section {} out of order", cat.header());
            last = pos;
        }
        // Every target row sits under its own section header: the scale
        // target must come after the `scale:` header.
        let scale_pos = list.find("\n  scale ").or_else(|| list.find("  scale "));
        let header_pos = list.find("scale:").unwrap();
        assert!(scale_pos.unwrap() > header_pos);
        // Fig. 6 and Fig. 7 are §4's economics tables.
        let economics = list
            .split("\n\n")
            .find(|s| s.starts_with("economics:"))
            .expect("economics section");
        for name in ["fig6", "fig7"] {
            assert!(
                economics.contains(&format!("\n  {name} ")),
                "{name} is not listed under economics:"
            );
        }
        // Host-time cost is measured by `benchmark/`, not by a target.
        assert!(!list.contains("bench-"), "--list names a bench-* target");
    }
}
