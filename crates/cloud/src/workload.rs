//! Synthetic inter-data-center workloads.
//!
//! Built to the published characteristics the paper cites:
//!
//! - **Chen et al. \\[6\\]** (Yahoo! datasets): inter-DC traffic peaks are
//!   dominated by *background, non-interactive bulk transfers*; the
//!   interactive component follows a diurnal curve.
//! - **§1**: bulk sizes range "from several terabytes … to petabytes",
//!   i.e. heavy-tailed — modelled as bounded Pareto.
//! - **Forrester \\[14\\]**: a majority of CSPs transfer among three or more
//!   data centers — the default scenario uses three sites and full-mesh
//!   replication.
//!
//! Everything is a deterministic function of the seed, so experiments
//! cite `(config, seed)` and reproduce exactly.

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate, DataSize, SimDuration, SimRng, SimTime};

use crate::datacenter::DataCenterId;

define_id!(
    /// Identifier of a bulk-transfer job.
    JobId,
    "job"
);

/// One bulk transfer to be performed between two sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BulkJob {
    /// This job's id.
    pub id: JobId,
    /// Source site.
    pub from: DataCenterId,
    /// Destination site.
    pub to: DataCenterId,
    /// Bytes to move.
    pub size: DataSize,
    /// When the job was submitted.
    pub created: SimTime,
    /// Completion deadline, if the application has one (backups do;
    /// opportunistic replication does not).
    pub deadline: Option<SimTime>,
}

/// Pareto scale: the minimum bulk size ("several terabytes").
const BULK_MIN: DataSize = DataSize::from_terabytes(1);
/// Pareto shape (1 < α < 2 ⇒ heavy tail with finite mean).
const BULK_ALPHA: f64 = 1.3;
/// Deadline slack: deadline = created + slack × (size / 10 G time).
const DEADLINE_SLACK: f64 = 3.0;
/// Peak interactive demand per site pair (diurnal curve's crest).
const INTERACTIVE_PEAK: DataRate = DataRate::from_gbps(2);
/// Trough-to-peak ratio of the diurnal curve.
const DIURNAL_FLOOR: f64 = 0.3;

/// Workload shape parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Mean bulk-job inter-arrival time per site pair.
    pub bulk_interarrival: SimDuration,
    /// Cap on a single job (petabyte-scale ceiling).
    pub bulk_max: DataSize,
    /// Fraction of jobs carrying a deadline.
    pub deadline_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            bulk_interarrival: SimDuration::from_hours(2),
            bulk_max: DataSize::from_terabytes(500),
            deadline_fraction: 0.5,
        }
    }
}

/// Deterministic workload generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    /// The shape parameters.
    pub config: WorkloadConfig,
    rng: SimRng,
    next_job: u32,
}

impl WorkloadGenerator {
    /// A generator with the given seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator {
            config,
            rng: SimRng::new(seed),
            next_job: 0,
        }
    }

    /// Interactive demand between a site pair at time `t` — a smooth
    /// diurnal curve with its peak at local noon and floor at midnight.
    pub fn interactive_rate(&self, t: SimTime) -> DataRate {
        let scale = simcore::diurnal_day_factor(t.as_secs_f64(), DIURNAL_FLOOR);
        DataRate::from_bps((INTERACTIVE_PEAK.bps() as f64 * scale) as u64)
    }

    /// Generate all bulk jobs for one site pair over `[0, horizon)`,
    /// Poisson arrivals with bounded-Pareto sizes.
    pub fn bulk_jobs(
        &mut self,
        from: DataCenterId,
        to: DataCenterId,
        horizon: SimDuration,
    ) -> Vec<BulkJob> {
        let mut jobs = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(
                self.rng.exp(self.config.bulk_interarrival.as_secs_f64()),
            );
            t += gap;
            if t.as_nanos() >= horizon.as_nanos() {
                break;
            }
            let bits = simcore::bounded_pareto_bits(
                &mut self.rng,
                BULK_MIN.bits() as f64,
                BULK_ALPHA,
                self.config.bulk_max.bits(),
            );
            let size = DataSize::from_bits(bits);
            let deadline = self.rng.chance(self.config.deadline_fraction).then(|| {
                let base = size.time_at(DataRate::from_gbps(10));
                t + base.mul_f64(DEADLINE_SLACK)
            });
            let id = JobId::new(self.next_job);
            self.next_job += 1;
            jobs.push(BulkJob {
                id,
                from,
                to,
                size,
                created: t,
                deadline,
            });
        }
        jobs
    }

    /// Generate a full-mesh workload over the given pairs, merged and
    /// sorted by creation time.
    pub fn full_mesh(
        &mut self,
        pairs: &[(DataCenterId, DataCenterId)],
        horizon: SimDuration,
    ) -> Vec<BulkJob> {
        let mut all = Vec::new();
        for (a, b) in pairs {
            all.extend(self.bulk_jobs(*a, *b, horizon));
        }
        all.sort_by_key(|j| (j.created, j.id));
        all
    }

    /// Nightly backup jobs: one fixed-size job per pair per simulated
    /// day at 02:00, with a dawn deadline — the §1 "backup and
    /// replication applications" pattern.
    pub fn nightly_backups(
        &mut self,
        pairs: &[(DataCenterId, DataCenterId)],
        size: DataSize,
        days: u64,
    ) -> Vec<BulkJob> {
        let mut jobs = Vec::new();
        for day in 0..days {
            let t = SimTime::from_secs(day * 86_400 + 2 * 3_600);
            for (a, b) in pairs {
                let id = JobId::new(self.next_job);
                self.next_job += 1;
                jobs.push(BulkJob {
                    id,
                    from: *a,
                    to: *b,
                    size,
                    created: t,
                    deadline: Some(t + SimDuration::from_hours(4)),
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u32) -> DataCenterId {
        DataCenterId::new(i)
    }

    #[test]
    fn generation_is_deterministic() {
        let mut g1 = WorkloadGenerator::new(WorkloadConfig::default(), 7);
        let mut g2 = WorkloadGenerator::new(WorkloadConfig::default(), 7);
        let a = g1.bulk_jobs(dc(0), dc(1), SimDuration::from_hours(240));
        let b = g2.bulk_jobs(dc(0), dc(1), SimDuration::from_hours(240));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn sizes_are_heavy_tailed_and_bounded() {
        let cfg = WorkloadConfig::default();
        let mut g = WorkloadGenerator::new(cfg.clone(), 11);
        let jobs = g.bulk_jobs(dc(0), dc(1), SimDuration::from_hours(24 * 365));
        assert!(jobs.len() > 1000);
        let min = jobs.iter().map(|j| j.size).min().unwrap();
        let max = jobs.iter().map(|j| j.size).max().unwrap();
        assert!(min >= BULK_MIN);
        assert!(max <= cfg.bulk_max);
        // Heavy tail: the top 10% of jobs carry the majority of bytes.
        let mut sizes: Vec<u64> = jobs.iter().map(|j| j.size.bits()).collect();
        sizes.sort_unstable();
        let total: u128 = sizes.iter().map(|s| *s as u128).sum();
        let top: u128 = sizes[sizes.len() * 9 / 10..]
            .iter()
            .map(|s| *s as u128)
            .sum();
        assert!(top * 2 > total, "top decile carries {top} of {total} bits");
    }

    #[test]
    fn arrivals_match_configured_rate() {
        let cfg = WorkloadConfig::default();
        let mut g = WorkloadGenerator::new(cfg, 13);
        let horizon = SimDuration::from_hours(24 * 200);
        let jobs = g.bulk_jobs(dc(0), dc(1), horizon);
        let expect = horizon.as_secs_f64() / (2.0 * 3600.0);
        let got = jobs.len() as f64;
        assert!(
            (got - expect).abs() < expect * 0.1,
            "got {got}, expected ≈{expect}"
        );
        // Sorted by construction, within the horizon.
        assert!(jobs.windows(2).all(|w| w[0].created <= w[1].created));
        assert!(jobs.iter().all(|j| j.created < SimTime::ZERO + horizon));
    }

    #[test]
    fn diurnal_curve_shape() {
        let g = WorkloadGenerator::new(WorkloadConfig::default(), 1);
        let midnight = g.interactive_rate(SimTime::ZERO);
        let noon = g.interactive_rate(SimTime::from_secs(43_200));
        let next_midnight = g.interactive_rate(SimTime::from_secs(86_400));
        assert!(noon > midnight);
        assert_eq!(midnight, next_midnight, "24 h periodic");
        // Floor ratio respected.
        let peak = INTERACTIVE_PEAK.bps() as f64;
        assert!((midnight.bps() as f64 - peak * 0.3).abs() < peak * 0.01);
        assert!((noon.bps() as f64 - peak).abs() < peak * 0.01);
    }

    #[test]
    fn deadlines_scale_with_size() {
        let cfg = WorkloadConfig {
            deadline_fraction: 1.0,
            ..WorkloadConfig::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 17);
        let jobs = g.bulk_jobs(dc(0), dc(1), SimDuration::from_hours(1000));
        for j in &jobs {
            let d = j.deadline.expect("all jobs have deadlines");
            let needed = j.size.time_at(DataRate::from_gbps(10));
            assert_eq!(d, j.created + needed.mul_f64(3.0));
        }
    }

    #[test]
    fn nightly_backups_daily_at_2am() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 19);
        let pairs = [(dc(0), dc(1)), (dc(0), dc(2))];
        let jobs = g.nightly_backups(&pairs, DataSize::from_terabytes(10), 3);
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].created, SimTime::from_secs(2 * 3600));
        assert_eq!(jobs[2].created, SimTime::from_secs(86_400 + 2 * 3600));
        assert!(jobs.iter().all(|j| j.deadline.is_some()));
    }

    #[test]
    fn full_mesh_merges_and_sorts() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 23);
        let pairs = [(dc(0), dc(1)), (dc(1), dc(2)), (dc(0), dc(2))];
        let jobs = g.full_mesh(&pairs, SimDuration::from_hours(24 * 30));
        assert!(jobs.windows(2).all(|w| w[0].created <= w[1].created));
        // All three pairs appear.
        for (a, b) in &pairs {
            assert!(jobs.iter().any(|j| j.from == *a && j.to == *b));
        }
    }
}
