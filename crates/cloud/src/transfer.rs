//! Bulk-transfer progress tracking.
//!
//! A [`Transfer`] is a [`crate::workload::BulkJob`] in flight: it
//! accumulates bytes whenever the scheduler gives it rate, and records
//! completion. [`TransferLog`] aggregates per-job outcomes into the
//! statistics experiment E5 reports (completion time, deadline hit rate,
//! byte-weighted throughput).

use serde::{Deserialize, Serialize};
use simcore::{DataRate, DataSize, SimDuration, SimTime};

use crate::workload::BulkJob;

/// One job in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// The job being moved.
    pub job: BulkJob,
    /// Bytes still to move.
    pub remaining: DataSize,
    /// Completion time, once done.
    pub completed: Option<SimTime>,
}

impl Transfer {
    /// Start a transfer for `job`.
    pub fn new(job: BulkJob) -> Transfer {
        let remaining = job.size;
        Transfer {
            job,
            remaining,
            completed: None,
        }
    }

    /// Is the job done?
    pub fn is_done(&self) -> bool {
        self.completed.is_some()
    }

    /// Advance by `dt` at `rate`; marks completion at the *interpolated*
    /// instant inside the window if the job finishes mid-step. `now` is
    /// the time at the *start* of the window.
    pub fn advance(&mut self, now: SimTime, dt: SimDuration, rate: DataRate) {
        if self.is_done() || rate == DataRate::ZERO {
            return;
        }
        let movable = rate.over(dt);
        if movable >= self.remaining {
            let finish_after = self.remaining.time_at(rate);
            self.remaining = DataSize::ZERO;
            self.completed = Some(now + finish_after);
        } else {
            self.remaining = self.remaining.saturating_sub(movable);
        }
    }

    /// Time from submission to completion (None while in flight).
    pub(crate) fn completion_time(&self) -> Option<SimDuration> {
        self.completed.map(|t| t.saturating_since(self.job.created))
    }

    /// Did it meet its deadline? `None` if it had none or is unfinished.
    pub(crate) fn met_deadline(&self) -> Option<bool> {
        match (self.job.deadline, self.completed) {
            (Some(d), Some(c)) => Some(c <= d),
            _ => None,
        }
    }
}

/// Aggregated outcomes of a batch of transfers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferLog {
    /// Jobs finished.
    pub completed: usize,
    /// Jobs still unfinished at the end of the run.
    pub unfinished: usize,
    /// Bytes delivered.
    pub bytes_moved: DataSize,
    /// Mean completion time over finished jobs (seconds).
    pub mean_completion_secs: f64,
    /// 95th-percentile completion time (seconds).
    pub p95_completion_secs: f64,
    /// Of deadline-carrying finished jobs, the fraction that met it.
    pub deadline_hit_rate: f64,
}

impl TransferLog {
    /// Summarize a finished batch.
    pub fn summarize(transfers: &[Transfer]) -> TransferLog {
        let mut times: Vec<f64> = Vec::new();
        let mut bytes = DataSize::ZERO;
        let mut unfinished = 0;
        let mut dl_total = 0usize;
        let mut dl_hit = 0usize;
        for t in transfers {
            match t.completion_time() {
                Some(ct) => {
                    times.push(ct.as_secs_f64());
                    bytes += t.job.size;
                }
                None => {
                    unfinished += 1;
                    bytes += t.job.size.saturating_sub(t.remaining);
                }
            }
            if let Some(met) = t.met_deadline() {
                dl_total += 1;
                if met {
                    dl_hit += 1;
                }
            }
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        };
        let p95 = if times.is_empty() {
            0.0
        } else {
            times[((times.len() as f64 * 0.95).ceil() as usize - 1).min(times.len() - 1)]
        };
        TransferLog {
            completed: times.len(),
            unfinished,
            bytes_moved: bytes,
            mean_completion_secs: mean,
            p95_completion_secs: p95,
            deadline_hit_rate: if dl_total == 0 {
                1.0
            } else {
                dl_hit as f64 / dl_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DataCenterId;
    use crate::workload::JobId;

    fn job(size_tb: u64, deadline: Option<SimTime>) -> BulkJob {
        BulkJob {
            id: JobId::new(0),
            from: DataCenterId::new(0),
            to: DataCenterId::new(1),
            size: DataSize::from_terabytes(size_tb),
            created: SimTime::from_secs(100),
            deadline,
        }
    }

    #[test]
    fn advances_and_completes_mid_window() {
        let mut t = Transfer::new(job(1, None));
        // 1 TB at 10 G takes 800 s; advance in 300 s windows from t=100.
        let rate = DataRate::from_gbps(10);
        let mut now = SimTime::from_secs(100);
        for _ in 0..2 {
            t.advance(now, SimDuration::from_secs(300), rate);
            now += SimDuration::from_secs(300);
            assert!(!t.is_done());
        }
        t.advance(now, SimDuration::from_secs(300), rate);
        assert!(t.is_done());
        // Interpolated completion: 100 + 800 = 900, not 1000.
        assert_eq!(t.completed, Some(SimTime::from_secs(900)));
        assert_eq!(t.completion_time(), Some(SimDuration::from_secs(800)));
    }

    #[test]
    fn zero_rate_means_no_progress() {
        let mut t = Transfer::new(job(1, None));
        t.advance(SimTime::ZERO, SimDuration::from_hours(10), DataRate::ZERO);
        assert_eq!(t.remaining, DataSize::from_terabytes(1));
        assert!(!t.is_done());
    }

    #[test]
    fn advance_after_done_is_noop() {
        let mut t = Transfer::new(job(1, None));
        t.advance(
            SimTime::from_secs(100),
            SimDuration::from_hours(1),
            DataRate::from_gbps(10),
        );
        let done_at = t.completed.unwrap();
        t.advance(done_at, SimDuration::from_hours(1), DataRate::from_gbps(10));
        assert_eq!(t.completed, Some(done_at));
    }

    #[test]
    fn deadline_accounting() {
        let deadline = SimTime::from_secs(1000);
        let mut hit = Transfer::new(job(1, Some(deadline)));
        hit.advance(
            SimTime::from_secs(100),
            SimDuration::from_secs(800),
            DataRate::from_gbps(10),
        );
        assert_eq!(hit.met_deadline(), Some(true));
        let mut miss = Transfer::new(job(1, Some(SimTime::from_secs(500))));
        miss.advance(
            SimTime::from_secs(100),
            SimDuration::from_secs(800),
            DataRate::from_gbps(10),
        );
        assert_eq!(miss.met_deadline(), Some(false));
        let nodl = Transfer::new(job(1, None));
        assert_eq!(nodl.met_deadline(), None);
    }

    #[test]
    fn summary_statistics() {
        let mut a = Transfer::new(job(1, Some(SimTime::from_secs(10_000))));
        a.advance(
            SimTime::from_secs(100),
            SimDuration::from_secs(800),
            DataRate::from_gbps(10),
        );
        let b = Transfer::new(job(2, None)); // unfinished
        let log = TransferLog::summarize(&[a, b]);
        assert_eq!(log.completed, 1);
        assert_eq!(log.unfinished, 1);
        assert_eq!(log.bytes_moved, DataSize::from_terabytes(1));
        assert!((log.mean_completion_secs - 800.0).abs() < 1e-6);
        assert!((log.deadline_hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_progress_counts_in_bytes_moved() {
        let mut t = Transfer::new(job(2, None));
        t.advance(
            SimTime::ZERO,
            SimDuration::from_secs(800),
            DataRate::from_gbps(10),
        );
        // Half of 2 TB moved.
        let log = TransferLog::summarize(&[t]);
        assert_eq!(log.bytes_moved, DataSize::from_terabytes(1));
        assert_eq!(log.completed, 0);
    }
}
