//! Crash recovery: snapshot restore plus deterministic log-tail replay.
//!
//! [`recover`] rebuilds a controller from the surviving WAL segments and
//! an optional snapshot store. The reconstruction contract is **byte
//! identity**: the recovered controller's [`Controller::state_digest`]
//! equals the primary's at the same sim time, because every intent
//! replays through the identical public entry point it originally took
//! (journal disabled), and all derived activity — EMS completions,
//! restoration, reservation activation — re-derives from the event
//! schedule.
//!
//! A torn log tail is a *clean* crash: the final, never-acknowledged
//! intent rolls back (the ledger counts it, and
//! [`photonic::WorkflowLedger::dump`] prints the count). Corruption, mid-log
//! tears, and semantically invalid records (an id no topology object
//! backs) are typed [`RecoveryError`]s — recovery refuses to guess
//! rather than diverging from the lost primary.

use simcore::{DataRate, SimDuration, SimTime};

use crate::controller::Controller;
use crate::durability::snapshot::SnapshotStore;
use crate::durability::wal::{
    decode_rate, decode_signal, Intent, Wal, WalConfig, WalError, WalRecord,
};

use photonic::{FiberId, RoadmId, TransponderId};

/// Why recovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The log itself would not open.
    Wal(WalError),
    /// A decoded record referenced state no controller built from this
    /// genesis could hold (an out-of-range node, fiber, or transponder).
    Apply {
        /// Sequence number of the offending record.
        seq: u64,
        /// What was wrong.
        error: String,
    },
    /// A record's sim time ran backwards — the log is not a valid
    /// history.
    TimeRegression {
        /// Sequence number of the offending record.
        seq: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "log open failed: {e}"),
            RecoveryError::Apply { seq, error } => {
                write!(f, "record {seq} would not apply: {error}")
            }
            RecoveryError::TimeRegression { seq } => {
                write!(f, "record {seq} runs time backwards")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

/// What [`recover`] produced.
pub struct RecoveryOutcome {
    /// The reconstructed controller, journaling re-enabled over the
    /// surviving history.
    pub controller: Controller,
    /// Log position of the snapshot the restore started from (`None` =
    /// replayed from genesis).
    pub snapshot_seq: Option<u64>,
    /// Records replayed on top of the starting state.
    pub replayed: u64,
    /// Trailing bytes discarded as a torn tail.
    pub torn_bytes: usize,
    /// Whether a torn (never-committed) record was rolled back.
    pub rolled_back_tail: bool,
    /// EMS workflows that were in flight at the crash and were re-issued
    /// by replay.
    pub resumed_workflows: u32,
}

/// Rebuild a controller from `segments`, starting from the newest usable
/// snapshot in `store` (genesis via `genesis()` if none), then run it
/// forward to `target`.
///
/// `wal_cfg` configures the journal reinstalled on the recovered
/// controller, which resumes appending exactly where the surviving log
/// left off.
///
/// Segment decode and CRC verification fan out across worker threads
/// ([`Wal::decode_parallel`], thread count from
/// [`crate::durability::wal::decode_threads`] / `REPRO_THREADS`); replay
/// stays strictly sequential, so the reconstruction is bit-for-bit the
/// same as the single-threaded path.
pub fn recover<S: AsRef<[u8]> + Sync>(
    genesis: impl FnOnce() -> Controller,
    segments: &[S],
    store: &SnapshotStore,
    target: SimTime,
    wal_cfg: WalConfig,
) -> Result<RecoveryOutcome, RecoveryError> {
    let (records, report) =
        Wal::decode_parallel(segments, crate::durability::wal::decode_threads())?;
    let snap = store.best_at_or_before(records.len() as u64);
    let (mut ctl, start_seq, snapshot_seq) = match snap {
        Some(s) => (s.state.fork(), s.meta.seq, Some(s.meta.seq)),
        None => (genesis(), 0, None),
    };
    // Replay must not journal: intents re-execute through the same public
    // entry points, and a live journal would re-log them.
    let _ = ctl.take_journal();

    let tail = &records[start_seq as usize..];
    let replayed = replay(&mut ctl, tail)?;
    ctl.run_until(target);

    let resumed = ctl.workflows.open_count();
    ctl.workflows.mark_resumed(resumed as u64);
    if report.rolled_back_tail {
        ctl.workflows.mark_rolled_back(1);
    }
    ctl.install_journal(Wal::from_records(wal_cfg, &records));

    Ok(RecoveryOutcome {
        controller: ctl,
        snapshot_seq,
        replayed,
        torn_bytes: report.torn_bytes,
        rolled_back_tail: report.rolled_back_tail,
        resumed_workflows: resumed,
    })
}

/// Replay `tail` against `ctl`: advance sim time to each record's accept
/// time, then re-issue its intent through the public API. Returns the
/// number of records applied.
pub fn replay(ctl: &mut Controller, tail: &[WalRecord]) -> Result<u64, RecoveryError> {
    for rec in tail {
        if rec.at < ctl.now() {
            return Err(RecoveryError::TimeRegression { seq: rec.seq });
        }
        ctl.run_until(rec.at);
        apply(ctl, &rec.intent).map_err(|error| RecoveryError::Apply {
            seq: rec.seq,
            error,
        })?;
    }
    Ok(tail.len() as u64)
}

/// Bounds-check an id against the plant so replay surfaces a typed error
/// instead of an indexing panic on a semantically invalid (but
/// checksum-clean) record.
fn check(kind: &str, raw: u32, count: usize) -> Result<(), String> {
    if (raw as usize) < count {
        Ok(())
    } else {
        Err(format!("{kind} {raw} out of range (plant has {count})"))
    }
}

/// Re-issue one intent through the public controller API.
///
/// Deterministic *refusals* (quota exceeded, unknown connection, no
/// path) are `Ok`: the primary refused them the same way, so refusing
/// again reproduces its state. Only records that could never have been
/// accepted against this plant are errors.
pub fn apply(ctl: &mut Controller, intent: &Intent) -> Result<(), String> {
    let nodes = ctl.net.roadm_count();
    let fibers = ctl.net.fiber_count();
    let ots = ctl.net.transponder_count();
    match intent {
        Intent::RegisterTenant {
            name,
            quota_bps,
            priority,
        } => {
            ctl.register_tenant_with_priority(name, DataRate::from_bps(*quota_bps), *priority);
        }
        Intent::Wavelength {
            customer,
            from,
            to,
            rate,
        } => {
            check("node", *from, nodes)?;
            check("node", *to, nodes)?;
            let rate = decode_rate(*rate).map_err(|e| e.to_string())?;
            let _ = ctl.request_wavelength(
                crate::CustomerId::new(*customer),
                RoadmId::new(*from),
                RoadmId::new(*to),
                rate,
            );
        }
        Intent::ProtectedWavelength {
            customer,
            from,
            to,
            rate,
        } => {
            check("node", *from, nodes)?;
            check("node", *to, nodes)?;
            let rate = decode_rate(*rate).map_err(|e| e.to_string())?;
            let _ = ctl.request_protected_wavelength(
                crate::CustomerId::new(*customer),
                RoadmId::new(*from),
                RoadmId::new(*to),
                rate,
            );
        }
        Intent::Subwavelength {
            customer,
            from,
            to,
            signal,
        } => {
            check("node", *from, nodes)?;
            check("node", *to, nodes)?;
            let signal = decode_signal(*signal).map_err(|e| e.to_string())?;
            let _ = ctl.request_subwavelength(
                crate::CustomerId::new(*customer),
                RoadmId::new(*from),
                RoadmId::new(*to),
                signal,
            );
        }
        Intent::Bandwidth {
            customer,
            from,
            to,
            target_bps,
        } => {
            check("node", *from, nodes)?;
            check("node", *to, nodes)?;
            let _ = ctl.request_bandwidth(
                crate::CustomerId::new(*customer),
                RoadmId::new(*from),
                RoadmId::new(*to),
                DataRate::from_bps(*target_bps),
            );
        }
        Intent::Teardown { conn } => {
            let _ = ctl.request_teardown(crate::ConnectionId::new(*conn));
        }
        Intent::ReleaseBundle { members } => {
            let members: Vec<crate::ConnectionId> = members
                .iter()
                .map(|m| crate::ConnectionId::new(*m))
                .collect();
            ctl.release_members(&members);
        }
        Intent::Reserve {
            customer,
            from,
            to,
            rate_bps,
            start_ns,
            end_ns,
        } => {
            check("node", *from, nodes)?;
            check("node", *to, nodes)?;
            let _ = ctl.reserve_bandwidth(
                crate::CustomerId::new(*customer),
                RoadmId::new(*from),
                RoadmId::new(*to),
                DataRate::from_bps(*rate_bps),
                SimTime::from_nanos(*start_ns),
                SimTime::from_nanos(*end_ns),
            );
        }
        Intent::CancelReservation { reservation } => {
            let _ = ctl.cancel_reservation(crate::ReservationId::new(*reservation));
        }
        Intent::SetBookingCapacity { a, b, cap_bps } => {
            check("node", *a, nodes)?;
            check("node", *b, nodes)?;
            ctl.set_booking_capacity(
                RoadmId::new(*a),
                RoadmId::new(*b),
                DataRate::from_bps(*cap_bps),
            );
        }
        Intent::AddOtnSwitch { node, fabric_bps } => {
            check("node", *node, nodes)?;
            if ctl.otn_switch_at(RoadmId::new(*node)).is_some() {
                return Err(format!("node {node} already has an OTN switch"));
            }
            ctl.add_otn_switch(RoadmId::new(*node), DataRate::from_bps(*fabric_bps));
        }
        Intent::ProvisionTrunk { a, b, rate } => {
            check("node", *a, nodes)?;
            check("node", *b, nodes)?;
            let rate = decode_rate(*rate).map_err(|e| e.to_string())?;
            let _ = ctl.provision_trunk(RoadmId::new(*a), RoadmId::new(*b), rate);
        }
        Intent::CutFiber { fiber, span } => {
            check("fiber", *fiber, fibers)?;
            let f = FiberId::new(*fiber);
            let spans = ctl.net.fiber(f).spans.len();
            check("span", *span, spans)?;
            ctl.inject_fiber_cut(f, *span as usize);
        }
        Intent::ScheduleRepair { fiber, after_ns } => {
            check("fiber", *fiber, fibers)?;
            ctl.schedule_repair(FiberId::new(*fiber), SimDuration::from_nanos(*after_ns));
        }
        Intent::OtFailure { ot } => {
            check("transponder", *ot, ots)?;
            ctl.inject_ot_failure(TransponderId::new(*ot));
        }
        Intent::BridgeRoll { conn, excluded } => {
            let excluded = checked_fibers(excluded, fibers)?;
            let _ = ctl.bridge_and_roll(crate::ConnectionId::new(*conn), &excluded);
        }
        Intent::ColdReroute { conn, excluded } => {
            let excluded = checked_fibers(excluded, fibers)?;
            let _ = ctl.cold_reroute(crate::ConnectionId::new(*conn), &excluded);
        }
        Intent::StartFiberMaintenance { fiber } => {
            check("fiber", *fiber, fibers)?;
            let _ = ctl.start_fiber_maintenance(FiberId::new(*fiber));
        }
        Intent::EndFiberMaintenance { fiber } => {
            check("fiber", *fiber, fibers)?;
            ctl.end_fiber_maintenance(FiberId::new(*fiber));
        }
        Intent::StartNodeMaintenance { node } => {
            check("node", *node, nodes)?;
            let _ = ctl.start_node_maintenance(RoadmId::new(*node));
        }
        Intent::Regroom { conn } => {
            let _ = ctl.regroom(crate::ConnectionId::new(*conn));
        }
        Intent::RegroomAll => {
            let _ = ctl.regroom_all();
        }
    }
    Ok(())
}

/// Bounds-check and rehydrate a fiber exclusion list.
fn checked_fibers(raw: &[u32], fibers: usize) -> Result<Vec<FiberId>, String> {
    raw.iter()
        .map(|&f| check("fiber", f, fibers).map(|()| FiberId::new(f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use photonic::PhotonicNetwork;

    /// Every intent that names a node, fibre, span or transponder, with
    /// that id out of range on the four-node testbed: each checksum-clean
    /// record must fail replay as a typed `Apply` error naming its `seq`.
    #[test]
    fn out_of_range_ids_are_typed_apply_errors() {
        const BAD: u32 = 999;
        let rate = crate::durability::wal::encode_rate(photonic::LineRate::Gbps10);
        let cases: Vec<(&str, Intent)> = vec![
            (
                "node",
                Intent::Wavelength {
                    customer: 0,
                    from: 0,
                    to: BAD,
                    rate,
                },
            ),
            (
                "node",
                Intent::ProtectedWavelength {
                    customer: 0,
                    from: BAD,
                    to: 1,
                    rate,
                },
            ),
            (
                "node",
                Intent::Subwavelength {
                    customer: 0,
                    from: 0,
                    to: BAD,
                    signal: 0,
                },
            ),
            (
                "node",
                Intent::Bandwidth {
                    customer: 0,
                    from: BAD,
                    to: 1,
                    target_bps: 1,
                },
            ),
            (
                "node",
                Intent::Reserve {
                    customer: 0,
                    from: 0,
                    to: BAD,
                    rate_bps: 1,
                    start_ns: 0,
                    end_ns: 1,
                },
            ),
            (
                "node",
                Intent::SetBookingCapacity {
                    a: 0,
                    b: BAD,
                    cap_bps: 1,
                },
            ),
            (
                "node",
                Intent::SetBookingCapacity {
                    a: BAD,
                    b: 1,
                    cap_bps: 1,
                },
            ),
            (
                "node",
                Intent::AddOtnSwitch {
                    node: BAD,
                    fabric_bps: 1,
                },
            ),
            ("node", Intent::ProvisionTrunk { a: 0, b: BAD, rate }),
            ("node", Intent::StartNodeMaintenance { node: BAD }),
            (
                "fiber",
                Intent::CutFiber {
                    fiber: BAD,
                    span: 0,
                },
            ),
            (
                "span",
                Intent::CutFiber {
                    fiber: 0,
                    span: BAD,
                },
            ),
            (
                "fiber",
                Intent::ScheduleRepair {
                    fiber: BAD,
                    after_ns: 1,
                },
            ),
            ("fiber", Intent::StartFiberMaintenance { fiber: BAD }),
            ("fiber", Intent::EndFiberMaintenance { fiber: BAD }),
            (
                "fiber",
                Intent::BridgeRoll {
                    conn: 0,
                    excluded: vec![0, BAD],
                },
            ),
            (
                "fiber",
                Intent::ColdReroute {
                    conn: 0,
                    excluded: vec![BAD],
                },
            ),
            ("transponder", Intent::OtFailure { ot: BAD }),
        ];
        for (kind, bad) in cases {
            let mut wal = Wal::new(WalConfig::default());
            let tenant = Intent::RegisterTenant {
                name: "acme".into(),
                quota_bps: 1_000_000_000_000,
                priority: 0,
            };
            wal.append(SimTime::ZERO, &tenant);
            let seq = wal.append(SimTime::from_secs(1), &bad);
            let (records, _) = Wal::decode(wal.segments()).expect("checksum-clean log");
            let (net, _) = PhotonicNetwork::testbed(2);
            let mut ctl = Controller::new(net, ControllerConfig::default());
            match replay(&mut ctl, &records) {
                Err(RecoveryError::Apply { seq: at, error }) => {
                    assert_eq!(at, seq, "{bad:?}");
                    assert!(
                        error.starts_with(&format!("{kind} {BAD} ")),
                        "{bad:?}: {error}"
                    );
                }
                other => panic!("{bad:?} replayed as {other:?}"),
            }
        }
    }
}
