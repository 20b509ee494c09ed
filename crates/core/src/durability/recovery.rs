//! Crash recovery: snapshot restore plus deterministic log-tail replay.
//!
//! [`recover`] rebuilds a controller from the surviving WAL segments and
//! an optional snapshot store. The reconstruction contract is **byte
//! identity**: the recovered controller's [`Controller::state_digest`]
//! equals the primary's at the same sim time, because every intent
//! replays through the identical public entry point it originally took
//! (journal disabled), and all derived activity — EMS completions,
//! restoration, reservation activation — re-derives from the event
//! schedule. [`apply`] is that intent-to-entry-point mapping, and the only
//! one: the scenario runner and the WAL corpus test run intents through it
//! too.
//!
//! A torn log tail is a *clean* crash: the final, never-acknowledged
//! intent rolls back (the ledger counts it, and
//! [`photonic::WorkflowLedger::dump`] prints the count). Corruption, mid-log
//! tears, and semantically invalid records (an id no topology object
//! backs) are typed [`RecoveryError`]s — recovery refuses to guess
//! rather than diverging from the lost primary.

use simcore::codec::CodecError;
use simcore::{DataRate, SimDuration, SimTime};

use crate::bod::Bundle;
use crate::calendar::{CalendarError, ReservationId};
use crate::connection::{ConnectionId, TrunkId};
use crate::controller::{Controller, RequestError};
use crate::durability::snapshot::SnapshotStore;
use crate::durability::wal::{
    decode_rate, decode_signal, Intent, Wal, WalConfig, WalError, WalRecord,
};
use crate::tenant::CustomerId;

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
        error: ApplyError,
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

/// Why [`apply`] refused a record outright: no controller built from this
/// genesis could ever have accepted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// An id past the end of the plant's table of `kind`s.
    OutOfRange {
        /// `node`, `fiber`, `span` or `transponder`.
        kind: &'static str,
        /// The id the record carries.
        raw: u32,
        /// How many the plant has.
        count: usize,
    },
    /// A line-rate or client-signal tag byte that names no variant.
    Codec(CodecError),
    /// A second OTN switch on one node, which the controller cannot hold.
    DuplicateOtnSwitch {
        /// The node (raw id).
        node: u32,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::OutOfRange { kind, raw, count } => {
                write!(f, "{kind} {raw} out of range (plant has {count})")
            }
            ApplyError::Codec(e) => write!(f, "{e}"),
            ApplyError::DuplicateOtnSwitch { node } => {
                write!(f, "node {node} already has an OTN switch")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// What one intent did: its entry point's own result, kept for the caller
/// instead of dropped. Refusals are values here, not [`ApplyError`]s.
#[derive(Debug)]
pub enum Applied {
    /// A tenant was onboarded.
    Tenant(CustomerId),
    /// A wavelength, protected wavelength or sub-wavelength order.
    Connection(Result<ConnectionId, RequestError>),
    /// A bandwidth order and the bundle it became.
    Bundle(Result<Bundle, RequestError>),
    /// A calendar booking.
    Booking(Result<ReservationId, CalendarError>),
    /// A trunk between two OTN switches.
    Trunk(Result<TrunkId, RequestError>),
    /// A fibre drained for maintenance, with the circuits moving off it.
    Moved(Result<Vec<ConnectionId>, RequestError>),
    /// Any other intent; an `Err` is its refusal.
    Done(Result<(), RequestError>),
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
/// time, then re-issue its intent through [`apply`]. Returns the number of
/// records applied.
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
fn check(kind: &'static str, raw: u32, count: usize) -> Result<(), ApplyError> {
    if (raw as usize) < count {
        Ok(())
    } else {
        Err(ApplyError::OutOfRange { kind, raw, count })
    }
}

/// Run one intent through the controller's public entry point for it and
/// return what that entry point did.
///
/// This is the one mapping from an [`Intent`] to a controller call:
/// recovery and the warm standby replay through it ([`replay`]), the
/// scenario runner resolves each JSON action to the intent it journals and
/// runs that here, and the WAL corpus test counts refusals from its
/// outcomes. With the journal on, the entry point journals the intent.
///
/// Deterministic *refusals* (quota exceeded, unknown connection, no
/// path) are `Ok`, inside the [`Applied`]: the primary refused them the
/// same way, so refusing again reproduces its state. Only records that
/// could never have been accepted against this plant are errors.
pub fn apply(ctl: &mut Controller, intent: &Intent) -> Result<Applied, ApplyError> {
    let (nodes, fibers) = (ctl.net.roadm_count(), ctl.net.fiber_count());
    let node_id = |raw: u32| check("node", raw, nodes).map(|()| RoadmId::new(raw));
    let fiber_id = |raw: u32| check("fiber", raw, fibers).map(|()| FiberId::new(raw));
    let fiber_ids = |raw: &[u32]| {
        raw.iter()
            .map(|&f| fiber_id(f))
            .collect::<Result<Vec<_>, _>>()
    };
    Ok(match intent {
        Intent::RegisterTenant {
            name,
            quota_bps,
            priority,
        } => Applied::Tenant(ctl.register_tenant_with_priority(
            name,
            DataRate::from_bps(*quota_bps),
            *priority,
        )),
        Intent::Wavelength {
            customer,
            from,
            to,
            rate,
        } => {
            let (from, to) = (node_id(*from)?, node_id(*to)?);
            let rate = decode_rate(*rate).map_err(ApplyError::Codec)?;
            Applied::Connection(ctl.request_wavelength(CustomerId::new(*customer), from, to, rate))
        }
        Intent::ProtectedWavelength {
            customer,
            from,
            to,
            rate,
        } => {
            let (from, to) = (node_id(*from)?, node_id(*to)?);
            let rate = decode_rate(*rate).map_err(ApplyError::Codec)?;
            let customer = CustomerId::new(*customer);
            Applied::Connection(ctl.request_protected_wavelength(customer, from, to, rate))
        }
        Intent::Subwavelength {
            customer,
            from,
            to,
            signal,
        } => {
            let (from, to) = (node_id(*from)?, node_id(*to)?);
            let signal = decode_signal(*signal).map_err(ApplyError::Codec)?;
            let customer = CustomerId::new(*customer);
            Applied::Connection(ctl.request_subwavelength(customer, from, to, signal))
        }
        Intent::Bandwidth {
            customer,
            from,
            to,
            target_bps,
        } => {
            let (from, to) = (node_id(*from)?, node_id(*to)?);
            let target = DataRate::from_bps(*target_bps);
            Applied::Bundle(ctl.request_bandwidth(CustomerId::new(*customer), from, to, target))
        }
        Intent::Teardown { conn } => done(ctl.request_teardown(ConnectionId::new(*conn))),
        Intent::ReleaseBundle { members } => {
            let members: Vec<_> = members.iter().map(|m| ConnectionId::new(*m)).collect();
            ctl.release_members(&members);
            Applied::Done(Ok(()))
        }
        Intent::Reserve {
            customer,
            from,
            to,
            rate_bps,
            start_ns,
            end_ns,
        } => {
            let (from, to) = (node_id(*from)?, node_id(*to)?);
            Applied::Booking(ctl.reserve_bandwidth(
                CustomerId::new(*customer),
                from,
                to,
                DataRate::from_bps(*rate_bps),
                SimTime::from_nanos(*start_ns),
                SimTime::from_nanos(*end_ns),
            ))
        }
        Intent::CancelReservation { reservation } => {
            ctl.cancel_reservation(ReservationId::new(*reservation));
            Applied::Done(Ok(()))
        }
        Intent::SetBookingCapacity { a, b, cap_bps } => {
            let (a, b) = (node_id(*a)?, node_id(*b)?);
            ctl.set_booking_capacity(a, b, DataRate::from_bps(*cap_bps));
            Applied::Done(Ok(()))
        }
        Intent::AddOtnSwitch { node, fabric_bps } => {
            let at = node_id(*node)?;
            if ctl.otn_switch_at(at).is_some() {
                return Err(ApplyError::DuplicateOtnSwitch { node: *node });
            }
            ctl.add_otn_switch(at, DataRate::from_bps(*fabric_bps));
            Applied::Done(Ok(()))
        }
        Intent::ProvisionTrunk { a, b, rate } => {
            let (a, b) = (node_id(*a)?, node_id(*b)?);
            let rate = decode_rate(*rate).map_err(ApplyError::Codec)?;
            Applied::Trunk(ctl.provision_trunk(a, b, rate))
        }
        Intent::CutFiber { fiber, span } => {
            let f = fiber_id(*fiber)?;
            check("span", *span, ctl.net.fiber(f).spans.len())?;
            ctl.inject_fiber_cut(f, *span as usize);
            Applied::Done(Ok(()))
        }
        Intent::ScheduleRepair { fiber, after_ns } => {
            ctl.schedule_repair(fiber_id(*fiber)?, SimDuration::from_nanos(*after_ns));
            Applied::Done(Ok(()))
        }
        Intent::OtFailure { ot } => {
            check("transponder", *ot, ctl.net.transponder_count())?;
            ctl.inject_ot_failure(TransponderId::new(*ot));
            Applied::Done(Ok(()))
        }
        Intent::BridgeRoll { conn, excluded } => {
            done(ctl.bridge_and_roll(ConnectionId::new(*conn), &fiber_ids(excluded)?))
        }
        Intent::ColdReroute { conn, excluded } => {
            done(ctl.cold_reroute(ConnectionId::new(*conn), &fiber_ids(excluded)?))
        }
        Intent::StartFiberMaintenance { fiber } => {
            Applied::Moved(ctl.start_fiber_maintenance(fiber_id(*fiber)?))
        }
        Intent::EndFiberMaintenance { fiber } => {
            ctl.end_fiber_maintenance(fiber_id(*fiber)?);
            Applied::Done(Ok(()))
        }
        Intent::StartNodeMaintenance { node } => done(ctl.start_node_maintenance(node_id(*node)?)),
        Intent::Regroom { conn } => done(ctl.regroom(ConnectionId::new(*conn))),
        Intent::RegroomAll => {
            ctl.regroom_all();
            Applied::Done(Ok(()))
        }
    })
}

/// An entry point's outcome whose value no caller reads.
fn done<T>(r: Result<T, RequestError>) -> Applied {
    Applied::Done(r.map(|_| ()))
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
                Err(RecoveryError::Apply {
                    seq: at,
                    error:
                        ApplyError::OutOfRange {
                            kind: k, raw: BAD, ..
                        },
                }) => {
                    assert_eq!((at, k), (seq, kind), "{bad:?}");
                }
                other => panic!("{bad:?} replayed as {other:?}"),
            }
        }
    }
    /// `ReleaseBundle` through `apply` journals what `release_bundle`
    /// journals: one record for the bundle, not one `Teardown` per member.
    #[test]
    fn release_bundle_through_apply_journals_the_same_bytes() {
        let run = |via_apply: bool| {
            let (net, ids) = PhotonicNetwork::testbed(4);
            let mut ctl = Controller::new(net, ControllerConfig::quiet());
            ctl.enable_journal(WalConfig::default());
            let csp = ctl.register_tenant("acme", simcore::DataRate::from_gbps(100));
            let bundle = ctl
                .request_bandwidth(csp, ids.i, ids.iv, simcore::DataRate::from_gbps(20))
                .expect("two wavelengths fit the testbed");
            ctl.run_until_idle();
            if via_apply {
                let members = bundle.members.iter().map(|m| m.raw()).collect();
                apply(&mut ctl, &Intent::ReleaseBundle { members }).expect("in range");
            } else {
                ctl.release_bundle(&bundle);
            }
            ctl.run_until_idle();
            ctl.journal().expect("journal on").segments().to_vec()
        };
        assert_eq!(run(true), run(false));
    }
}
