//! The write-ahead intent log.
//!
//! Every northbound intent — connection setup/teardown, BoD order and
//! release, calendar reserve/cancel, maintenance and protection
//! operations, fault injections — is appended here *before* the
//! controller executes it. Because the whole stack is a deterministic
//! function of genesis state + intent stream (see `tests/determinism.rs`),
//! the log **is** the controller: snapshot + log-tail replay reconstructs
//! a byte-identical replica.
//!
//! ## Format
//!
//! The log is a sequence of fixed-size-bounded **segments**, each a byte
//! buffer of CRC-framed records (`simcore::codec`):
//!
//! ```text
//! segment := header-frame record-frame*
//! header  := [magic u32][version u32][segment-index u64][first-seq u64]
//! record  := [seq u64][at-nanos u64][intent]
//! intent  := [tag u8] fields…
//! ```
//!
//! Records never span segments. A **torn tail** (truncation anywhere in
//! the last segment — the writer died mid-append) is a clean recovery
//! point: the torn record never committed, so it is rolled back. A bad
//! checksum on a *complete* frame, or truncation in a non-final segment,
//! is corruption — acknowledged data is gone, and recovery refuses to
//! guess ([`WalError`]).

use simcore::codec::{frame_into, read_frame, CodecError, Crc32c, Decoder, Encoder, Frame};
use simcore::SimTime;

use otn::ClientSignal;
use photonic::LineRate;

/// `b"GWAL"` little-endian.
pub const WAL_MAGIC: u32 = u32::from_le_bytes(*b"GWAL");
/// Current log format version.
pub const WAL_VERSION: u32 = 1;

/// Tunables of the write-ahead log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Soft segment size: a segment is sealed once it holds at least one
    /// record and appending the next would exceed this many bytes.
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 8 * 1024,
        }
    }
}

/// A northbound intent — the unit of durability. One variant per public
/// mutating controller entry point; internal activity (event handlers,
/// nested calls made by composite intents) is *not* logged, because
/// replaying the top-level intent re-derives it deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// Onboard a tenant.
    RegisterTenant {
        /// Display name.
        name: String,
        /// Quota in bits per second.
        quota_bps: u64,
        /// Restoration priority (lower restores first).
        priority: u8,
    },
    /// Order a full wavelength.
    Wavelength {
        /// Ordering tenant (raw id).
        customer: u32,
        /// A-end node.
        from: u32,
        /// Z-end node.
        to: u32,
        /// Line rate tag (see [`encode_rate`]).
        rate: u8,
    },
    /// Order a 1+1-protected wavelength.
    ProtectedWavelength {
        /// Ordering tenant.
        customer: u32,
        /// A-end node.
        from: u32,
        /// Z-end node.
        to: u32,
        /// Line rate tag.
        rate: u8,
    },
    /// Order a sub-wavelength OTN circuit.
    Subwavelength {
        /// Ordering tenant.
        customer: u32,
        /// A-end node.
        from: u32,
        /// Z-end node.
        to: u32,
        /// Client signal tag (see [`encode_signal`]).
        signal: u8,
    },
    /// Order a composite BoD bundle.
    Bandwidth {
        /// Ordering tenant.
        customer: u32,
        /// A-end node.
        from: u32,
        /// Z-end node.
        to: u32,
        /// Target aggregate rate in bits per second.
        target_bps: u64,
    },
    /// Tear a connection down.
    Teardown {
        /// The connection.
        conn: u32,
    },
    /// Release every member of a BoD bundle.
    ReleaseBundle {
        /// Member connection ids.
        members: Vec<u32>,
    },
    /// Book an advance reservation.
    Reserve {
        /// Booking tenant.
        customer: u32,
        /// A-end node.
        from: u32,
        /// Z-end node.
        to: u32,
        /// Booked rate in bits per second.
        rate_bps: u64,
        /// Window start (nanoseconds of sim time).
        start_ns: u64,
        /// Window end (nanoseconds of sim time).
        end_ns: u64,
    },
    /// Cancel a reservation before its window.
    CancelReservation {
        /// The reservation.
        reservation: u32,
    },
    /// Cap concurrent bookings on a node pair.
    SetBookingCapacity {
        /// One end.
        a: u32,
        /// Other end.
        b: u32,
        /// Capacity in bits per second.
        cap_bps: u64,
    },
    /// Install an OTN switch at a node.
    AddOtnSwitch {
        /// The node.
        node: u32,
        /// Fabric capacity in bits per second.
        fabric_bps: u64,
    },
    /// Provision a carrier-internal OTN trunk.
    ProvisionTrunk {
        /// One end.
        a: u32,
        /// Other end.
        b: u32,
        /// Line rate tag.
        rate: u8,
    },
    /// Sever a fiber (operator-injected fault).
    CutFiber {
        /// The fiber.
        fiber: u32,
        /// Span index along the fiber.
        span: u32,
    },
    /// Dispatch the repair crew for a cut fiber.
    ScheduleRepair {
        /// The fiber.
        fiber: u32,
        /// Repair duration in nanoseconds.
        after_ns: u64,
    },
    /// Fail a transponder (operator-injected fault).
    OtFailure {
        /// The transponder.
        ot: u32,
    },
    /// Bridge-and-roll a connection off the given fibers.
    BridgeRoll {
        /// The connection.
        conn: u32,
        /// Fibers to avoid.
        excluded: Vec<u32>,
    },
    /// Cold-reroute a connection off the given fibers.
    ColdReroute {
        /// The connection.
        conn: u32,
        /// Fibers to avoid.
        excluded: Vec<u32>,
    },
    /// Drain a fiber for planned maintenance.
    StartFiberMaintenance {
        /// The fiber.
        fiber: u32,
    },
    /// Return a fiber from maintenance to service.
    EndFiberMaintenance {
        /// The fiber.
        fiber: u32,
    },
    /// Drain every fiber of a node for planned maintenance.
    StartNodeMaintenance {
        /// The node.
        node: u32,
    },
    /// Re-groom one connection onto a shorter path.
    Regroom {
        /// The connection.
        conn: u32,
    },
    /// Re-groom every eligible connection.
    RegroomAll,
}

/// Encode a [`LineRate`] as a stable tag byte.
pub fn encode_rate(rate: LineRate) -> u8 {
    match rate {
        LineRate::Gbps10 => 0,
        LineRate::Gbps40 => 1,
        LineRate::Gbps100 => 2,
    }
}

/// Decode a [`LineRate`] tag byte.
pub fn decode_rate(tag: u8) -> Result<LineRate, CodecError> {
    match tag {
        0 => Ok(LineRate::Gbps10),
        1 => Ok(LineRate::Gbps40),
        2 => Ok(LineRate::Gbps100),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode a [`ClientSignal`] as a stable tag byte.
pub fn encode_signal(signal: ClientSignal) -> u8 {
    match signal {
        ClientSignal::GbE => 0,
        ClientSignal::TenGbE => 1,
        ClientSignal::FortyGbE => 2,
        ClientSignal::Oc48 => 3,
        ClientSignal::Oc192 => 4,
    }
}

/// Decode a [`ClientSignal`] tag byte.
pub fn decode_signal(tag: u8) -> Result<ClientSignal, CodecError> {
    match tag {
        0 => Ok(ClientSignal::GbE),
        1 => Ok(ClientSignal::TenGbE),
        2 => Ok(ClientSignal::FortyGbE),
        3 => Ok(ClientSignal::Oc48),
        4 => Ok(ClientSignal::Oc192),
        t => Err(CodecError::BadTag(t)),
    }
}

impl Intent {
    /// Stable variant tag.
    fn tag(&self) -> u8 {
        match self {
            Intent::RegisterTenant { .. } => 1,
            Intent::Wavelength { .. } => 2,
            Intent::ProtectedWavelength { .. } => 3,
            Intent::Subwavelength { .. } => 4,
            Intent::Bandwidth { .. } => 5,
            Intent::Teardown { .. } => 6,
            Intent::ReleaseBundle { .. } => 7,
            Intent::Reserve { .. } => 8,
            Intent::CancelReservation { .. } => 9,
            Intent::SetBookingCapacity { .. } => 10,
            Intent::AddOtnSwitch { .. } => 11,
            Intent::ProvisionTrunk { .. } => 12,
            Intent::CutFiber { .. } => 13,
            Intent::ScheduleRepair { .. } => 14,
            Intent::OtFailure { .. } => 15,
            Intent::BridgeRoll { .. } => 16,
            Intent::ColdReroute { .. } => 17,
            Intent::StartFiberMaintenance { .. } => 18,
            Intent::EndFiberMaintenance { .. } => 19,
            Intent::StartNodeMaintenance { .. } => 20,
            Intent::Regroom { .. } => 21,
            Intent::RegroomAll => 22,
        }
    }

    /// Short label for statistics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            Intent::RegisterTenant { .. } => "register_tenant",
            Intent::Wavelength { .. } => "wavelength",
            Intent::ProtectedWavelength { .. } => "protected_wavelength",
            Intent::Subwavelength { .. } => "subwavelength",
            Intent::Bandwidth { .. } => "bandwidth",
            Intent::Teardown { .. } => "teardown",
            Intent::ReleaseBundle { .. } => "release_bundle",
            Intent::Reserve { .. } => "reserve",
            Intent::CancelReservation { .. } => "cancel_reservation",
            Intent::SetBookingCapacity { .. } => "set_booking_capacity",
            Intent::AddOtnSwitch { .. } => "add_otn_switch",
            Intent::ProvisionTrunk { .. } => "provision_trunk",
            Intent::CutFiber { .. } => "cut_fiber",
            Intent::ScheduleRepair { .. } => "schedule_repair",
            Intent::OtFailure { .. } => "ot_failure",
            Intent::BridgeRoll { .. } => "bridge_roll",
            Intent::ColdReroute { .. } => "cold_reroute",
            Intent::StartFiberMaintenance { .. } => "start_fiber_maintenance",
            Intent::EndFiberMaintenance { .. } => "end_fiber_maintenance",
            Intent::StartNodeMaintenance { .. } => "start_node_maintenance",
            Intent::Regroom { .. } => "regroom",
            Intent::RegroomAll => "regroom_all",
        }
    }

    /// Append this intent's canonical encoding to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.u8(self.tag());
        match self {
            Intent::RegisterTenant {
                name,
                quota_bps,
                priority,
            } => {
                e.str(name).u64(*quota_bps).u8(*priority);
            }
            Intent::Wavelength {
                customer,
                from,
                to,
                rate,
            }
            | Intent::ProtectedWavelength {
                customer,
                from,
                to,
                rate,
            } => {
                e.u32(*customer).u32(*from).u32(*to).u8(*rate);
            }
            Intent::Subwavelength {
                customer,
                from,
                to,
                signal,
            } => {
                e.u32(*customer).u32(*from).u32(*to).u8(*signal);
            }
            Intent::Bandwidth {
                customer,
                from,
                to,
                target_bps,
            } => {
                e.u32(*customer).u32(*from).u32(*to).u64(*target_bps);
            }
            Intent::Teardown { conn } => {
                e.u32(*conn);
            }
            Intent::ReleaseBundle { members } => {
                e.u32(members.len() as u32);
                for m in members {
                    e.u32(*m);
                }
            }
            Intent::Reserve {
                customer,
                from,
                to,
                rate_bps,
                start_ns,
                end_ns,
            } => {
                e.u32(*customer)
                    .u32(*from)
                    .u32(*to)
                    .u64(*rate_bps)
                    .u64(*start_ns)
                    .u64(*end_ns);
            }
            Intent::CancelReservation { reservation } => {
                e.u32(*reservation);
            }
            Intent::SetBookingCapacity { a, b, cap_bps } => {
                e.u32(*a).u32(*b).u64(*cap_bps);
            }
            Intent::AddOtnSwitch { node, fabric_bps } => {
                e.u32(*node).u64(*fabric_bps);
            }
            Intent::ProvisionTrunk { a, b, rate } => {
                e.u32(*a).u32(*b).u8(*rate);
            }
            Intent::CutFiber { fiber, span } => {
                e.u32(*fiber).u32(*span);
            }
            Intent::ScheduleRepair { fiber, after_ns } => {
                e.u32(*fiber).u64(*after_ns);
            }
            Intent::OtFailure { ot } => {
                e.u32(*ot);
            }
            Intent::BridgeRoll { conn, excluded } | Intent::ColdReroute { conn, excluded } => {
                e.u32(*conn).u32(excluded.len() as u32);
                for f in excluded {
                    e.u32(*f);
                }
            }
            Intent::StartFiberMaintenance { fiber } | Intent::EndFiberMaintenance { fiber } => {
                e.u32(*fiber);
            }
            Intent::StartNodeMaintenance { node } => {
                e.u32(*node);
            }
            Intent::Regroom { conn } => {
                e.u32(*conn);
            }
            Intent::RegroomAll => {}
        }
    }

    /// Decode one intent from `d`.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Intent, CodecError> {
        let tag = d.u8()?;
        Ok(match tag {
            1 => Intent::RegisterTenant {
                name: d.str()?.to_string(),
                quota_bps: d.u64()?,
                priority: d.u8()?,
            },
            2 => Intent::Wavelength {
                customer: d.u32()?,
                from: d.u32()?,
                to: d.u32()?,
                rate: d.u8()?,
            },
            3 => Intent::ProtectedWavelength {
                customer: d.u32()?,
                from: d.u32()?,
                to: d.u32()?,
                rate: d.u8()?,
            },
            4 => Intent::Subwavelength {
                customer: d.u32()?,
                from: d.u32()?,
                to: d.u32()?,
                signal: d.u8()?,
            },
            5 => Intent::Bandwidth {
                customer: d.u32()?,
                from: d.u32()?,
                to: d.u32()?,
                target_bps: d.u64()?,
            },
            6 => Intent::Teardown { conn: d.u32()? },
            7 => {
                let n = d.u32()? as usize;
                let mut members = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    members.push(d.u32()?);
                }
                Intent::ReleaseBundle { members }
            }
            8 => Intent::Reserve {
                customer: d.u32()?,
                from: d.u32()?,
                to: d.u32()?,
                rate_bps: d.u64()?,
                start_ns: d.u64()?,
                end_ns: d.u64()?,
            },
            9 => Intent::CancelReservation {
                reservation: d.u32()?,
            },
            10 => Intent::SetBookingCapacity {
                a: d.u32()?,
                b: d.u32()?,
                cap_bps: d.u64()?,
            },
            11 => Intent::AddOtnSwitch {
                node: d.u32()?,
                fabric_bps: d.u64()?,
            },
            12 => Intent::ProvisionTrunk {
                a: d.u32()?,
                b: d.u32()?,
                rate: d.u8()?,
            },
            13 => Intent::CutFiber {
                fiber: d.u32()?,
                span: d.u32()?,
            },
            14 => Intent::ScheduleRepair {
                fiber: d.u32()?,
                after_ns: d.u64()?,
            },
            15 => Intent::OtFailure { ot: d.u32()? },
            16 | 17 => {
                let conn = d.u32()?;
                let n = d.u32()? as usize;
                let mut excluded = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    excluded.push(d.u32()?);
                }
                if tag == 16 {
                    Intent::BridgeRoll { conn, excluded }
                } else {
                    Intent::ColdReroute { conn, excluded }
                }
            }
            18 => Intent::StartFiberMaintenance { fiber: d.u32()? },
            19 => Intent::EndFiberMaintenance { fiber: d.u32()? },
            20 => Intent::StartNodeMaintenance { node: d.u32()? },
            21 => Intent::Regroom { conn: d.u32()? },
            22 => Intent::RegroomAll,
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic record sequence number (0-based).
    pub seq: u64,
    /// Sim time the intent was accepted at.
    pub at: SimTime,
    /// The intent itself.
    pub intent: Intent,
}

/// Why the log could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A segment header was missing, had the wrong magic, or an
    /// unsupported version.
    BadHeader {
        /// Segment index.
        segment: usize,
        /// What was wrong.
        detail: String,
    },
    /// A complete frame failed its checksum — acknowledged data is gone.
    Corrupt {
        /// Segment index.
        segment: usize,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A non-final segment ended mid-frame. Torn tails are only legal in
    /// the last segment (the one being appended at the crash).
    TornMidLog {
        /// Segment index.
        segment: usize,
    },
    /// A frame verified but its payload would not decode.
    BadRecord {
        /// Segment index.
        segment: usize,
        /// Codec-level cause.
        source: CodecError,
    },
    /// Record sequence numbers were not contiguous.
    BadSequence {
        /// Expected sequence number.
        expected: u64,
        /// Found sequence number.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadHeader { segment, detail } => {
                write!(f, "segment {segment}: bad header ({detail})")
            }
            WalError::Corrupt {
                segment,
                stored,
                computed,
            } => write!(
                f,
                "segment {segment}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            WalError::TornMidLog { segment } => {
                write!(f, "segment {segment}: torn frame before the final segment")
            }
            WalError::BadRecord { segment, source } => {
                write!(f, "segment {segment}: undecodable record ({source})")
            }
            WalError::BadSequence { expected, found } => {
                write!(f, "record sequence gap: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// What [`Wal::decode`] salvaged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Intact records decoded.
    pub records: u64,
    /// Trailing bytes discarded as a torn tail (0 on a clean log).
    pub torn_bytes: usize,
    /// Whether a torn (never-committed) record was rolled back.
    pub rolled_back_tail: bool,
    /// Segments examined.
    pub segments: usize,
}

/// Summary of one committed group batch (see [`Wal::commit_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCommit {
    /// Sequence number of the batch's first record.
    pub first_seq: u64,
    /// Records flushed by this commit.
    pub records: u64,
    /// Framed bytes appended to the log by this commit.
    pub bytes: usize,
    /// CRC-32C over the entire appended byte run — the group-commit
    /// integrity check covering every frame of the batch at once.
    pub crc: u32,
}

/// A pending group-commit batch: records accepted (sequence numbers
/// assigned) but not yet flushed into segments.
#[derive(Debug, Clone, Default)]
struct BatchState {
    first_seq: u64,
    pending: Vec<(u64, SimTime, Intent)>,
}

/// The segmented write-ahead log (see module docs).
#[derive(Debug, Clone)]
pub struct Wal {
    cfg: WalConfig,
    segments: Vec<Vec<u8>>,
    next_seq: u64,
    /// Reusable record-encoding scratch: the steady-state append path
    /// allocates nothing (record bytes are built here, then framed
    /// straight into the live segment).
    scratch: Encoder,
    /// Open group-commit batch, if any (None = every append flushes
    /// immediately).
    batch: Option<BatchState>,
    /// Nesting depth of `begin_batch`; only the outermost commit
    /// flushes.
    batch_nesting: u32,
}

impl Wal {
    /// An empty log.
    pub fn new(cfg: WalConfig) -> Wal {
        Wal {
            cfg,
            segments: Vec::new(),
            next_seq: 0,
            scratch: Encoder::new(),
            batch: None,
            batch_nesting: 0,
        }
    }

    /// Rebuild a log by re-appending `records` (recovery reinstalls the
    /// surviving history this way, so a recovered controller keeps
    /// journaling from where the log left off).
    pub fn from_records(cfg: WalConfig, records: &[WalRecord]) -> Wal {
        let mut wal = Wal::new(cfg);
        for r in records {
            let seq = wal.append(r.at, &r.intent);
            debug_assert_eq!(seq, r.seq, "rebuilt log must preserve sequence numbers");
        }
        wal
    }

    /// Records appended so far (== next sequence number).
    pub fn records(&self) -> u64 {
        self.next_seq
    }

    /// The raw segment buffers.
    pub fn segments(&self) -> &[Vec<u8>] {
        &self.segments
    }

    /// Consume the log, yielding its segment buffers — an ownership
    /// handoff for harnesses that outlive the controller, replacing the
    /// old `segments().to_vec()` copy.
    pub fn into_segments(self) -> Vec<Vec<u8>> {
        self.segments
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Append `intent` accepted at sim time `at`. Returns its sequence
    /// number.
    ///
    /// Steady state performs **zero heap allocations**: the record is
    /// encoded into a reusable scratch buffer and framed straight into
    /// the live segment ([`simcore::codec::frame_into`]). Inside an open
    /// batch ([`Wal::begin_batch`]) the record is accepted (its sequence
    /// number assigned) but flushed only at [`Wal::commit_batch`].
    pub fn append(&mut self, at: SimTime, intent: &Intent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(b) = self.batch.as_mut() {
            b.pending.push((seq, at, intent.clone()));
            return seq;
        }
        self.write_record(seq, at, intent);
        seq
    }

    /// Open a group-commit batch: subsequent appends are accepted but
    /// buffered, to be flushed as one contiguous byte run by
    /// [`Wal::commit_batch`]. Nested begin/commit pairs are collapsed
    /// into the outermost batch.
    pub fn begin_batch(&mut self) {
        self.batch_nesting += 1;
        if self.batch.is_none() {
            self.batch = Some(BatchState {
                first_seq: self.next_seq,
                pending: Vec::new(),
            });
        }
    }

    /// Flush the open batch: every buffered record is encoded and framed
    /// exactly as the one-record-per-append path would have (the segment
    /// bytes are **byte-identical** to a sequence of single appends —
    /// proven by `batch_commit_bytes_equal_single_appends`), appended in
    /// one pass, and covered by a single batch CRC over the whole
    /// appended run. Returns `None` while nested or with no batch open.
    pub fn commit_batch(&mut self) -> Option<BatchCommit> {
        if self.batch_nesting > 0 {
            self.batch_nesting -= 1;
        }
        if self.batch_nesting > 0 {
            return None;
        }
        let b = self.batch.take()?;
        let mut crc = Crc32c::new();
        let mut bytes = 0usize;
        let records = b.pending.len() as u64;
        for (seq, at, intent) in &b.pending {
            let (seg_idx, start) = self.write_record(*seq, *at, intent);
            let run = &self.segments[seg_idx][start..];
            crc.update(run);
            bytes += run.len();
        }
        Some(BatchCommit {
            first_seq: b.first_seq,
            records,
            bytes,
            crc: crc.finish(),
        })
    }

    /// Records accepted into a batch but not yet flushed.
    pub fn batch_pending(&self) -> u64 {
        self.batch.as_ref().map_or(0, |b| b.pending.len() as u64)
    }

    /// Encode, frame, and write one record into the live segment (shared
    /// by the immediate append path and the batch flush). Returns the
    /// segment index and the byte offset the record's frame begins at.
    fn write_record(&mut self, seq: u64, at: SimTime, intent: &Intent) -> (usize, usize) {
        self.scratch.clear();
        self.scratch.u64(seq).u64(at.as_nanos());
        intent.encode(&mut self.scratch);
        let rec_len = 8 + self.scratch.len();
        let need_new = match self.segments.last() {
            None => true,
            Some(seg) => {
                // Seal once a record is present and the next would
                // overflow; a single oversized record still gets a
                // segment to itself.
                seg.len() > Self::header_len() && seg.len() + rec_len > self.cfg.segment_bytes
            }
        };
        if need_new {
            self.push_segment(seq);
        }
        let idx = self.segments.len() - 1;
        let seg = &mut self.segments[idx];
        let start = seg.len();
        frame_into(self.scratch.as_slice(), seg);
        (idx, start)
    }

    /// Start a fresh segment whose header names `first_seq`. The header
    /// is built on the stack — no encoder allocation.
    fn push_segment(&mut self, first_seq: u64) {
        let mut seg = Vec::with_capacity(self.cfg.segment_bytes.min(64 * 1024));
        let mut h = [0u8; 24];
        h[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
        h[8..16].copy_from_slice(&(self.segments.len() as u64).to_le_bytes());
        h[16..24].copy_from_slice(&first_seq.to_le_bytes());
        frame_into(&h, &mut seg);
        self.segments.push(seg);
    }

    /// Byte length of an encoded segment header frame.
    fn header_len() -> usize {
        8 + 4 + 4 + 8 + 8
    }

    /// Borrowed view of the raw segments truncated to `bytes` total — the
    /// crash-fuzz primitive: "the process died after flushing exactly
    /// this many bytes". No segment bytes are copied.
    pub fn truncated_view(&self, bytes: usize) -> Vec<&[u8]> {
        Self::truncate_segments(&self.segments, bytes)
    }

    /// [`Wal::truncated_view`] over raw segments owned elsewhere.
    pub fn truncate_segments<S: AsRef<[u8]>>(segments: &[S], bytes: usize) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut budget = bytes;
        for seg in segments {
            let seg = seg.as_ref();
            if budget == 0 {
                break;
            }
            let take = seg.len().min(budget);
            out.push(&seg[..take]);
            budget -= take;
        }
        out
    }

    /// Decode raw segments into records, tolerating a torn tail in the
    /// final segment and refusing anything else (see module docs).
    /// Accepts any slice-of-byte-slices (`&[Vec<u8>]`, `&[&[u8]]`, …) so
    /// crash harnesses can hand in borrowed truncation views.
    pub fn decode<S: AsRef<[u8]>>(
        segments: &[S],
    ) -> Result<(Vec<WalRecord>, OpenReport), WalError> {
        let total = segments.len();
        Self::merge_segments(
            segments
                .iter()
                .enumerate()
                .map(|(i, seg)| Self::decode_segment(i, seg.as_ref())),
            total,
        )
    }

    /// [`Wal::decode`] with segment decode + CRC verification fanned out
    /// across `threads` worker threads (deterministic round-robin
    /// sharding; the merge — header/torn classification, sequence
    /// contiguity — stays sequential, so the result is identical to the
    /// sequential oracle at every input, including every error case).
    pub fn decode_parallel<S: AsRef<[u8]> + Sync>(
        segments: &[S],
        threads: usize,
    ) -> Result<(Vec<WalRecord>, OpenReport), WalError> {
        let total = segments.len();
        let threads = threads.max(1).min(total.max(1));
        if threads <= 1 || total <= 1 {
            return Self::decode(segments);
        }
        let mut slots: Vec<Option<SegmentDecode>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        // Round-robin shards: worker w owns segments w, w+threads, …
        let mut work: Vec<Vec<(&mut Option<SegmentDecode>, usize)>> = Vec::new();
        work.resize_with(threads, Vec::new);
        for (i, slot) in slots.iter_mut().enumerate() {
            work[i % threads].push((slot, i));
        }
        std::thread::scope(|s| {
            for lot in work {
                s.spawn(|| {
                    for (slot, i) in lot {
                        *slot = Some(Self::decode_segment(i, segments[i].as_ref()));
                    }
                });
            }
        });
        Self::merge_segments(
            slots.into_iter().map(|r| r.expect("worker filled slot")),
            total,
        )
    }

    /// Decode one segment in isolation: header check, frame CRCs, record
    /// decode. Cross-segment concerns (is a torn tail legal here?
    /// sequence contiguity) are deferred to [`Wal::merge_segments`].
    fn decode_segment(i: usize, seg: &[u8]) -> SegmentDecode {
        let mut out = SegmentDecode {
            index: i,
            records: Vec::new(),
            torn_bytes: 0,
            err: None,
        };
        let mut pos = 0;
        // Header frame.
        match read_frame(seg, &mut pos) {
            Some(Frame::Ok(hdr)) => {
                let mut d = Decoder::new(hdr);
                let parse = (|| -> Result<(u32, u32, u64), CodecError> {
                    let magic = d.u32()?;
                    let version = d.u32()?;
                    let index = d.u64()?;
                    let _first_seq = d.u64()?;
                    Ok((magic, version, index))
                })();
                match parse {
                    Ok((magic, version, index)) => {
                        if magic != WAL_MAGIC {
                            out.err = Some(WalError::BadHeader {
                                segment: i,
                                detail: format!("magic {magic:#010x}"),
                            });
                            return out;
                        }
                        if version != WAL_VERSION {
                            out.err = Some(WalError::BadHeader {
                                segment: i,
                                detail: format!("version {version}"),
                            });
                            return out;
                        }
                        if index != i as u64 {
                            out.err = Some(WalError::BadHeader {
                                segment: i,
                                detail: format!("index {index}, expected {i}"),
                            });
                            return out;
                        }
                    }
                    Err(e) => {
                        out.err = Some(WalError::BadHeader {
                            segment: i,
                            detail: e.to_string(),
                        });
                        return out;
                    }
                }
            }
            Some(Frame::Torn { bytes }) => {
                // The crash tore the segment open itself; whether that is
                // a clean rollback or mid-log corruption depends on
                // whether this is the final segment — merge decides.
                out.torn_bytes = bytes;
                return out;
            }
            Some(Frame::Corrupt { stored, computed }) => {
                out.err = Some(WalError::Corrupt {
                    segment: i,
                    stored,
                    computed,
                });
                return out;
            }
            None => {
                out.err = Some(WalError::BadHeader {
                    segment: i,
                    detail: "empty segment".into(),
                });
                return out;
            }
        }
        // Record frames.
        loop {
            match read_frame(seg, &mut pos) {
                None => break,
                Some(Frame::Ok(payload)) => {
                    let mut d = Decoder::new(payload);
                    let rec = (|| -> Result<WalRecord, CodecError> {
                        let seq = d.u64()?;
                        let at = SimTime::from_nanos(d.u64()?);
                        let intent = Intent::decode(&mut d)?;
                        Ok(WalRecord { seq, at, intent })
                    })();
                    match rec {
                        Ok(rec) => out.records.push(rec),
                        Err(source) => {
                            out.err = Some(WalError::BadRecord { segment: i, source });
                            return out;
                        }
                    }
                }
                Some(Frame::Torn { bytes }) => {
                    out.torn_bytes = bytes;
                    break;
                }
                Some(Frame::Corrupt { stored, computed }) => {
                    out.err = Some(WalError::Corrupt {
                        segment: i,
                        stored,
                        computed,
                    });
                    return out;
                }
            }
        }
        out
    }

    /// Stitch per-segment decodes back into one history, in segment
    /// order: validate sequence contiguity (records precede any
    /// positional error inside their segment, matching the sequential
    /// scan's error ordering), classify torn tails (legal only in the
    /// final segment), and surface the first error.
    fn merge_segments(
        segs: impl Iterator<Item = SegmentDecode>,
        total: usize,
    ) -> Result<(Vec<WalRecord>, OpenReport), WalError> {
        let mut records = Vec::new();
        let mut report = OpenReport {
            segments: total,
            ..OpenReport::default()
        };
        for sd in segs {
            let last = sd.index + 1 == total;
            for rec in sd.records {
                let expected = records.len() as u64;
                if rec.seq != expected {
                    return Err(WalError::BadSequence {
                        expected,
                        found: rec.seq,
                    });
                }
                records.push(rec);
            }
            if let Some(e) = sd.err {
                return Err(e);
            }
            if sd.torn_bytes > 0 {
                if last {
                    report.torn_bytes += sd.torn_bytes;
                    report.rolled_back_tail = true;
                } else {
                    return Err(WalError::TornMidLog { segment: sd.index });
                }
            }
        }
        report.records = records.len() as u64;
        Ok((records, report))
    }
}

/// One segment's isolated decode (see [`Wal::decode_segment`]).
struct SegmentDecode {
    index: usize,
    records: Vec<WalRecord>,
    /// Trailing bytes of an incomplete frame (0 = segment ended cleanly).
    torn_bytes: usize,
    /// Positional error (bad header, corrupt frame, undecodable record).
    err: Option<WalError>,
}

/// Worker-thread count for parallel WAL decode: the `REPRO_THREADS` env
/// override (for reproducible CI timings), else available parallelism.
pub fn decode_threads() -> usize {
    std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_intents() -> Vec<Intent> {
        vec![
            Intent::RegisterTenant {
                name: "acme".into(),
                quota_bps: 100_000_000_000,
                priority: 100,
            },
            Intent::Wavelength {
                customer: 0,
                from: 0,
                to: 3,
                rate: 0,
            },
            Intent::Bandwidth {
                customer: 0,
                from: 0,
                to: 3,
                target_bps: 12_000_000_000,
            },
            Intent::Reserve {
                customer: 0,
                from: 1,
                to: 2,
                rate_bps: 12_000_000_000,
                start_ns: 7_200_000_000_000,
                end_ns: 14_400_000_000_000,
            },
            Intent::ReleaseBundle {
                members: vec![1, 2, 3],
            },
            Intent::BridgeRoll {
                conn: 4,
                excluded: vec![0, 5],
            },
            Intent::CutFiber { fiber: 2, span: 1 },
            Intent::RegroomAll,
        ]
    }

    #[test]
    fn intent_roundtrip_every_variant() {
        for intent in sample_intents() {
            let mut e = Encoder::new();
            intent.encode(&mut e);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            assert_eq!(Intent::decode(&mut d).unwrap(), intent);
            assert!(d.is_done(), "{intent:?} left bytes behind");
        }
    }

    #[test]
    fn wal_roundtrip_and_segmentation() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 128 });
        let intents = sample_intents();
        for (i, intent) in intents.iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        assert!(
            wal.segments().len() > 1,
            "128-byte segments must roll over, got {}",
            wal.segments().len()
        );
        let (records, report) = Wal::decode(wal.segments()).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(records.len(), intents.len());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.at, SimTime::from_secs(i as u64));
            assert_eq!(rec.intent, intents[i]);
        }
    }

    #[test]
    fn torn_tail_at_every_byte_rolls_back_cleanly() {
        let mut wal = Wal::new(WalConfig::default());
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        let total = wal.total_bytes();
        for cut in 0..=total {
            let segs = wal.truncated_view(cut);
            let (records, report) =
                Wal::decode(&segs).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert!(records.len() <= sample_intents().len());
            if cut == total {
                assert_eq!(report.torn_bytes, 0);
            }
            // A decoded prefix is always a true prefix of the full log.
            let (full, _) = Wal::decode(wal.segments()).unwrap();
            assert_eq!(records[..], full[..records.len()]);
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_rollback() {
        let mut wal = Wal::new(WalConfig::default());
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        // Flip one payload byte in the middle of the (only) segment.
        let mut segs: Vec<Vec<u8>> = wal.segments().to_vec();
        let mid = segs[0].len() / 2;
        segs[0][mid] ^= 0x40;
        match Wal::decode(&segs) {
            Err(WalError::Corrupt { .. }) | Err(WalError::BadRecord { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_in_non_final_segment_is_an_error() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 96 });
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        assert!(wal.segments().len() >= 2);
        let mut segs: Vec<Vec<u8>> = wal.segments().to_vec();
        let cut = segs[0].len() - 3;
        segs[0].truncate(cut);
        assert_eq!(Wal::decode(&segs), Err(WalError::TornMidLog { segment: 0 }));
    }

    #[test]
    fn rebuilt_log_is_byte_identical() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 256 });
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        let (records, _) = Wal::decode(wal.segments()).unwrap();
        let rebuilt = Wal::from_records(WalConfig { segment_bytes: 256 }, &records);
        assert_eq!(rebuilt.segments(), wal.segments());
        assert_eq!(rebuilt.records(), wal.records());
    }

    #[test]
    fn batch_commit_bytes_equal_single_appends() {
        let intents = sample_intents();
        let mut single = Wal::new(WalConfig { segment_bytes: 128 });
        for (i, intent) in intents.iter().enumerate() {
            single.append(SimTime::from_secs(i as u64), intent);
        }
        let mut batched = Wal::new(WalConfig { segment_bytes: 128 });
        batched.begin_batch();
        for (i, intent) in intents.iter().enumerate() {
            let seq = batched.append(SimTime::from_secs(i as u64), intent);
            assert_eq!(seq, i as u64, "seq assigned eagerly inside a batch");
        }
        assert_eq!(batched.batch_pending(), intents.len() as u64);
        assert!(
            batched.segments().is_empty(),
            "nothing flushed until commit"
        );
        let commit = batched.commit_batch().expect("outermost commit flushes");
        assert_eq!(commit.first_seq, 0);
        assert_eq!(commit.records, intents.len() as u64);
        assert_eq!(batched.segments(), single.segments());
        // The batch CRC covers exactly the appended record frames.
        let run: Vec<u8> = single
            .segments()
            .iter()
            .flat_map(|s| s[Wal::header_len()..].to_vec())
            .collect();
        assert_eq!(commit.bytes, run.len());
        assert_eq!(commit.crc, simcore::crc32c(&run));
    }

    #[test]
    fn nested_batches_collapse_into_outermost() {
        let intents = sample_intents();
        let mut wal = Wal::new(WalConfig::default());
        wal.begin_batch();
        wal.append(SimTime::ZERO, &intents[0]);
        wal.begin_batch();
        wal.append(SimTime::from_secs(1), &intents[1]);
        assert!(wal.commit_batch().is_none(), "inner commit defers");
        assert!(wal.segments().is_empty());
        let commit = wal.commit_batch().expect("outer commit flushes");
        assert_eq!(commit.records, 2);
        let (records, _) = Wal::decode(wal.segments()).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn parallel_decode_matches_sequential_everywhere() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 96 });
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        assert!(wal.segments().len() >= 3, "want several segments");
        let total = wal.total_bytes();
        // Every crash offset, both intact and truncated logs, every
        // thread count: parallel decode must agree exactly.
        for threads in [1, 2, 3, 8] {
            for cut in 0..=total {
                let segs = wal.truncated_view(cut);
                let seq = Wal::decode(&segs);
                let par = Wal::decode_parallel(&segs, threads);
                assert_eq!(seq, par, "cut={cut} threads={threads}");
            }
        }
        // Error cases must match too: corruption and mid-log tears.
        let mut corrupt: Vec<Vec<u8>> = wal.segments().to_vec();
        let mid = corrupt[1].len() / 2;
        corrupt[1][mid] ^= 0x40;
        assert_eq!(Wal::decode(&corrupt), Wal::decode_parallel(&corrupt, 4));
        let mut torn: Vec<Vec<u8>> = wal.segments().to_vec();
        let cut = torn[0].len() - 3;
        torn[0].truncate(cut);
        assert_eq!(Wal::decode(&torn), Wal::decode_parallel(&torn, 4));
        assert_eq!(
            Wal::decode_parallel(&torn, 4),
            Err(WalError::TornMidLog { segment: 0 })
        );
    }

    #[test]
    fn decode_accepts_borrowed_slices() {
        let mut wal = Wal::new(WalConfig::default());
        for (i, intent) in sample_intents().iter().enumerate() {
            wal.append(SimTime::from_secs(i as u64), intent);
        }
        let views: Vec<&[u8]> = wal.segments().iter().map(|s| s.as_slice()).collect();
        let (a, _) = Wal::decode(&views).unwrap();
        let (b, _) = Wal::decode(wal.segments()).unwrap();
        assert_eq!(a, b);
    }

    mod batch_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Group commit with arbitrary batch boundaries produces the
            /// same WAL bytes as one-append-per-record.
            #[test]
            fn batching_never_changes_bytes(
                boundaries in prop::collection::vec(any::<bool>(), 8..9),
                segment_bytes in 64usize..512,
            ) {
                let intents = sample_intents();
                let mut single = Wal::new(WalConfig { segment_bytes });
                for (i, intent) in intents.iter().enumerate() {
                    single.append(SimTime::from_secs(i as u64), intent);
                }
                let mut batched = Wal::new(WalConfig { segment_bytes });
                let mut open = false;
                for (i, intent) in intents.iter().enumerate() {
                    // A `true` boundary closes any open batch and opens a
                    // new one; records before the first boundary go down
                    // the immediate path.
                    if boundaries[i] {
                        if open {
                            batched.commit_batch();
                        }
                        batched.begin_batch();
                        open = true;
                    }
                    batched.append(SimTime::from_secs(i as u64), intent);
                }
                if open {
                    batched.commit_batch();
                }
                prop_assert_eq!(batched.segments(), single.segments());
                prop_assert_eq!(batched.records(), single.records());
            }
        }
    }
}
