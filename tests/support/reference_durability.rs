//! Durability oracles rebuilt from the documented formats, sharing no
//! code with the fast paths they check (DESIGN.md §12):
//!
//! - [`crc32c`] — CRC-32C one byte per step, over its own 256-entry
//!   table generated here from the reflected Castagnoli polynomial;
//! - [`wal_segments`] — the segments a `Wal` must hold after a run of
//!   appends, built from the public pieces (`Encoder`, `Intent::encode`,
//!   `WAL_MAGIC`/`WAL_VERSION`) the way the log was first written: a
//!   fresh encoder per record, an intermediate framed `Vec`, and the
//!   byte-loop CRC.
//!
//! Both are also the baselines of `tests/speed_floors.rs`. Test-only:
//! nothing outside `tests/` includes this file.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::OnceLock;

use griphon::durability::wal::{WAL_MAGIC, WAL_VERSION};
use griphon::durability::Intent;
use simcore::{Encoder, SimTime};

/// CRC-32C (Castagnoli) polynomial 0x1EDC6F41, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// The byte-at-a-time lookup table: entry `i` is byte `i` shifted
/// through eight rounds of the reflected polynomial.
fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// CRC-32C of `data`, one byte per step.
pub fn crc32c(data: &[u8]) -> u32 {
    let table = table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `[len u32][crc32c u32][payload]`, little endian, in a fresh `Vec`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32c(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// A framed segment header: 8 bytes of frame around
/// `[magic u32][version u32][segment-index u64][first-seq u64]`.
const HEADER_FRAME_BYTES: usize = 8 + 24;

/// The segments of a fresh `Wal` with `segment_bytes` after appending
/// `records` in order, record `i` getting sequence number `i`: each
/// record is `[seq u64][at-nanos u64][intent]`, framed, and a segment is
/// sealed once it holds a record and the next would take it past
/// `segment_bytes` (an oversized record still gets a segment of its
/// own).
pub fn wal_segments(segment_bytes: usize, records: &[(SimTime, Intent)]) -> Vec<Vec<u8>> {
    let mut segments: Vec<Vec<u8>> = Vec::new();
    for (seq, (at, intent)) in records.iter().enumerate() {
        let seq = seq as u64;
        let mut e = Encoder::new();
        e.u64(seq).u64(at.as_nanos());
        intent.encode(&mut e);
        let rec = frame(&e.finish());
        let sealed = segments.last().is_none_or(|seg| {
            seg.len() > HEADER_FRAME_BYTES && seg.len() + rec.len() > segment_bytes
        });
        if sealed {
            let mut header = Vec::with_capacity(24);
            header.extend_from_slice(&WAL_MAGIC.to_le_bytes());
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            header.extend_from_slice(&(segments.len() as u64).to_le_bytes());
            header.extend_from_slice(&seq.to_le_bytes());
            let mut seg = Vec::with_capacity(segment_bytes.min(64 * 1024));
            seg.extend_from_slice(&frame(&header));
            segments.push(seg);
        }
        segments
            .last_mut()
            .expect("a segment is open")
            .extend_from_slice(&rec);
    }
    segments
}
