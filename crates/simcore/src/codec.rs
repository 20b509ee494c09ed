//! A small checksummed binary codec: the wire format for the durability
//! subsystem's write-ahead log and snapshot metadata.
//!
//! Design goals, in order:
//!
//! 1. **Deterministic** — encoding a value twice yields identical bytes;
//!    the byte stream is a pure function of the encoded values (little
//!    endian, fixed-width integers, length-prefixed strings). No
//!    alignment, no varints, no host-dependent layout.
//! 2. **Self-verifying** — the frame layer wraps every payload in
//!    `[len u32][crc32c u32][payload]`, so a reader can tell a cleanly
//!    written record from a **torn tail** (the process died mid-write:
//!    truncated length/payload) and from **corruption** (full-length
//!    record whose checksum fails). Recovery treats the two very
//!    differently: torn tails are rolled back, corruption is an error.
//! 3. **Dependency-free** — like [`crate::rng`], the format is pinned by
//!    this crate's own code so it can never shift under an upgrade.
//!
//! The checksum is CRC-32C (Castagnoli) — the same polynomial real
//! storage stacks (ext4, iSCSI, RocksDB) use for record framing. The
//! production [`crc32c`] runs a slice-by-32 table kernel (32 bytes per
//! iteration — the 32 lookups in a block are independent, so the CPU
//! overlaps them instead of serializing on the per-byte CRC dependency
//! chain; ~an order of magnitude faster than a byte loop). The workspace
//! tests hold it to an independent byte-at-a-time oracle with its own
//! table.

/// Number of slice tables: the fast kernel consumes this many bytes per
/// iteration.
const CRC_SLICES: usize = 32;

/// Slice-by-32 CRC-32C tables, generated at first use. `TABLES[0]` is
/// the classic byte-at-a-time table; `TABLES[k]` advances a byte that
/// sits `k` positions ahead of the end of the 32-byte block.
fn crc32c_tables() -> &'static [[u32; 256]; CRC_SLICES] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; CRC_SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        const POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41
        let mut tables = [[0u32; 256]; CRC_SLICES];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < CRC_SLICES {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    })
}

/// Advance a raw (pre-inversion) CRC-32C state over `data` with the
/// slice-by-32 kernel. The state convention matches the classic loop:
/// start from `!0`, finish with `!state`.
fn crc32c_advance(mut crc: u32, data: &[u8]) -> u32 {
    let t = crc32c_tables();
    let mut chunks = data.chunks_exact(CRC_SLICES);
    for d in &mut chunks {
        // Four wide little-endian loads; the compiler turns the
        // `try_into` on a fixed-size chunk into a plain unaligned read,
        // and fully unrolls the lookup loop below.
        let a = u64::from_le_bytes(d[0..8].try_into().expect("8-byte chunk")) ^ crc as u64;
        let b = u64::from_le_bytes(d[8..16].try_into().expect("8-byte chunk"));
        let c = u64::from_le_bytes(d[16..24].try_into().expect("8-byte chunk"));
        let e = u64::from_le_bytes(d[24..32].try_into().expect("8-byte chunk"));
        let mut x = 0u32;
        for i in 0..8 {
            x ^= t[31 - i][((a >> (8 * i)) & 0xFF) as usize]
                ^ t[23 - i][((b >> (8 * i)) & 0xFF) as usize]
                ^ t[15 - i][((c >> (8 * i)) & 0xFF) as usize]
                ^ t[7 - i][((e >> (8 * i)) & 0xFF) as usize];
        }
        crc = x;
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32C checksum of `data` (slice-by-32 fast path).
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_advance(!0u32, data)
}

/// Incremental CRC-32C: feed bytes in arbitrary chunks, then [`finish`].
/// Chunk boundaries never change the result —
/// `Crc32c::new().update(a).update(b).finish() == crc32c(a ++ b)`.
///
/// [`finish`]: Crc32c::finish
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Fresh hasher (equivalent to having consumed zero bytes).
    pub fn new() -> Crc32c {
        Crc32c { state: !0u32 }
    }

    /// Consume `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.state = crc32c_advance(self.state, data);
        self
    }

    /// The checksum of everything consumed so far (the hasher remains
    /// usable; `finish` does not reset it).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

/// A [`std::fmt::Write`] sink that feeds formatted text straight into an
/// incremental [`Crc32c`] — a digest of a canonical rendering without
/// ever materialising the `String`.
#[derive(Debug, Default)]
pub struct CrcWriter {
    crc: Crc32c,
    bytes: u64,
}

impl CrcWriter {
    /// Fresh writer.
    pub fn new() -> CrcWriter {
        CrcWriter::default()
    }

    /// CRC-32C of every byte written so far.
    pub fn finish(&self) -> u32 {
        self.crc.finish()
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Write for CrcWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.crc.update(s.as_bytes());
        self.bytes += s.len() as u64;
        Ok(())
    }
}

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length-prefixed string held invalid UTF-8.
    BadUtf8,
    /// A tag byte had no corresponding variant.
    BadTag(u8),
    /// A declared length was implausibly large for the buffer.
    BadLength(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remain")
            }
            CodecError::BadUtf8 => write!(f, "length-prefixed string is not UTF-8"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink with fixed-width little-endian writers.
///
/// Cloneable and resettable: hot paths keep one encoder alive as a
/// scratch buffer ([`Encoder::clear`] + [`Encoder::as_slice`]) so
/// steady-state encoding performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Reset to empty, keeping the allocated capacity — the scratch-reuse
    /// primitive behind the zero-allocation append path.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, without consuming the encoder.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a length-prefixed (`u32`) byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor over a byte slice with fixed-width little-endian readers.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if the cursor reached the end.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > self.buf.len() {
            return Err(CodecError::BadLength(len as u64));
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }
}

/// What [`read_frame`] found at the cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete, checksum-verified payload.
    Ok(&'a [u8]),
    /// The buffer ended mid-frame: the writer died partway through an
    /// append. Everything before this point is intact; the torn bytes
    /// are safe to discard (the write never "committed").
    Torn {
        /// How many trailing bytes belong to the torn frame.
        bytes: usize,
    },
    /// A full-length frame whose checksum failed: the log was damaged
    /// *after* being written. Unlike a torn tail this cannot be rolled
    /// back silently — data that was acknowledged is gone.
    Corrupt {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

/// Append `payload` framed as `[len u32][crc32c u32][payload]` to `out`
/// — the zero-copy variant of [`frame`]: no intermediate `Vec`, bytes go
/// straight into the caller's buffer.
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Wrap `payload` as `[len u32][crc32c u32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    frame_into(payload, &mut out);
    out
}

/// Read one frame starting at `buf[*pos]`, advancing `pos` past it on
/// success. Returns `None` at a clean end of buffer.
pub fn read_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Option<Frame<'a>> {
    let remaining = buf.len() - *pos;
    if remaining == 0 {
        return None;
    }
    if remaining < 8 {
        return Some(Frame::Torn { bytes: remaining });
    }
    let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(buf[*pos + 4..*pos + 8].try_into().expect("4 bytes"));
    if remaining - 8 < len {
        return Some(Frame::Torn { bytes: remaining });
    }
    let payload = &buf[*pos + 8..*pos + 8 + len];
    let computed = crc32c(payload);
    if computed != stored {
        return Some(Frame::Corrupt { stored, computed });
    }
    *pos += 8 + len;
    Some(Frame::Ok(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 §B.4 test vectors.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_long_vectors() {
        // Pinned >64 KiB vectors: thousands of slice-by-32 blocks plus a
        // remainder, so a table-generation regression cannot slip by.
        let zeros = vec![0u8; 64 * 1024 + 3];
        assert_eq!(crc32c(&zeros), 0x1D0A_F0A0);
        let ones = vec![0xFFu8; 100_000];
        assert_eq!(crc32c(&ones), 0x2F0B_8293);
    }

    /// A deterministic pseudo-random buffer (splitmix-ish byte stream).
    fn long_buffer(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_incremental_is_boundary_blind() {
        let buf = long_buffer(4096);
        let whole = crc32c(&buf);
        for split in [0, 1, 7, 15, 16, 17, 1024, 4095, 4096] {
            let mut h = Crc32c::new();
            h.update(&buf[..split]).update(&buf[split..]);
            assert_eq!(h.finish(), whole, "split={split}");
        }
    }

    #[test]
    fn crc_writer_digests_formatted_text() {
        use std::fmt::Write;
        let mut w = CrcWriter::new();
        write!(w, "now={} rng={:?}", 42, [1u64, 2]).unwrap();
        let mut s = String::new();
        write!(s, "now={} rng={:?}", 42, [1u64, 2]).unwrap();
        assert_eq!(w.finish(), crc32c(s.as_bytes()));
        assert_eq!(w.bytes(), s.len() as u64);
    }

    #[test]
    fn frame_into_matches_frame() {
        let mut out = vec![0xAB, 0xCD]; // pre-existing bytes survive
        frame_into(b"payload", &mut out);
        let mut want = vec![0xAB, 0xCD];
        want.extend_from_slice(&frame(b"payload"));
        assert_eq!(out, want);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut e = Encoder::new();
        e.u8(7).u32(0xDEAD_BEEF).u64(u64::MAX).str("griphon");
        e.bytes(&[1, 2, 3]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.str().unwrap(), "griphon");
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert!(d.is_done());
    }

    #[test]
    fn truncated_read_is_typed() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(
            d.u32(),
            Err(CodecError::Truncated {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        assert_eq!(Decoder::new(&buf).str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn implausible_length_is_typed() {
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        let buf = e.finish();
        assert_eq!(
            Decoder::new(&buf).bytes(),
            Err(CodecError::BadLength(u32::MAX as u64))
        );
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = frame(b"alpha");
        buf.extend_from_slice(&frame(b"beta"));
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos), Some(Frame::Ok(&b"alpha"[..])));
        assert_eq!(read_frame(&buf, &mut pos), Some(Frame::Ok(&b"beta"[..])));
        assert_eq!(read_frame(&buf, &mut pos), None);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn torn_tail_at_every_byte_offset() {
        let mut buf = frame(b"alpha");
        buf.extend_from_slice(&frame(b"the second record"));
        let first_len = frame(b"alpha").len();
        // Truncating anywhere strictly inside the second frame must read
        // the first frame cleanly, then report Torn — never Corrupt.
        for cut in first_len + 1..buf.len() {
            let cut_buf = &buf[..cut];
            let mut pos = 0;
            assert_eq!(
                read_frame(cut_buf, &mut pos),
                Some(Frame::Ok(&b"alpha"[..]))
            );
            match read_frame(cut_buf, &mut pos) {
                Some(Frame::Torn { bytes }) => assert_eq!(bytes, cut - first_len),
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_not_torn() {
        let mut buf = frame(b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // flip a payload bit, length intact
        let mut pos = 0;
        match read_frame(&buf, &mut pos) {
            Some(Frame::Corrupt { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_payload_frames_cleanly() {
        let buf = frame(b"");
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos), Some(Frame::Ok(&b""[..])));
        assert_eq!(read_frame(&buf, &mut pos), None);
    }
}
