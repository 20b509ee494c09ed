//! The durability fast paths against oracles rebuilt from the documented
//! formats (`tests/support/reference_durability.rs`, DESIGN.md §12):
//! the slice-by-32 `simcore::crc32c` and the incremental `Crc32c`
//! against a byte-loop CRC with its own table, and the zero-copy
//! `Wal::append` against segments built record by record from the
//! public encoder and framing rules. The oracle CRC is itself pinned to
//! the RFC 3720 vectors, so a table-generation slip on either side
//! fails here.

#[path = "support/reference_durability.rs"]
mod reference;

use griphon::durability::{Intent, Wal, WalConfig};
use proptest::prelude::*;
use simcore::{crc32c, Crc32c, SimTime};

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
fn reference_crc_hits_the_rfc_3720_vectors() {
    let crc = reference::crc32c;
    assert_eq!(crc(b""), 0x0000_0000);
    assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA);
    assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43);
    let ascending: Vec<u8> = (0u8..32).collect();
    assert_eq!(crc(&ascending), 0x46DD_794E);
    assert_eq!(crc(b"123456789"), 0xE306_9283);
}

#[test]
fn crc32c_long_inputs_match_reference() {
    // >64 KiB inputs: thousands of slice-by-32 blocks plus every
    // remainder length.
    for len in [64 * 1024 + 1, 100_000, 100_007, 100_015] {
        let buf = long_buffer(len);
        assert_eq!(crc32c(&buf), reference::crc32c(&buf), "len={len}");
    }
}

proptest! {
    /// The slice-by-32 kernel is byte-for-byte equivalent to the
    /// byte-at-a-time reference on arbitrary inputs (lengths cover
    /// sub-block, exact-block, and multi-block cases).
    #[test]
    fn slice_by_32_equals_reference(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32c(&data), reference::crc32c(&data));
    }

    /// Incremental feeding over arbitrary chunk boundaries equals the
    /// one-shot reference: split points land inside and between
    /// 32-byte blocks at random.
    #[test]
    fn chunked_feeding_equals_one_shot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(0usize..2048, 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut h = Crc32c::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finish(), reference::crc32c(&data));
    }
}

/// One intent of each shape the encoder has: strings, integers of every
/// width, id lists and a field-less variant.
fn sample_records() -> Vec<(SimTime, Intent)> {
    let intents = vec![
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
    ];
    intents
        .into_iter()
        .enumerate()
        .map(|(i, intent)| (SimTime::from_secs(i as u64), intent))
        .collect()
}

#[test]
fn zero_copy_append_matches_reference_path() {
    // A segment-size sweep, so records land on both sides of every
    // rollover boundary.
    let records = sample_records();
    for segment_bytes in [64, 96, 128, 256, 8192] {
        let mut wal = Wal::new(WalConfig { segment_bytes });
        for (i, (at, intent)) in records.iter().enumerate() {
            assert_eq!(wal.append(*at, intent), i as u64);
        }
        assert_eq!(
            wal.segments(),
            reference::wal_segments(segment_bytes, &records),
            "segment_bytes={segment_bytes}"
        );
    }
}
