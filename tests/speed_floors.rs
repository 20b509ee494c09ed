//! The two documented host-speed floors of the durability fast paths
//! (DESIGN.md §12), each against the slow oracle it must stay
//! byte-identical to:
//!
//! - slice-by-32 `crc32c` ≥ 5× the byte-at-a-time `crc32c_reference`;
//! - zero-copy `Wal::append` ≥ 2× `Wal::append_reference`.
//!
//! Every other host-time cost is a per-layer metric of `benchmark/`.
//! Debug timings measure the compiler, not the code, so both tests are
//! ignored in tier-1 and run in release:
//!
//! ```text
//! cargo test --release -q --test speed_floors -- --ignored --nocapture
//! ```
//!
//! Each asserts byte identity before it times anything; in a debug build
//! it stops there.

use std::hint::black_box;
use std::time::Instant;

use griphon::durability::{Intent, Wal, WalConfig};
use simcore::{SimRng, SimTime};

/// Timing passes per side; each side's best pass counts.
const PASSES: usize = 4;

/// Time `reference` and `fast` back to back, [`PASSES`] times, and return
/// each side's best wall time in seconds. Interleaving exposes both sides
/// to the same slow spells, and the minimum over passes is the pass least
/// disturbed by the rest of the machine.
fn best_of_interleaved(mut reference: impl FnMut(), mut fast: impl FnMut()) -> (f64, f64) {
    let (mut ref_s, mut fast_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        reference();
        ref_s = ref_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        fast();
        fast_s = fast_s.min(t0.elapsed().as_secs_f64());
    }
    (ref_s, fast_s)
}

/// A deterministic mix of the five intent kinds, one per simulated ms.
fn workload(n: usize) -> Vec<(SimTime, Intent)> {
    (0..n)
        .map(|i| {
            let at = SimTime::from_nanos(i as u64 * 1_000_000);
            let intent = match i % 5 {
                0 => Intent::Wavelength {
                    customer: (i % 7) as u32,
                    from: (i % 4) as u32,
                    to: ((i + 1) % 4) as u32,
                    rate: 0,
                },
                1 => Intent::Bandwidth {
                    customer: (i % 7) as u32,
                    from: (i % 4) as u32,
                    to: ((i + 2) % 4) as u32,
                    target_bps: 12_000_000_000 + i as u64,
                },
                2 => Intent::Teardown { conn: i as u32 },
                3 => Intent::Reserve {
                    customer: (i % 7) as u32,
                    from: (i % 4) as u32,
                    to: ((i + 3) % 4) as u32,
                    rate_bps: 10_000_000_000,
                    start_ns: i as u64 * 1_000,
                    end_ns: i as u64 * 2_000,
                },
                _ => Intent::RegisterTenant {
                    name: format!("tenant-{i}"),
                    quota_bps: 100_000_000_000,
                    priority: (i % 250) as u8,
                },
            };
            (at, intent)
        })
        .collect()
}

#[test]
#[ignore = "host-speed floor; run in release"]
fn crc32c_slice_by_32_is_5x_the_byte_loop() {
    let mut rng = SimRng::new(0x5EED);
    let buf: Vec<u8> = (0..2 << 20) // 16 MiB of seeded noise
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    let want = simcore::crc32c_reference(&buf);
    assert_eq!(simcore::crc32c(&buf), want, "slice-by-32 diverged");
    if cfg!(debug_assertions) {
        return;
    }

    let (ref_s, fast_s) = best_of_interleaved(
        || {
            black_box(simcore::crc32c_reference(black_box(&buf)));
        },
        || {
            black_box(simcore::crc32c(black_box(&buf)));
        },
    );
    let speedup = ref_s / fast_s;
    let gib = buf.len() as f64 / f64::from(1u32 << 30);
    eprintln!(
        "crc32c: slice-by-32 {:.2} GiB/s vs reference {:.2} GiB/s: {speedup:.1}x",
        gib / fast_s,
        gib / ref_s
    );
    assert!(speedup >= 5.0, "slice-by-32 only {speedup:.1}x (need 5x)");
}

#[test]
#[ignore = "host-speed floor; run in release"]
fn zero_copy_append_is_2x_the_reference_append() {
    const RECORDS: usize = 20_000;
    let work = workload(RECORDS);
    let cfg = WalConfig::default();
    let log = |reference: bool| {
        let mut wal = Wal::new(cfg);
        for (at, intent) in &work {
            if reference {
                wal.append_reference(*at, intent);
            } else {
                wal.append(*at, intent);
            }
        }
        wal
    };
    let want = log(true);
    assert_eq!(log(false).segments(), want.segments(), "append diverged");
    if cfg!(debug_assertions) {
        return;
    }

    let (ref_s, fast_s) = best_of_interleaved(
        || drop(black_box(log(true))),
        || drop(black_box(log(false))),
    );
    let speedup = ref_s / fast_s;
    eprintln!(
        "append: zero-copy {:.0} rec/s vs reference {:.0} rec/s over {} bytes: {speedup:.1}x",
        RECORDS as f64 / fast_s,
        RECORDS as f64 / ref_s,
        want.total_bytes()
    );
    assert!(
        speedup >= 2.0,
        "zero-copy append only {speedup:.1}x (need 2x)"
    );
}
