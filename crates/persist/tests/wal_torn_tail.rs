//! Torn-tail robustness of the WAL scanner: a valid log cut at *every*
//! byte offset must yield either a clean prefix of the original records
//! or a typed error — never a panic, and never a silently misparsed
//! record. Random single-byte corruption gets the same guarantee: the
//! per-frame CRC turns any damage into truncation or a typed error.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use proptest::prelude::*;
use tempdir::TempDir;
use xks_persist::wal::{Wal, WalRecord, WalScan, NO_MANIFEST_CRC, WAL_HEADER_LEN};
use xks_persist::{Injector, PersistError};

/// Writes `records` through the real append path and returns the log's
/// bytes (header + frames, every frame fsynced).
fn wal_bytes(name: &str, base_crc: u32, records: &[WalRecord]) -> Vec<u8> {
    let dir = TempDir::new("wal-torn-tail");
    let path = dir.join(name);
    let mut wal = Wal::create(&path, base_crc, Injector::none()).unwrap();
    for record in records {
        wal.append(record).unwrap();
    }
    drop(wal);
    std::fs::read(&path).unwrap()
}

/// The property itself: scanning any prefix of a valid log never
/// panics, and a successful scan reports exactly a prefix of the
/// original records with `valid_len` covering precisely those frames.
fn assert_prefix_or_typed_error(bytes: &[u8], cut: usize, original: &[WalRecord]) {
    let prefix = &bytes[..cut];
    match Wal::scan(prefix) {
        Ok(WalScan {
            records,
            valid_len,
            torn,
            ..
        }) => {
            assert!(
                records.len() <= original.len() && records == original[..records.len()],
                "cut at {cut}: scanned records are not a prefix of what was appended"
            );
            assert!(
                valid_len <= cut as u64,
                "cut at {cut}: valid_len {valid_len} exceeds the available bytes"
            );
            assert_eq!(
                torn,
                valid_len < cut as u64,
                "cut at {cut}: torn flag disagrees with leftover bytes"
            );
            // Re-scanning just the clean region must reproduce the
            // same records — truncation converged in one pass.
            let clean = Wal::scan(&prefix[..valid_len as usize]).unwrap();
            assert_eq!(clean.records, records, "cut at {cut}: unstable truncation");
            assert!(!clean.torn, "cut at {cut}: clean region reported torn");
        }
        Err(
            PersistError::Truncated { .. }
            | PersistError::BadMagic { .. }
            | PersistError::UnsupportedVersion { .. }
            | PersistError::Corrupt { .. },
        ) => {
            // Typed rejection is only legitimate while the fixed-size
            // header itself is incomplete or damaged; past it, torn
            // tails must be absorbed, not errored.
            assert!(
                (cut as u64) < WAL_HEADER_LEN,
                "cut at {cut}: complete header rejected instead of truncating the tail"
            );
        }
        Err(other) => panic!("cut at {cut}: unexpected error class {other:?}"),
    }
}

#[test]
fn every_byte_offset_truncation_is_absorbed() {
    let records = vec![
        WalRecord::Init {
            root_label: "pubs".to_owned(),
        },
        WalRecord::Insert {
            ordinal: 0,
            xml: "<paper><title>xml keyword search</title></paper>".to_owned(),
        },
        WalRecord::Delete { ordinal: 0 },
        WalRecord::Insert {
            ordinal: 1,
            xml: "<paper><title>skyline</title></paper>".to_owned(),
        },
    ];
    let bytes = wal_bytes("exhaustive.wal", NO_MANIFEST_CRC, &records);
    for cut in 0..=bytes.len() {
        assert_prefix_or_typed_error(&bytes, cut, &records);
    }
    // The untouched log replays everything.
    let full = Wal::scan(&bytes).unwrap();
    assert_eq!(full.records, records);
    assert!(!full.torn);
}

/// Tiny deterministic generator (xorshift64*) so record material can be
/// derived from one drawn seed — the proptest shim has no combinators
/// for sum types.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Arbitrary WAL record material: payloads of varied kinds and sizes.
/// Content is opaque to the framing layer — the scanner must not care
/// whether a payload parses as XML.
fn arb_records(seed: u64, max_len: u64) -> Vec<WalRecord> {
    let mut gen = Gen(seed);
    let count = gen.below(max_len) as usize;
    (0..count)
        .map(|_| match gen.below(3) {
            0 => {
                let len = 1 + gen.below(12) as usize;
                let root_label: String = (0..len)
                    .map(|_| char::from(b'a' + gen.below(26) as u8))
                    .collect();
                WalRecord::Init { root_label }
            }
            1 => {
                let len = gen.below(200) as usize;
                let body: String = (0..len)
                    .map(|_| char::from(0x20 + gen.below(0x5F) as u8))
                    .collect();
                WalRecord::Insert {
                    ordinal: gen.next() as u32,
                    xml: format!("<d>{body}</d>"),
                }
            }
            _ => WalRecord::Delete {
                ordinal: gen.next() as u32,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_logs_survive_random_truncation(
        record_seed in any::<u64>(),
        base_crc in any::<u32>(),
        cut_seed in any::<u64>(),
    ) {
        let records = arb_records(record_seed, 12);
        let bytes = wal_bytes("proptest.wal", base_crc, &records);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        assert_prefix_or_typed_error(&bytes, cut, &records);
    }

    #[test]
    fn random_single_byte_corruption_never_misparses(
        record_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let mut records = arb_records(record_seed, 8);
        if records.is_empty() {
            records.push(WalRecord::Delete { ordinal: 7 });
        }
        let mut bytes = wal_bytes("flip.wal", NO_MANIFEST_CRC, &records);
        let pos = (flip_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << flip_bit;
        match Wal::scan(&bytes) {
            Ok(scan) => {
                // Damage before the frame `pos` sits in cannot matter;
                // the damaged frame and everything after must be gone
                // or intact-by-prefix — never reinterpreted. A flip in
                // the header's base_crc field only changes `base_crc`.
                prop_assert!(
                    scan.records.len() <= records.len()
                        && scan.records == records[..scan.records.len()],
                    "corrupted log yielded a non-prefix: {:?}",
                    scan.records
                );
            }
            Err(
                PersistError::Truncated { .. }
                | PersistError::BadMagic { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::Corrupt { .. },
            ) => {
                prop_assert!(
                    (pos as u64) < WAL_HEADER_LEN,
                    "typed rejection for damage past the header (pos {pos})"
                );
            }
            Err(other) => panic!("unexpected error class {other:?}"),
        }
    }
}
