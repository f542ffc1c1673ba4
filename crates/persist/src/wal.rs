//! The write-ahead log behind a mutable corpus (`.wal`, format `XKSW`
//! version 1).
//!
//! A [`crate::mutable::MutableCorpus`] acknowledges an insert or delete
//! only after the operation is framed, CRC'd, written, and fsynced
//! here; the in-memory delta is rebuilt from this log at every open.
//! The byte-level layout is specified in `FORMAT.md` §"Write-ahead
//! log"; the fsync ordering and crash-point analysis live in
//! `docs/DURABILITY.md`.
//!
//! Replay distinguishes two failure shapes, and the distinction is the
//! whole point:
//!
//! * a **torn tail** — the file ends mid-frame, or the final frame's
//!   CRC does not match (a crash mid-append). [`Wal::scan`] reports the
//!   clean record prefix plus the byte offset where the tail starts;
//!   [`Wal::open`] truncates the file back to that offset. Never an
//!   error: this is the log working as designed.
//! * **corruption** — a frame whose CRC matches but whose payload does
//!   not decode (impossible from any crash; something rewrote the
//!   bytes). A typed [`PersistError::Corrupt`], surfaced to the
//!   operator instead of silently dropping acknowledged writes.
//!
//! The header carries the CRC-32 of the shard manifest the log was
//! opened against (`base_crc`), which makes log/manifest mismatch
//! detectable: compaction swaps the manifest *before* resetting the
//! log, so a crash between the two leaves a log whose `base_crc` names
//! the old manifest. Recovery discards such a stale log — every record
//! in it is already sealed into the new shards.

use std::path::{Path, PathBuf};

use xks_obs::{global, Counter};

use crate::codec::{crc32, get_str, get_varint, put_str, put_varint};
use crate::error::PersistError;
use crate::fault::{fault_rename, fault_sync_dir, FaultFile, Injector};

/// WAL magic: "XKSW" (Xml Keyword Search, Wal).
pub const WAL_MAGIC: [u8; 4] = *b"XKSW";

/// WAL format version this build reads and writes.
pub const WAL_VERSION: u16 = 1;

/// Header length: magic (4) + version (2) + reserved (2) + base
/// manifest CRC (4).
pub const WAL_HEADER_LEN: u64 = 12;

/// Frame overhead per record: payload length (u32) + payload CRC-32.
pub const WAL_FRAME_OVERHEAD: u64 = 8;

/// Upper bound on one record's payload — anything larger in a length
/// field is treated as a torn tail, bounding the allocation a mangled
/// length can demand.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// `base_crc` of a WAL opened against no manifest (fresh corpus).
pub const NO_MANIFEST_CRC: u32 = 0;

/// One logged corpus mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Corpus creation: the root element's label. Always the first
    /// record of a fresh corpus's log; never appears after compaction
    /// (the root lives in shard 0 from then on).
    Init {
        /// Label name of the corpus root element.
        root_label: String,
    },
    /// One document inserted at a top-level ordinal, stored as its XML
    /// text (re-shredded on replay — shredding is deterministic).
    Insert {
        /// Assigned top-level ordinal (monotonic, never reused).
        ordinal: u32,
        /// The document's XML, exactly as accepted.
        xml: String,
    },
    /// One document tombstoned.
    Delete {
        /// Ordinal of the deleted document.
        ordinal: u32,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Init { root_label } => {
                out.push(0);
                put_str(&mut out, root_label);
            }
            WalRecord::Insert { ordinal, xml } => {
                out.push(1);
                put_varint(&mut out, u64::from(*ordinal));
                put_str(&mut out, xml);
            }
            WalRecord::Delete { ordinal } => {
                out.push(2);
                put_varint(&mut out, u64::from(*ordinal));
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut pos = 0;
        let op = *payload.first().ok_or(PersistError::Truncated {
            what: "empty WAL record payload",
        })?;
        pos += 1;
        let record = match op {
            0 => WalRecord::Init {
                root_label: get_str(payload, &mut pos)?,
            },
            1 => {
                let ordinal = read_ordinal(payload, &mut pos)?;
                WalRecord::Insert {
                    ordinal,
                    xml: get_str(payload, &mut pos)?,
                }
            }
            2 => WalRecord::Delete {
                ordinal: read_ordinal(payload, &mut pos)?,
            },
            other => {
                return Err(PersistError::Corrupt {
                    what: format!("WAL record op {other} (expected 0, 1, or 2)"),
                })
            }
        };
        if pos != payload.len() {
            return Err(PersistError::Corrupt {
                what: format!(
                    "WAL record has {} trailing bytes after its payload",
                    payload.len() - pos
                ),
            });
        }
        Ok(record)
    }
}

fn read_ordinal(payload: &[u8], pos: &mut usize) -> Result<u32, PersistError> {
    u32::try_from(get_varint(payload, pos)?).map_err(|_| PersistError::Corrupt {
        what: "WAL document ordinal overflows u32".to_owned(),
    })
}

/// What [`Wal::scan`] found in a log's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Manifest CRC the log was created against ([`NO_MANIFEST_CRC`]
    /// when the corpus had no manifest yet).
    pub base_crc: u32,
    /// The clean record prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of header + clean frames; anything past this offset is a
    /// torn tail.
    pub valid_len: u64,
    /// True when bytes past `valid_len` existed (a tail was torn).
    pub torn: bool,
}

/// Handles registered once in the global metrics registry (see
/// [`crate::preregister_durability_metrics`]).
struct WalMetrics {
    appends: Counter,
    fsyncs: Counter,
    replayed: Counter,
    truncated: Counter,
}

fn wal_metrics() -> &'static WalMetrics {
    use std::sync::OnceLock;
    static CELL: OnceLock<WalMetrics> = OnceLock::new();
    CELL.get_or_init(|| WalMetrics {
        appends: global().counter("wal.appends"),
        fsyncs: global().counter("wal.fsyncs"),
        replayed: global().counter("recovery.records_replayed"),
        truncated: global().counter("recovery.tail_truncated"),
    })
}

/// An open write-ahead log: an append handle plus the invariant that
/// every byte before `len` is a clean, fsynced frame.
#[derive(Debug)]
pub struct Wal {
    file: FaultFile,
    path: PathBuf,
    len: u64,
    base_crc: u32,
    /// Set when a failed append could not be rolled back: the tail is
    /// in an unknown state and only a reopen (which re-scans and
    /// truncates) may mutate again.
    poisoned: bool,
}

impl Wal {
    /// Creates a fresh log at `path` bound to a manifest CRC, written
    /// via temp file + rename so a crash mid-create leaves no
    /// half-written log under the final name.
    pub fn create(path: &Path, base_crc: u32, injector: Injector) -> Result<Self, PersistError> {
        let tmp = tmp_path(path);
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&base_crc.to_le_bytes());
        {
            let mut file = FaultFile::create(&tmp, injector.clone(), "wal")?;
            file.write_all(&header)?;
            file.sync_data()?;
        }
        fault_rename(&injector, "wal.rename", &tmp, path)?;
        fault_sync_dir(&injector, "wal.dirsync", path)?;
        let mut file = FaultFile::open_rw(path, injector, "wal")?;
        file.seek_to(WAL_HEADER_LEN)?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            len: WAL_HEADER_LEN,
            base_crc,
            poisoned: false,
        })
    }

    /// Scans a log's raw bytes: header, then frames until the bytes run
    /// out or a CRC disagrees (the torn tail). Pure — no I/O, no
    /// truncation — so tests can probe every byte-offset prefix.
    pub fn scan(bytes: &[u8]) -> Result<WalScan, PersistError> {
        if bytes.len() < WAL_HEADER_LEN as usize {
            return Err(PersistError::Truncated {
                what: "file shorter than the WAL header",
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("sliced 4");
        if magic != WAL_MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("sliced 2"));
        if version != WAL_VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let base_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("sliced 4"));
        let mut records = Vec::new();
        let mut pos = WAL_HEADER_LEN as usize;
        loop {
            let remaining = bytes.len() - pos;
            if remaining == 0 {
                return Ok(WalScan {
                    base_crc,
                    records,
                    valid_len: pos as u64,
                    torn: false,
                });
            }
            if remaining < WAL_FRAME_OVERHEAD as usize {
                break; // torn: not even a frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("sliced 4"));
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("sliced 4"));
            let body_start = pos + 8;
            if len > MAX_RECORD_LEN || (len as usize) > bytes.len() - body_start {
                break; // torn: frame promises more bytes than exist
            }
            let payload = &bytes[body_start..body_start + len as usize];
            if crc32(payload) != crc {
                break; // torn: the frame never finished
            }
            // A clean CRC over a malformed payload is real corruption,
            // not a crash artifact — typed error, no silent truncation.
            records.push(WalRecord::decode(payload)?);
            pos = body_start + len as usize;
        }
        Ok(WalScan {
            base_crc,
            records,
            valid_len: pos as u64,
            torn: true,
        })
    }

    /// Opens the log at `path`, repairing a torn tail in place
    /// (truncate + fsync, counted as `recovery.tail_truncated`).
    /// Returns the handle positioned for appends plus the scan that
    /// recovery replays (`recovery.records_replayed`).
    pub fn open(path: &Path, injector: Injector) -> Result<(Self, WalScan), PersistError> {
        let bytes = std::fs::read(path)?;
        let scan = Wal::scan(&bytes)?;
        let mut file = FaultFile::open_rw(path, injector, "wal")?;
        if scan.torn {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
            wal_metrics().truncated.inc();
        }
        wal_metrics().replayed.add(scan.records.len() as u64);
        file.seek_to(scan.valid_len)?;
        let wal = Wal {
            file,
            path: path.to_owned(),
            len: scan.valid_len,
            base_crc: scan.base_crc,
            poisoned: false,
        };
        Ok((wal, scan))
    }

    /// The manifest CRC this log was created against.
    #[must_use]
    pub fn base_crc(&self) -> u32 {
        self.base_crc
    }

    /// Bytes of clean, durable log (header included).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN
    }

    /// Where the log lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record — frame write, then fsync — and only then
    /// returns. On a failed write the torn bytes are rolled back by
    /// truncating to the last durable length; if even that fails the
    /// handle is poisoned and every later append errors until reopen.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::Corrupt {
                what: "WAL handle is poisoned by an earlier failed append (reopen to recover)"
                    .to_owned(),
            });
        }
        let payload = record.encode();
        let mut frame = Vec::with_capacity(payload.len() + WAL_FRAME_OVERHEAD as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Err(e) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
        {
            // Roll the file back to its last durable frame so the
            // *open handle* stays usable after a transient error. If
            // the rollback itself fails, only reopening (which re-scans
            // and truncates) is safe.
            if self.file.set_len(self.len).is_err() || self.file.seek_to(self.len).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.len += frame.len() as u64;
        let metrics = wal_metrics();
        metrics.appends.inc();
        metrics.fsyncs.inc();
        Ok(())
    }

    /// Replaces the log with a fresh, empty one bound to `base_crc` —
    /// the final step of compaction. Temp file + rename: any crash
    /// leaves either the old complete log or the new empty one.
    pub fn reset(path: &Path, base_crc: u32, injector: Injector) -> Result<Self, PersistError> {
        Wal::create(path, base_crc, injector)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "wal".to_owned());
    name.push_str(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::tempdir::TempDir;

    fn temp_wal(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("wal-test");
        let path = dir.join(name);
        (dir, path)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Init {
                root_label: "dblp".to_owned(),
            },
            WalRecord::Insert {
                ordinal: 0,
                xml: "<paper><title>xml keyword search</title></paper>".to_owned(),
            },
            WalRecord::Delete { ordinal: 0 },
        ]
    }

    #[test]
    fn append_then_open_round_trips() {
        let (_dir, path) = temp_wal("round-trip.wal");
        let records = sample_records();
        {
            let mut wal = Wal::create(&path, 7, Injector::none()).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let (wal, scan) = Wal::open(&path, Injector::none()).unwrap();
        assert_eq!(scan.base_crc, 7);
        assert_eq!(scan.records, records);
        assert!(!scan.torn);
        assert!(!wal.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reappendable() {
        let (_dir, path) = temp_wal("torn.wal");
        {
            let mut wal = Wal::create(&path, 0, Injector::none()).unwrap();
            for r in &sample_records() {
                wal.append(r).unwrap();
            }
        }
        // Tear the last frame by chopping 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, scan) = Wal::open(&path, Injector::none()).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2, "the torn delete is gone");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), scan.valid_len);
        // The repaired log accepts appends again.
        wal.append(&WalRecord::Delete { ordinal: 9 }).unwrap();
        let (_, rescan) = Wal::open(&path, Injector::none()).unwrap();
        assert_eq!(rescan.records.len(), 3);
        assert_eq!(rescan.records[2], WalRecord::Delete { ordinal: 9 });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn valid_crc_with_garbage_payload_is_typed_corruption() {
        let (_dir, path) = temp_wal("corrupt.wal");
        {
            Wal::create(&path, 0, Injector::none()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = [9u8, 1, 2, 3]; // op 9 does not exist
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&path, Injector::none()) {
            Err(PersistError::Corrupt { what }) => assert!(what.contains("op 9"), "{what}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_and_handle_survives() {
        let (_dir, path) = temp_wal("failed-append.wal");
        let mut wal = Wal::create(&path, 0, Injector::none()).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        let durable = wal.len();
        drop(wal);
        // Reopen with an injector that fails the next frame write once.
        let (mut wal, _) = Wal::open(&path, Injector::arm(0, FaultKind::Error)).unwrap();
        assert!(wal.append(&sample_records()[1]).is_err());
        assert_eq!(wal.len(), durable);
        // The transient error passed; the same handle appends cleanly.
        wal.append(&sample_records()[1]).unwrap();
        let (_, scan) = Wal::open(&path, Injector::none()).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn, "rollback left no torn bytes behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        assert!(matches!(
            Wal::scan(b"NOPE00000000"),
            Err(PersistError::BadMagic { .. })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&9u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 6]);
        assert!(matches!(
            Wal::scan(&bytes),
            Err(PersistError::UnsupportedVersion { found: 9 })
        ));
    }
}
