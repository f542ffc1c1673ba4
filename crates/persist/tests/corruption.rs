//! Corruption handling: damaged `.xks` files must produce *typed*
//! errors — never panics — whether the damage hits the header, an
//! eagerly-validated section, or a lazily-read one.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::fs;
use std::path::PathBuf;

use tempdir::TempDir;

use xks_persist::format::{Section, HEADER_LEN};
use xks_persist::{IndexReader, IndexWriter, PersistError};
use xks_xmltree::fixtures::publications;

/// Writes the publications fixture as `name` into a fresh directory
/// (kept alive by the returned guard).
fn fresh_index(name: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new("persist-corruption");
    let path = dir.join(name);
    IndexWriter::new()
        .write_tree(&publications(), &path)
        .unwrap();
    (dir, path)
}

#[test]
fn empty_file_is_truncated() {
    let dir = TempDir::new("persist-corruption");
    let path = dir.join("empty.xks");
    fs::write(&path, b"").unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. } | PersistError::Io(_))
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn garbage_file_is_bad_magic() {
    let dir = TempDir::new("persist-corruption");
    let path = dir.join("garbage.xks");
    fs::write(&path, vec![0xABu8; 4096]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::BadMagic {
            found: [0xAB, 0xAB, 0xAB, 0xAB]
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_header_detected() {
    let (_dir, path) = fresh_index("trunc-header.xks");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..HEADER_LEN / 2]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_body_detected_at_open() {
    // Keep the header intact but cut the file before the promised
    // section ends: the directory bounds check must catch it.
    let (_dir, path) = fresh_index("trunc-body.xks");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Truncated { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_version_detected() {
    let (_dir, path) = fresh_index("version.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[4] = 99;
    bytes[5] = 0;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::UnsupportedVersion { found: 99 })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn header_bitflip_is_checksum_mismatch() {
    let (_dir, path) = fresh_index("header-flip.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[16] ^= 0x01; // inside element_count
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::ChecksumMismatch { section: "header" })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn label_section_bitflip_fails_open() {
    // The label dictionary is the one eagerly-validated section.
    let (_dir, path) = fresh_index("labels-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = xks_persist::format::Header::decode(&bytes).unwrap();
    let labels = header.section(Section::Labels);
    let mut corrupted = bytes.clone();
    corrupted[labels.offset as usize + 3] ^= 0x10;
    fs::write(&path, &corrupted).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::ChecksumMismatch { section: "labels" })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn postings_bitflip_passes_open_but_fails_verify() {
    // Lazily-read sections are not validated at open (that is the
    // point of paged reads); `verify()` must still catch the damage.
    let (_dir, path) = fresh_index("postings-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = xks_persist::format::Header::decode(&bytes).unwrap();
    let postings = header.section(Section::Postings);
    let mut corrupted = bytes.clone();
    corrupted[postings.offset as usize + 1] ^= 0x20;
    fs::write(&path, &corrupted).unwrap();
    let reader = IndexReader::open(&path).expect("open is lazy");
    assert!(matches!(
        reader.verify(),
        Err(PersistError::ChecksumMismatch {
            section: "postings"
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn element_section_bitflip_fails_verify() {
    let (_dir, path) = fresh_index("elements-flip.xks");
    let bytes = fs::read(&path).unwrap();
    let header = xks_persist::format::Header::decode(&bytes).unwrap();
    let elements = header.section(Section::Elements);
    let mut corrupted = bytes.clone();
    corrupted[(elements.offset + elements.len / 2) as usize] ^= 0x04;
    fs::write(&path, &corrupted).unwrap();
    let reader = IndexReader::open(&path).expect("open is lazy");
    assert!(matches!(
        reader.verify(),
        Err(PersistError::ChecksumMismatch {
            section: "elements"
        })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn hostile_counts_in_lazy_sections_stay_typed_errors() {
    // Corrupt an element row's component-count varint into a huge
    // value: lazy reads skip CRCs, so the decoder itself must clamp
    // allocations and fail with a typed error — not abort.
    let (_dir, path) = fresh_index("hostile-count.xks");
    let mut bytes = fs::read(&path).unwrap();
    let header = xks_persist::format::Header::decode(&bytes).unwrap();
    let elements = header.section(Section::Elements);
    // First row starts at the section start; overwrite its leading
    // varint (component count) with a 10-byte max varint. This tramples
    // the row, which is fine — we only care that the reader stays typed.
    let start = elements.offset as usize;
    for b in &mut bytes[start..start + 9] {
        *b = 0xFF;
    }
    bytes[start + 9] = 0x01;
    fs::write(&path, &bytes).unwrap();
    let reader = IndexReader::open(&path).expect("open is lazy");
    let root: xks_xmltree::Dewey = "0".parse().unwrap();
    assert!(matches!(
        reader.try_element(&root),
        Err(PersistError::Truncated { .. } | PersistError::Corrupt { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn mismatched_offset_array_rejected_at_open() {
    // A header whose element count disagrees with the offset-array
    // length (CRC re-sealed so only the count lies) must be rejected
    // before any lookup can multiply the bogus count.
    let (_dir, path) = fresh_index("bad-count.xks");
    let mut bytes = fs::read(&path).unwrap();
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes()); // element_count
    let crc = xks_persist::codec::crc32(&bytes[..HEADER_LEN - 4]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexReader::open(&path),
        Err(PersistError::Corrupt { .. })
    ));
    fs::remove_file(&path).unwrap();
}

#[test]
fn clean_file_passes_everything() {
    let (_dir, path) = fresh_index("clean.xks");
    let reader = IndexReader::open(&path).unwrap();
    reader.verify().unwrap();
    assert!(!reader.try_keyword_deweys("keyword").unwrap().is_empty());
    fs::remove_file(&path).unwrap();
}
