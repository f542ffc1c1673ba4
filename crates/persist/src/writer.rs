//! Building `.xks` index files from shredded corpora.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use validrtf::source::own_content_features;
use xks_store::{shred, ShreddedDoc};
use xks_xmltree::{Dewey, XmlTree};

use crate::codec::{crc32, put_cid, put_postings, put_str, put_varint};
use crate::error::PersistError;
use crate::format::{
    align_up, check_page_size, Header, Section, SectionEntry, DEFAULT_PAGE_SIZE, MIN_VERSION,
    SECTION_COUNT, VERSION,
};

/// What [`IndexWriter::write`] produced.
#[derive(Debug, Clone, Copy)]
pub struct WriteSummary {
    /// Total file length in bytes.
    pub file_len: u64,
    /// Element rows written.
    pub element_count: u64,
    /// Distinct keywords written.
    pub keyword_count: u64,
    /// Labels in the dictionary.
    pub label_count: u64,
    /// Bytes of the (compressed) postings section.
    pub postings_len: u64,
    /// Bytes of the element-table section.
    pub elements_len: u64,
    /// Page size the file was laid out with.
    pub page_size: u32,
}

/// Serializes a shredded corpus into the paged binary format.
#[derive(Debug, Clone, Copy)]
pub struct IndexWriter {
    page_size: u32,
    format_version: u16,
}

impl Default for IndexWriter {
    fn default() -> Self {
        IndexWriter {
            page_size: DEFAULT_PAGE_SIZE,
            format_version: VERSION,
        }
    }
}

impl IndexWriter {
    /// A writer with the default 4 KiB page size.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with a custom page size (power of two in
    /// `[512, 1 MiB]`).
    pub fn with_page_size(page_size: u32) -> Result<Self, PersistError> {
        check_page_size(page_size)?;
        Ok(IndexWriter {
            page_size,
            format_version: VERSION,
        })
    }

    /// Selects the on-disk format version to emit
    /// ([`MIN_VERSION`]..=[`VERSION`]). Version 1 omits the per-keyword
    /// stats — used by the v1→v2 compatibility tests; production
    /// writers keep the default (current) version.
    pub fn with_format_version(mut self, version: u16) -> Result<Self, PersistError> {
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        self.format_version = version;
        Ok(self)
    }

    /// Shreds a parsed tree and writes its index to `path`.
    pub fn write_tree(&self, tree: &XmlTree, path: &Path) -> Result<WriteSummary, PersistError> {
        self.write(&shred(tree), path)
    }

    /// Writes a shredded corpus to `path`.
    ///
    /// Element rows are stored in the document (pre-)order the shredder
    /// produced; postings come out of the store's derived keyword index
    /// sorted and deduplicated, exactly as the in-memory backend serves
    /// them — which is what makes query results byte-identical across
    /// backends.
    pub fn write(&self, doc: &ShreddedDoc, path: &Path) -> Result<WriteSummary, PersistError> {
        // --- section payloads, in memory ---------------------------
        let labels = encode_labels(doc);
        let (element_offsets, elements) = encode_elements(doc)?;
        let postings_input = doc.to_postings();
        let (keyword_offsets, keyword_dict, postings) =
            encode_keywords(&postings_input, self.format_version);

        let payloads: [&[u8]; SECTION_COUNT] = [
            &labels,
            &element_offsets,
            &elements,
            &keyword_offsets,
            &keyword_dict,
            &postings,
        ];

        // --- layout: header page, then page-aligned sections -------
        let page = u64::from(self.page_size);
        let mut sections = [SectionEntry::default(); SECTION_COUNT];
        let mut cursor = page; // header owns page 0
        for (entry, payload) in sections.iter_mut().zip(payloads.iter()) {
            entry.offset = cursor;
            entry.len = payload.len() as u64;
            entry.crc = crc32(payload);
            cursor = align_up(cursor + payload.len() as u64, page);
        }
        let file_len = cursor;

        let header = Header {
            version: self.format_version,
            page_size: self.page_size,
            element_count: doc.element_count() as u64,
            keyword_count: postings_input.len() as u64,
            label_count: doc.labels.len() as u64,
            sections,
        };

        // --- write ---------------------------------------------------
        let mut out = BufWriter::new(File::create(path)?);
        let header_bytes = header.encode();
        out.write_all(&header_bytes)?;
        pad_to(&mut out, page - header_bytes.len() as u64)?;
        for (entry, payload) in sections.iter().zip(payloads.iter()) {
            out.write_all(payload)?;
            pad_to(
                &mut out,
                align_up(entry.offset + entry.len, page) - (entry.offset + entry.len),
            )?;
        }
        out.flush()?;

        Ok(WriteSummary {
            file_len,
            element_count: header.element_count,
            keyword_count: header.keyword_count,
            label_count: header.label_count,
            postings_len: sections[Section::Postings as usize].len,
            elements_len: sections[Section::Elements as usize].len,
            page_size: self.page_size,
        })
    }
}

fn pad_to<W: Write>(out: &mut W, padding: u64) -> Result<(), PersistError> {
    const ZEROS: [u8; 4096] = [0u8; 4096];
    let mut remaining = padding;
    while remaining > 0 {
        let take = (remaining as usize).min(ZEROS.len());
        out.write_all(&ZEROS[..take])?;
        remaining -= take as u64;
    }
    Ok(())
}

fn encode_labels(doc: &ShreddedDoc) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, doc.labels.len() as u64);
    for label in &doc.labels {
        put_str(&mut out, label);
    }
    out
}

/// Element rows plus the offset array enabling O(log n) paged binary
/// search by Dewey code (rows are in document order).
fn encode_elements(doc: &ShreddedDoc) -> Result<(Vec<u8>, Vec<u8>), PersistError> {
    let own_features = own_content_features(doc);
    let mut offsets = Vec::with_capacity(doc.elements.len() * 8);
    let mut rows = Vec::new();
    for row in &doc.elements {
        offsets.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        let dewey: Dewey = row.dewey.parse().map_err(|_| PersistError::Corrupt {
            what: format!("element row holds invalid Dewey {:?}", row.dewey),
        })?;
        put_varint(&mut rows, dewey.components().len() as u64);
        for &c in dewey.components() {
            put_varint(&mut rows, u64::from(c));
        }
        put_varint(&mut rows, u64::from(row.label));
        put_varint(&mut rows, u64::from(row.level));
        put_varint(&mut rows, row.label_path.len() as u64);
        for &l in &row.label_path {
            put_varint(&mut rows, u64::from(l));
        }
        put_cid(&mut rows, &row.content_feature);
        put_cid(&mut rows, &own_features.get(&row.dewey).cloned());
    }
    Ok((offsets, rows))
}

/// Keyword dictionary (sorted by keyword, byte order), its offset array,
/// and the postings blob the dictionary points into. Format version 2
/// appends the keyword's document frequency to each entry.
fn encode_keywords(
    postings_input: &[(String, Vec<Dewey>)],
    format_version: u16,
) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut offsets = Vec::with_capacity(postings_input.len() * 8);
    let mut dict = Vec::new();
    let mut postings = Vec::new();
    for (keyword, deweys) in postings_input {
        offsets.extend_from_slice(&(dict.len() as u64).to_le_bytes());
        let run_start = postings.len() as u64;
        put_postings(&mut postings, deweys);
        let run_len = postings.len() as u64 - run_start;
        put_str(&mut dict, keyword);
        put_varint(&mut dict, deweys.len() as u64);
        put_varint(&mut dict, run_start);
        put_varint(&mut dict, run_len);
        if format_version >= 2 {
            put_varint(&mut dict, validrtf::plan::doc_frequency(deweys));
        }
    }
    (offsets, dict, postings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use xks_xmltree::fixtures::publications;

    fn temp_path(name: &str) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("writer-test");
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn writes_page_aligned_sections() {
        let (_dir, path) = temp_path("aligned.xks");
        let summary = IndexWriter::new()
            .write_tree(&publications(), &path)
            .unwrap();
        assert_eq!(summary.page_size, 4096);
        assert_eq!(summary.file_len % 4096, 0);
        assert_eq!(
            summary.file_len,
            std::fs::metadata(&path).unwrap().len(),
            "summary length matches the file"
        );
        assert!(summary.element_count > 10);
        assert!(summary.keyword_count > 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_page_sizes() {
        assert!(IndexWriter::with_page_size(4096).is_ok());
        assert!(matches!(
            IndexWriter::with_page_size(1000),
            Err(PersistError::BadPageSize { found: 1000 })
        ));
    }

    #[test]
    fn header_round_trips_through_file() {
        let (_dir, path) = temp_path("header.xks");
        IndexWriter::with_page_size(512)
            .unwrap()
            .write_tree(&publications(), &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = Header::decode(&bytes).unwrap();
        assert_eq!(header.page_size, 512);
        for section in Section::all() {
            let entry = header.section(section);
            assert_eq!(entry.offset % 512, 0, "{section:?} aligned");
            let payload = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
            assert_eq!(crc32(payload), entry.crc, "{section:?} crc");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
