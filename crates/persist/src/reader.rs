//! Opening and querying `.xks` index files.
//!
//! [`IndexReader::open`] validates the header and loads only the label
//! dictionary (a handful of strings). Everything else — element rows,
//! keyword dictionary, postings — stays on disk and is fetched page by
//! page through the LRU [`BufferPool`] as lookups demand: a keyword
//! lookup binary-searches the offset array (one 8-byte read per probe),
//! decodes one dictionary entry per probe, and finally reads exactly
//! the pages its posting run spans. The pool counters in
//! [`IndexReader::stats`] make that laziness observable.

use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use validrtf::plan::KeywordStats;
use validrtf::source::{CorpusSource, SourceElement, SourceError};
use xks_xmltree::{Dewey, DeweyListBuf};

use crate::codec::{crc32, get_postings_into, get_varint, Crc32};
use crate::error::PersistError;
use crate::format::{Header, Section, HEADER_LEN};
use crate::pool::{lock_unpoisoned, BufferPool, PoolStats};

/// Tuning knobs for [`IndexReader::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReaderOptions {
    /// Buffer-pool capacity in pages (default 256; clamped to ≥ 8).
    pub pool_pages: usize,
    /// Capacity of the decoded-postings LRU cache in keywords
    /// (default 64; 0 disables caching). A hit skips the pool reads
    /// *and* the varint decode for the keyword's whole posting run.
    pub postings_cache_keywords: usize,
    /// Capacity of the decoded-element cache in nodes (default 16384;
    /// 0 disables caching). A hit skips the whole element binary
    /// search. The cache is flushed wholesale when full, so its worst
    /// case degrades to the uncached lookup, never to an eviction scan.
    pub element_cache_nodes: usize,
}

impl Default for ReaderOptions {
    fn default() -> Self {
        ReaderOptions {
            pool_pages: 256,
            postings_cache_keywords: 64,
            element_cache_nodes: 16_384,
        }
    }
}

/// A tiny LRU keyed by keyword, holding decoded posting runs as shared
/// flat arenas. Capacities are small (tens of entries), so eviction is
/// an O(n) scan — no intrusive list needed.
///
/// Thread-safe: slots sit behind one `Mutex` (critical sections are a
/// short scan — the expensive decode happens outside, and a racing
/// double-decode just inserts twice, last write wins); counters are
/// relaxed atomics.
#[derive(Debug)]
struct PostingsCache {
    capacity: usize,
    tick: AtomicU64,
    slots: Mutex<Vec<CacheSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct CacheSlot {
    keyword: String,
    postings: Arc<DeweyListBuf>,
    last_used: u64,
}

impl PostingsCache {
    fn new(capacity: usize) -> Self {
        PostingsCache {
            capacity,
            tick: AtomicU64::new(0),
            slots: Mutex::new(Vec::with_capacity(capacity.min(64))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn bump(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.slots).len()
    }

    fn get(&self, keyword: &str) -> Option<Arc<DeweyListBuf>> {
        if self.capacity == 0 {
            return None;
        }
        let tick = self.bump();
        let mut slots = lock_unpoisoned(&self.slots);
        if let Some(slot) = slots.iter_mut().find(|s| s.keyword == keyword) {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(&slot.postings));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn insert(&self, keyword: &str, postings: Arc<DeweyListBuf>) {
        if self.capacity == 0 {
            return;
        }
        let last_used = self.bump();
        let slot = CacheSlot {
            keyword: keyword.to_owned(),
            postings,
            last_used,
        };
        let mut slots = lock_unpoisoned(&self.slots);
        if let Some(existing) = slots.iter_mut().find(|s| s.keyword == slot.keyword) {
            *existing = slot;
            return;
        }
        if slots.len() < self.capacity {
            slots.push(slot);
        } else {
            let lru = slots
                .iter_mut()
                .min_by_key(|s| s.last_used)
                .expect("capacity > 0");
            *lru = slot;
        }
    }
}

/// A decoded element-table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRecord {
    /// The node's Dewey code.
    pub dewey: Dewey,
    /// Label id into the label dictionary.
    pub label: u32,
    /// Depth (root = 0).
    pub level: u32,
    /// Label ids along the root path (the paper's label number
    /// sequence).
    pub label_path: Vec<u32>,
    /// `(min, max)` of the subtree content (the `element` table's cID).
    pub subtree_cid: Option<(String, String)>,
    /// `(min, max)` of the node's own content `Cv`.
    pub own_cid: Option<(String, String)>,
}

/// Aggregate facts about an open index, including live pool counters.
#[derive(Debug, Clone, Copy)]
pub struct IndexStats {
    /// Total file length.
    pub file_len: u64,
    /// Page size from the header.
    pub page_size: u32,
    /// Element rows.
    pub element_count: u64,
    /// Distinct keywords.
    pub keyword_count: u64,
    /// Labels in the dictionary.
    pub label_count: u64,
    /// Bytes of the postings section.
    pub postings_len: u64,
    /// Pages the postings section spans.
    pub postings_pages: u64,
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Keywords currently resident in the decoded-postings cache.
    pub postings_cache_entries: usize,
    /// Keyword lookups served from the decoded-postings cache.
    pub postings_cache_hits: u64,
    /// Keyword lookups that had to decode from pages.
    pub postings_cache_misses: u64,
    /// Nodes currently resident in the decoded-element cache.
    pub element_cache_entries: usize,
    /// Element lookups served from the decoded-element cache.
    pub element_cache_hits: u64,
    /// Element lookups that went through the paged binary search.
    pub element_cache_misses: u64,
}

impl xks_obs::MetricSource for IndexStats {
    /// Contributes every reader counter to a snapshot under `prefix`:
    /// structural facts as gauges (`<prefix>file_len`,
    /// `<prefix>pool.cached_pages`, ...), traffic as counters
    /// (`<prefix>pool.cache_hits`, `<prefix>postings_cache.misses`,
    /// ...) — one naming scheme shared by monolithic readers
    /// (`index.`) and shards (`index.shard.N.`).
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        snap.gauge(format!("{prefix}file_len"), self.file_len);
        snap.gauge(format!("{prefix}page_size"), u64::from(self.page_size));
        snap.gauge(format!("{prefix}element_count"), self.element_count);
        snap.gauge(format!("{prefix}keyword_count"), self.keyword_count);
        snap.gauge(format!("{prefix}label_count"), self.label_count);
        snap.gauge(format!("{prefix}postings_len"), self.postings_len);
        snap.gauge(format!("{prefix}postings_pages"), self.postings_pages);
        snap.gauge(
            format!("{prefix}pool.capacity_pages"),
            self.pool.capacity_pages as u64,
        );
        snap.gauge(
            format!("{prefix}pool.cached_pages"),
            self.pool.cached_pages as u64,
        );
        snap.counter(format!("{prefix}pool.pages_read"), self.pool.pages_read);
        snap.counter(format!("{prefix}pool.cache_hits"), self.pool.cache_hits);
        snap.counter(format!("{prefix}pool.cache_misses"), self.pool.cache_misses);
        snap.counter(format!("{prefix}pool.evictions"), self.pool.evictions);
        snap.gauge(
            format!("{prefix}postings_cache.entries"),
            self.postings_cache_entries as u64,
        );
        snap.counter(
            format!("{prefix}postings_cache.hits"),
            self.postings_cache_hits,
        );
        snap.counter(
            format!("{prefix}postings_cache.misses"),
            self.postings_cache_misses,
        );
        snap.gauge(
            format!("{prefix}element_cache.entries"),
            self.element_cache_entries as u64,
        );
        snap.counter(
            format!("{prefix}element_cache.hits"),
            self.element_cache_hits,
        );
        snap.counter(
            format!("{prefix}element_cache.misses"),
            self.element_cache_misses,
        );
        // Derived hit-rate ratios, emitted only for caches that saw
        // traffic — an untouched cache has no rate, not a NaN one.
        for (name, hits, misses) in [
            (
                "pool.hit_rate",
                self.pool.cache_hits,
                self.pool.cache_misses,
            ),
            (
                "postings_cache.hit_rate",
                self.postings_cache_hits,
                self.postings_cache_misses,
            ),
            (
                "element_cache.hit_rate",
                self.element_cache_hits,
                self.element_cache_misses,
            ),
        ] {
            let total = hits + misses;
            if total > 0 {
                snap.ratio(format!("{prefix}{name}"), hits as f64 / total as f64);
            }
        }
    }
}

/// Number of independently locked element-cache shards (power of two).
const ELEMENT_SHARDS: usize = 8;

/// A flush-on-full map of decoded element facts, shared via `Arc` so a
/// hit hands out the record without cloning its strings.
///
/// Thread-safe: the map is split into [`ELEMENT_SHARDS`] shards, each
/// behind its own `Mutex` and flushed independently when its slice of
/// the capacity fills, so concurrent element lookups on different
/// nodes rarely contend. Counters are relaxed atomics.
#[derive(Debug)]
struct ElementCache {
    shard_capacity: usize,
    shards: [Mutex<HashMap<Dewey, Option<Arc<SourceElement>>>>; ELEMENT_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ElementCache {
    fn new(capacity: usize) -> Self {
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(ELEMENT_SHARDS).max(1)
        };
        ElementCache {
            shard_capacity,
            shards: std::array::from_fn(|_| {
                Mutex::new(HashMap::with_capacity(shard_capacity.min(1024)))
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Shard index for a Dewey code: cheap component fold, masked to
    /// the power-of-two shard count.
    fn shard(&self, dewey: &Dewey) -> &Mutex<HashMap<Dewey, Option<Arc<SourceElement>>>> {
        let h = dewey
            .components()
            .iter()
            .fold(0u32, |h, c| h.wrapping_mul(31).wrapping_add(*c));
        &self.shards[(h as usize) & (ELEMENT_SHARDS - 1)]
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).len()).sum()
    }

    fn get(&self, dewey: &Dewey) -> Option<Option<Arc<SourceElement>>> {
        if self.shard_capacity == 0 {
            return None;
        }
        // Same recover-and-count poison policy as every other persist
        // lock site: a cache shard holds no invariant a panic can
        // break, so one panicked thread must not wedge element reads.
        let hit = lock_unpoisoned(self.shard(dewey)).get(dewey).cloned();
        match hit {
            Some(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, dewey: &Dewey, element: Option<Arc<SourceElement>>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut map = lock_unpoisoned(self.shard(dewey));
        if map.len() >= self.shard_capacity {
            map.clear();
        }
        map.insert(dewey.clone(), element);
    }
}

/// A read-only handle on an `.xks` index file, with small per-reader
/// caches of decoded postings and element facts in front of the buffer
/// pool.
///
/// `IndexReader` is `Send + Sync`: one opened index can serve many
/// query threads concurrently behind an `Arc` (the buffer pool is
/// sharded-locked, the caches are lock-guarded, and every counter is
/// atomic). See the workspace's `PERFORMANCE.md` "Concurrency model"
/// section for the lock layout.
#[derive(Debug)]
pub struct IndexReader {
    path: PathBuf,
    pool: BufferPool,
    header: Header,
    labels: Vec<String>,
    postings_cache: PostingsCache,
    element_cache: ElementCache,
}

impl IndexReader {
    /// Opens an index with default options.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Self::open_with(path, ReaderOptions::default())
    }

    /// Opens an index, validating magic, version, header checksum, and
    /// the label dictionary (checksummed and loaded eagerly — it is the
    /// only eagerly-read section). Use [`IndexReader::verify`] for a
    /// full-file integrity pass.
    pub fn open_with(path: &Path, options: ReaderOptions) -> Result<Self, PersistError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        let mut header_bytes = vec![0u8; HEADER_LEN.min(file_len as usize)];
        file.read_exact(&mut header_bytes)?;
        let header = Header::decode(&header_bytes)?;

        for section in Section::all() {
            let entry = header.section(section);
            if entry
                .offset
                .checked_add(entry.len)
                .is_none_or(|end| end > file_len)
            {
                return Err(PersistError::Truncated {
                    what: section.name(),
                });
            }
        }

        // Offset arrays must agree with the header counts — this also
        // bounds every later `idx * 8` (idx < count <= file_len / 8),
        // so crafted counts cannot overflow or index past the section.
        for (count, section) in [
            (header.element_count, Section::ElementOffsets),
            (header.keyword_count, Section::KeywordOffsets),
        ] {
            let entry = header.section(section);
            if count.checked_mul(8) != Some(entry.len) {
                return Err(PersistError::Corrupt {
                    what: format!(
                        "{} section holds {} bytes but the header count {} needs {}",
                        section.name(),
                        entry.len,
                        count,
                        count.saturating_mul(8),
                    ),
                });
            }
        }

        let labels_entry = header.section(Section::Labels);
        let labels_bytes =
            read_exact_at(&mut file, labels_entry.offset, labels_entry.len as usize)?;
        if crc32(&labels_bytes) != labels_entry.crc {
            return Err(PersistError::ChecksumMismatch { section: "labels" });
        }
        let labels = decode_labels(&labels_bytes, header.label_count)?;

        let pool = BufferPool::new(
            file,
            file_len,
            header.page_size as usize,
            options.pool_pages,
        );
        Ok(IndexReader {
            path: path.to_owned(),
            pool,
            header,
            labels,
            postings_cache: PostingsCache::new(options.postings_cache_keywords),
            element_cache: ElementCache::new(options.element_cache_nodes),
        })
    }

    /// Aggregate stats, including live buffer-pool counters.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let postings = self.header.section(Section::Postings);
        let page = u64::from(self.header.page_size);
        IndexStats {
            file_len: self.pool.file_len(),
            page_size: self.header.page_size,
            element_count: self.header.element_count,
            keyword_count: self.header.keyword_count,
            label_count: self.header.label_count,
            postings_len: postings.len,
            postings_pages: postings.len.div_ceil(page),
            pool: self.pool.stats(),
            postings_cache_entries: self.postings_cache.len(),
            postings_cache_hits: self.postings_cache.hits.load(Ordering::Relaxed),
            postings_cache_misses: self.postings_cache.misses.load(Ordering::Relaxed),
            element_cache_entries: self.element_cache.len(),
            element_cache_hits: self.element_cache.hits.load(Ordering::Relaxed),
            element_cache_misses: self.element_cache.misses.load(Ordering::Relaxed),
        }
    }

    /// The file this reader was opened from. Informational only — all
    /// reads (including [`IndexReader::verify`]) go through the file
    /// handle opened at [`IndexReader::open`] time, not this path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The label string for an id.
    #[must_use]
    pub fn label(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(String::as_str)
    }

    /// The whole label dictionary, in id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of element rows.
    #[must_use]
    pub fn element_count(&self) -> u64 {
        self.header.element_count
    }

    /// Number of distinct keywords.
    #[must_use]
    pub fn keyword_count(&self) -> u64 {
        self.header.keyword_count
    }

    /// On-disk format version of the opened file (see
    /// [`crate::format::VERSION`]). v2 files carry document
    /// frequencies in the dictionary; v1 files derive them on demand.
    #[must_use]
    pub fn format_version(&self) -> u16 {
        self.header.version
    }

    /// The decoded posting run for `keyword` as a shared flat arena
    /// (empty when the keyword is absent). Runs decode into a
    /// [`DeweyListBuf`] — one components vector + offsets instead of
    /// one heap code per posting — and land in a small per-reader LRU,
    /// so repeated keywords skip both the page reads and the
    /// prefix-delta decode.
    pub fn keyword_postings(&self, keyword: &str) -> Result<Arc<DeweyListBuf>, PersistError> {
        if let Some(cached) = self.postings_cache.get(keyword) {
            return Ok(cached);
        }
        let mut buf = DeweyListBuf::new();
        self.keyword_postings_into(keyword, &mut buf)?;
        let decoded = Arc::new(buf);
        self.postings_cache.insert(keyword, Arc::clone(&decoded));
        Ok(decoded)
    }

    /// Sorted Dewey postings for `keyword` (empty when absent), reading
    /// only the pages the lookup touches (and none at all on a postings
    /// cache hit).
    pub fn try_keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, PersistError> {
        Ok(self.keyword_postings(keyword)?.to_deweys())
    }

    /// Decodes `keyword`'s posting run directly into a **caller-owned**
    /// arena, bypassing the shared decoded-postings cache entirely: a
    /// warm arena re-decodes without allocating and without taking the
    /// cache lock, which suits vocabulary-scan workloads whose keywords
    /// would only churn the shared LRU. Returns the number of
    /// codes decoded; `buf` is cleared first.
    pub fn keyword_postings_into(
        &self,
        keyword: &str,
        buf: &mut DeweyListBuf,
    ) -> Result<usize, PersistError> {
        buf.clear();
        let Some(DictEntry {
            count,
            run_off,
            run_len,
            ..
        }) = self.find_keyword(keyword)?
        else {
            return Ok(0);
        };
        let postings = self.header.section(Section::Postings);
        if run_off
            .checked_add(run_len)
            .is_none_or(|end| end > postings.len)
        {
            return Err(PersistError::Corrupt {
                what: format!("postings run for {keyword:?} outside the postings section"),
            });
        }
        let bytes = self
            .pool
            .read_at(postings.offset + run_off, run_len as usize)?;
        let mut pos = 0;
        get_postings_into(&bytes, &mut pos, buf)?;
        if buf.len() as u64 != count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "postings run for {keyword:?} decodes {} codes, dictionary says {count}",
                    buf.len()
                ),
            });
        }
        Ok(buf.len())
    }

    /// Sealed selectivity statistics for `keyword`. On format-v2 files
    /// the document frequency comes straight from the dictionary entry
    /// (one binary search, no postings read); on v1 files it is derived
    /// on demand from the decoded posting run (served by the postings
    /// LRU, so repeats are free). Absent keywords yield zero stats.
    pub fn keyword_stats(&self, keyword: &str) -> Result<KeywordStats, PersistError> {
        match self.find_keyword(keyword)? {
            None => Ok(KeywordStats::default()),
            Some(DictEntry {
                count,
                doc_freq: Some(df),
                ..
            }) => Ok(KeywordStats {
                postings: count,
                docs: df,
                ..KeywordStats::default()
            }),
            Some(DictEntry { count, .. }) => {
                // v1 file: derive the document frequency lazily.
                let run = self.keyword_postings(keyword)?;
                let mut df = 0u64;
                let mut last: Option<Option<u32>> = None;
                for comps in run.iter() {
                    let doc = comps.get(1).copied();
                    if last != Some(doc) {
                        df += 1;
                        last = Some(doc);
                    }
                }
                Ok(KeywordStats {
                    postings: count,
                    docs: df,
                    ..KeywordStats::default()
                })
            }
        }
    }

    /// The element row for a Dewey code, `None` when absent. Binary
    /// search over the paged offset array; probes decode only the
    /// row's Dewey components — the rest (label path, content-feature
    /// strings) is decoded once, on the matching row.
    pub fn try_element(&self, dewey: &Dewey) -> Result<Option<ElementRecord>, PersistError> {
        let target = dewey.components();
        let mut lo = 0u64;
        let mut hi = self.header.element_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let row_off = self.offset_entry(Section::ElementOffsets, mid)?;
            let mut cursor = self.cursor(Section::Elements, row_off)?;
            let components = decode_row_dewey(&mut cursor)?;
            match components.as_slice().cmp(target) {
                std::cmp::Ordering::Equal => {
                    return Ok(Some(decode_row_rest(cursor, components)?));
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// The element row at table index `idx` (document order) —
    /// sequential enumeration for compaction's shard export, sharing
    /// the binary search's row decoders.
    pub fn element_record(&self, idx: u64) -> Result<ElementRecord, PersistError> {
        if idx >= self.header.element_count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "element index {idx} out of range (table has {} rows)",
                    self.header.element_count
                ),
            });
        }
        let row_off = self.offset_entry(Section::ElementOffsets, idx)?;
        let mut cursor = self.cursor(Section::Elements, row_off)?;
        let components = decode_row_dewey(&mut cursor)?;
        decode_row_rest(cursor, components)
    }

    /// The keyword at dictionary index `idx` (lexicographic order)
    /// together with its decoded posting list — sequential enumeration
    /// for compaction's shard export. Bypasses the postings LRU: an
    /// export sweep would only churn it.
    pub fn keyword_at(&self, idx: u64) -> Result<(String, Vec<Dewey>), PersistError> {
        if idx >= self.header.keyword_count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "keyword index {idx} out of range (dictionary has {} entries)",
                    self.header.keyword_count
                ),
            });
        }
        let entry_off = self.offset_entry(Section::KeywordOffsets, idx)?;
        let mut cursor = self.cursor(Section::KeywordDict, entry_off)?;
        let word = cursor.read_str()?;
        let count = cursor.read_varint()?;
        let run_off = cursor.read_varint()?;
        let run_len = cursor.read_varint()?;
        let postings = self.header.section(Section::Postings);
        if run_off
            .checked_add(run_len)
            .is_none_or(|end| end > postings.len)
        {
            return Err(PersistError::Corrupt {
                what: format!("postings run for {word:?} outside the postings section"),
            });
        }
        let bytes = self
            .pool
            .read_at(postings.offset + run_off, run_len as usize)?;
        let mut pos = 0;
        let deweys = crate::codec::get_postings(&bytes, &mut pos)?;
        if deweys.len() as u64 != count {
            return Err(PersistError::Corrupt {
                what: format!(
                    "postings run for {word:?} decodes {} codes, dictionary says {count}",
                    deweys.len()
                ),
            });
        }
        Ok((word, deweys))
    }

    /// Verifies every section checksum by streaming the open index in
    /// fixed-size chunks (O(chunk) memory however large the index).
    /// Reads go through the pool's own file handle, so the bytes
    /// checked are the same inode lookups are served from even if the
    /// file on disk has since been replaced by a rebuild.
    pub fn verify(&self) -> Result<(), PersistError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut chunk = vec![0u8; 64 * 1024];
        for section in Section::all() {
            let entry = self.header.section(section);
            let crc = self
                .pool
                .with_file(|mut file| -> Result<u32, PersistError> {
                    file.seek(SeekFrom::Start(entry.offset))?;
                    let mut crc = Crc32::new();
                    let mut remaining = entry.len as usize;
                    while remaining > 0 {
                        let take = remaining.min(chunk.len());
                        file.read_exact(&mut chunk[..take])?;
                        crc.update(&chunk[..take]);
                        remaining -= take;
                    }
                    Ok(crc.finish())
                })?;
            if crc != entry.crc {
                return Err(PersistError::ChecksumMismatch {
                    section: section.name(),
                });
            }
        }
        Ok(())
    }

    /// The element facts for `dewey` through the decoded-element cache:
    /// a hit skips the paged binary search entirely and shares the
    /// record via `Arc` (no string clones for label-only callers).
    fn cached_element(&self, dewey: &Dewey) -> Result<Option<Arc<SourceElement>>, PersistError> {
        if let Some(found) = self.element_cache.get(dewey) {
            return Ok(found);
        }
        let decoded = self.try_element(dewey)?.map(|record| {
            Arc::new(SourceElement {
                label: record.label,
                level: record.level,
                keyword_cid: record.own_cid,
            })
        });
        self.element_cache.insert(dewey, decoded.clone());
        Ok(decoded)
    }

    // ---------------------------------------------------------- internal

    /// Reads entry `idx` of a `u64` offset array section (stack buffer,
    /// no heap allocation — this runs once per binary-search probe).
    fn offset_entry(&self, section: Section, idx: u64) -> Result<u64, PersistError> {
        let entry = self.header.section(section);
        let (bytes, n) = self.pool.read_small(entry.offset + idx * 8, 8)?;
        debug_assert_eq!(n, 8);
        Ok(u64::from_le_bytes(bytes[..8].try_into().expect("read 8")))
    }

    /// Binary search in the keyword dictionary; the document frequency
    /// is stored from format v2 on, `None` for v1 files.
    fn find_keyword(&self, keyword: &str) -> Result<Option<DictEntry>, PersistError> {
        let mut lo = 0u64;
        let mut hi = self.header.keyword_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let entry_off = self.offset_entry(Section::KeywordOffsets, mid)?;
            let mut cursor = self.cursor(Section::KeywordDict, entry_off)?;
            let word = cursor.read_str()?;
            match word.as_str().cmp(keyword) {
                std::cmp::Ordering::Equal => {
                    let count = cursor.read_varint()?;
                    let run_off = cursor.read_varint()?;
                    let run_len = cursor.read_varint()?;
                    let doc_freq = if self.header.version >= 2 {
                        Some(cursor.read_varint()?)
                    } else {
                        None
                    };
                    return Ok(Some(DictEntry {
                        count,
                        run_off,
                        run_len,
                        doc_freq,
                    }));
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    fn cursor(&self, section: Section, rel_off: u64) -> Result<SectionCursor<'_>, PersistError> {
        let entry = self.header.section(section);
        if rel_off > entry.len {
            return Err(PersistError::Corrupt {
                what: format!("offset {rel_off} outside section {}", section.name()),
            });
        }
        Ok(SectionCursor {
            pool: &self.pool,
            pos: entry.offset + rel_off,
            end: entry.offset + entry.len,
        })
    }
}

/// One decoded keyword-dictionary entry: posting count, the posting
/// run's offset/length, and (v2 files only) the document frequency.
struct DictEntry {
    count: u64,
    run_off: u64,
    run_len: u64,
    doc_freq: Option<u64>,
}

/// Sequential decoder over one section, pulling bytes through the pool.
struct SectionCursor<'a> {
    pool: &'a BufferPool,
    pos: u64,
    end: u64,
}

impl SectionCursor<'_> {
    fn read_varint(&mut self) -> Result<u64, PersistError> {
        let avail = (self.end - self.pos).min(10) as usize;
        let (bytes, n) = self.pool.read_small(self.pos, avail)?;
        let mut pos = 0;
        let v = get_varint(&bytes[..n], &mut pos)?;
        self.pos += pos as u64;
        Ok(v)
    }

    fn read_u32(&mut self) -> Result<u32, PersistError> {
        let v = self.read_varint()?;
        u32::try_from(v).map_err(|_| PersistError::Corrupt {
            what: "field overflows u32".to_owned(),
        })
    }

    /// Upper bound on how many one-byte-or-more items the rest of the
    /// section could hold (for clamping corruption-controlled counts).
    fn plausible_items(&self) -> usize {
        (self.end - self.pos) as usize + 1
    }

    fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, PersistError> {
        if self
            .pos
            .checked_add(len as u64)
            .is_none_or(|end| end > self.end)
        {
            return Err(PersistError::Truncated {
                what: "record ran past the end of its section",
            });
        }
        let bytes = self.pool.read_at(self.pos, len)?;
        self.pos += len as u64;
        Ok(bytes)
    }

    fn read_str(&mut self) -> Result<String, PersistError> {
        let len = self.read_varint()? as usize;
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes).map_err(|_| PersistError::Corrupt {
            what: "string is not valid UTF-8".to_owned(),
        })
    }

    fn read_cid(&mut self) -> Result<Option<(String, String)>, PersistError> {
        match self.read_bytes(1)?[0] {
            0 => Ok(None),
            1 => {
                let min = self.read_str()?;
                let max = self.read_str()?;
                Ok(Some((min, max)))
            }
            other => Err(PersistError::Corrupt {
                what: format!("content-feature tag {other} (expected 0 or 1)"),
            }),
        }
    }
}

/// Decodes the leading Dewey components of an element row — all a
/// binary-search probe needs.
///
/// Counts come from a lazily-read (non-CRC-checked) section, so
/// capacities are clamped to what the remaining section bytes could
/// plausibly hold — a corrupt count yields a typed error from the
/// per-item reads, never an oversized allocation.
fn decode_row_dewey(cursor: &mut SectionCursor<'_>) -> Result<Vec<u32>, PersistError> {
    let ncomp = cursor.read_varint()? as usize;
    let mut components = Vec::with_capacity(ncomp.min(cursor.plausible_items()));
    for _ in 0..ncomp {
        let c = cursor.read_varint()?;
        components.push(u32::try_from(c).map_err(|_| PersistError::Corrupt {
            what: "Dewey component overflows u32".to_owned(),
        })?);
    }
    Ok(components)
}

/// Decodes the remainder of an element row once the Dewey matched.
fn decode_row_rest(
    mut cursor: SectionCursor<'_>,
    components: Vec<u32>,
) -> Result<ElementRecord, PersistError> {
    let label = cursor.read_u32()?;
    let level = cursor.read_u32()?;
    let path_len = cursor.read_varint()? as usize;
    let mut label_path = Vec::with_capacity(path_len.min(cursor.plausible_items()));
    for _ in 0..path_len {
        label_path.push(cursor.read_u32()?);
    }
    let subtree_cid = cursor.read_cid()?;
    let own_cid = cursor.read_cid()?;
    Ok(ElementRecord {
        dewey: Dewey::from_components(components),
        label,
        level,
        label_path,
        subtree_cid,
        own_cid,
    })
}

fn read_exact_at(file: &mut File, offset: u64, len: usize) -> Result<Vec<u8>, PersistError> {
    use std::io::{Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

fn decode_labels(bytes: &[u8], expected: u64) -> Result<Vec<String>, PersistError> {
    let mut pos = 0;
    let count = get_varint(bytes, &mut pos)?;
    if count != expected {
        return Err(PersistError::Corrupt {
            what: format!("label section holds {count} labels, header says {expected}"),
        });
    }
    let plausible = bytes.len().saturating_sub(pos) + 1;
    let mut labels = Vec::with_capacity((count as usize).min(plausible));
    for _ in 0..count {
        labels.push(crate::codec::get_str(bytes, &mut pos)?);
    }
    Ok(labels)
}

/// Every [`PersistError`] (I/O, truncation, checksum, corruption)
/// surfaces as a typed [`SourceError`], keeping the engine's execute
/// path panic-free on any backend failure.
impl CorpusSource for IndexReader {
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        self.try_keyword_deweys(keyword).map_err(SourceError::new)
    }

    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        Ok(self
            .cached_element(dewey)
            .map_err(SourceError::new)?
            .map(|rc| (*rc).clone()))
    }

    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self
            .cached_element(dewey)
            .map_err(SourceError::new)?
            .map(|rc| rc.label))
    }

    fn label_name(&self, label: u32) -> Option<String> {
        self.label(label).map(str::to_owned)
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // An I/O failure degrades to "no sealed stats" (legacy merge
        // path) rather than surfacing an error mid-planning.
        IndexReader::keyword_stats(self, keyword).ok()
    }
}

impl xks_obs::MetricSource for IndexReader {
    /// A live reader contributes its current [`IndexReader::stats`]
    /// reading (buffer pool, postings LRU, element-cache shards) to a
    /// snapshot — the collection path behind `xks stats`.
    fn collect_into(&self, prefix: &str, snap: &mut xks_obs::Snapshot) {
        self.stats().collect_into(prefix, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::writer::IndexWriter;
    use xks_store::shred;
    use xks_xmltree::fixtures::{publications, team};

    fn temp_path(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("reader-test");
        let path = dir.join(name);
        (dir, path)
    }

    fn open_publications(name: &str) -> (TempDir, IndexReader, PathBuf) {
        let (dir, path) = temp_path(name);
        IndexWriter::new()
            .write_tree(&publications(), &path)
            .unwrap();
        (dir, IndexReader::open(&path).unwrap(), path)
    }

    #[test]
    fn open_reads_only_header_and_labels() {
        let (_dir, reader, path) = open_publications("lazy-open.xks");
        let stats = reader.stats();
        assert_eq!(stats.pool.pages_read, 0, "no pool pages at open");
        assert!(stats.label_count > 5);
        assert_eq!(reader.label(0).unwrap(), "Publications");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keyword_lookup_matches_store() {
        let (_dir, reader, path) = open_publications("kw.xks");
        let doc = shred(&publications());
        for kw in ["liu", "keyword", "xml", "title", "skyline"] {
            let got: Vec<String> = reader
                .try_keyword_deweys(kw)
                .unwrap()
                .iter()
                .map(ToString::to_string)
                .collect();
            let want: Vec<String> = doc
                .keyword_deweys(kw)
                .iter()
                .map(ToString::to_string)
                .collect();
            assert_eq!(got, want, "{kw}");
        }
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn element_lookup_matches_store() {
        let (_dir, reader, path) = open_publications("elem.xks");
        let doc = shred(&publications());
        for row in &doc.elements {
            let dewey: Dewey = row.dewey.parse().unwrap();
            let record = reader.try_element(&dewey).unwrap().expect("present");
            assert_eq!(record.label, row.label);
            assert_eq!(record.level, row.level);
            assert_eq!(record.label_path, row.label_path);
            assert_eq!(record.subtree_cid, row.content_feature);
        }
        assert!(reader
            .try_element(&"0.9.9".parse().unwrap())
            .unwrap()
            .is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_index_reads_identically_with_derived_stats() {
        // Write the same corpus at format v1 (no dictionary document
        // frequencies) and v2: every lookup must agree, and
        // `keyword_stats` on v1 must derive the df that v2 stores.
        let (_v1_dir, v1_path) = temp_path("compat-v1.xks");
        let (_v2_dir, v2_path) = temp_path("compat-v2.xks");
        IndexWriter::new()
            .with_format_version(1)
            .unwrap()
            .write_tree(&publications(), &v1_path)
            .unwrap();
        IndexWriter::new()
            .write_tree(&publications(), &v2_path)
            .unwrap();
        let v1 = IndexReader::open(&v1_path).unwrap();
        let v2 = IndexReader::open(&v2_path).unwrap();
        assert_eq!(v1.format_version(), 1);
        assert_eq!(v2.format_version(), 2);

        // v1 open stays as lazy as v2: header + labels only.
        assert_eq!(v1.stats().pool.pages_read, 0);

        let doc = shred(&publications());
        let mut keywords: Vec<&str> = doc.keyword_stats().map(|(kw, _)| kw).collect();
        keywords.push("unobtainium");
        for kw in keywords {
            assert_eq!(
                v1.try_keyword_deweys(kw).unwrap(),
                v2.try_keyword_deweys(kw).unwrap(),
                "{kw}: postings differ across format versions"
            );
            assert_eq!(
                v1.keyword_stats(kw).unwrap(),
                v2.keyword_stats(kw).unwrap(),
                "{kw}: derived v1 stats differ from stored v2 stats"
            );
        }
        for row in &doc.elements {
            let dewey: Dewey = row.dewey.parse().unwrap();
            assert_eq!(
                v1.try_element(&dewey).unwrap(),
                v2.try_element(&dewey).unwrap()
            );
        }
        v1.verify().unwrap();
        v2.verify().unwrap();

        // Out-of-range versions are rejected at the writer.
        assert!(IndexWriter::new().with_format_version(0).is_err());
        assert!(IndexWriter::new().with_format_version(3).is_err());
        std::fs::remove_file(&v1_path).unwrap();
        std::fs::remove_file(&v2_path).unwrap();
    }

    #[test]
    fn corpus_source_impl_serves_engine_facts() {
        let (_dir, reader, path) = open_publications("source.xks");
        let title = CorpusSource::element(&reader, &"0.2.0.1".parse().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(reader.label_name(title.label).as_deref(), Some("title"));
        assert_eq!(title.keyword_cid, Some(("keyword".into(), "xml".into())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn postings_cache_serves_repeats_without_page_reads() {
        let (_dir, reader, path) = open_publications("postings-cache.xks");
        let first = reader.try_keyword_deweys("keyword").unwrap();
        let after_first = reader.stats();
        assert_eq!(after_first.postings_cache_misses, 1);

        let second = reader.try_keyword_deweys("keyword").unwrap();
        let after_second = reader.stats();
        assert_eq!(first, second);
        // The repeat is served from the decoded-postings LRU: no new
        // pool traffic of any kind, one recorded cache hit.
        assert_eq!(after_second.pool.pages_read, after_first.pool.pages_read);
        assert_eq!(after_second.pool.cache_hits, after_first.pool.cache_hits);
        assert_eq!(after_second.postings_cache_hits, 1);
        assert!(after_second.postings_cache_entries >= 1);

        // Absent keywords are cached too (negative lookups).
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert!(reader.try_keyword_deweys("unobtainium").unwrap().is_empty());
        assert_eq!(reader.stats().postings_cache_hits, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn keyword_postings_into_bypasses_shared_cache() {
        let (_dir, reader, path) = open_publications("ctx-decode.xks");
        let mut arena = DeweyListBuf::new();
        for kw in ["keyword", "liu", "keyword", "unobtainium"] {
            let n = reader.keyword_postings_into(kw, &mut arena).unwrap();
            assert_eq!(n, arena.len());
            assert_eq!(
                arena.to_deweys(),
                reader.try_keyword_deweys(kw).unwrap(),
                "{kw}"
            );
        }
        // Per-context decodes never populate (or hit) the shared LRU —
        // the try_keyword_deweys calls above account for all of its
        // traffic (4 lookups: keyword, liu, keyword-again = 1 hit,
        // unobtainium).
        let stats = reader.stats();
        assert_eq!(stats.postings_cache_hits, 1);
        assert_eq!(stats.postings_cache_misses, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn postings_cache_evicts_least_recently_used() {
        let (_dir, path) = temp_path("postings-cache-evict.xks");
        IndexWriter::new()
            .write_tree(&publications(), &path)
            .unwrap();
        let reader = IndexReader::open_with(
            &path,
            ReaderOptions {
                pool_pages: 256,
                postings_cache_keywords: 2,
                ..ReaderOptions::default()
            },
        )
        .unwrap();
        for kw in ["liu", "keyword", "xml"] {
            reader.try_keyword_deweys(kw).unwrap();
        }
        let stats = reader.stats();
        assert_eq!(stats.postings_cache_entries, 2, "capacity respected");
        // "liu" was evicted by "xml"; re-reading it is a miss, while
        // "xml" (most recent) stays a hit.
        reader.try_keyword_deweys("xml").unwrap();
        assert_eq!(reader.stats().postings_cache_hits, 1);
        reader.try_keyword_deweys("liu").unwrap();
        assert_eq!(reader.stats().postings_cache_misses, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IndexReader>();
    }

    #[test]
    fn concurrent_lookups_share_one_reader() {
        let (_dir, reader, path) = open_publications("mt-reader.xks");
        let doc = shred(&publications());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = &reader;
                let doc = &doc;
                scope.spawn(move || {
                    for _ in 0..8 {
                        for kw in ["liu", "keyword", "xml", "title", "skyline"] {
                            assert_eq!(
                                reader.try_keyword_deweys(kw).unwrap(),
                                doc.keyword_deweys(kw),
                                "{kw}"
                            );
                        }
                        for row in doc.elements.iter().take(10) {
                            let dewey: Dewey = row.dewey.parse().unwrap();
                            let element = CorpusSource::element(reader, &dewey)
                                .unwrap()
                                .expect("present");
                            assert_eq!(element.label, row.label);
                        }
                    }
                });
            }
        });
        let stats = reader.stats();
        assert!(stats.postings_cache_hits > 0, "repeats must hit the cache");
        assert!(stats.element_cache_hits > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_passes_on_clean_file() {
        let (_dir, path) = temp_path("verify.xks");
        IndexWriter::new().write_tree(&team(), &path).unwrap();
        let reader = IndexReader::open(&path).unwrap();
        reader.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn small_pool_still_answers_with_evictions() {
        let (_dir, path) = temp_path("small-pool.xks");
        IndexWriter::with_page_size(512)
            .unwrap()
            .write_tree(&publications(), &path)
            .unwrap();
        let reader = IndexReader::open_with(
            &path,
            ReaderOptions {
                pool_pages: 1,
                postings_cache_keywords: 0,
                ..ReaderOptions::default()
            },
        )
        .unwrap();
        let doc = shred(&publications());
        for kw in ["liu", "keyword", "xml", "liu"] {
            let got = reader.try_keyword_deweys(kw).unwrap();
            assert_eq!(got, doc.keyword_deweys(kw), "{kw}");
        }
        // Capacity is clamped to 8 pages; with 512-byte pages the three
        // distinct lookups still force traffic through the tiny pool.
        assert!(reader.stats().pool.pages_read > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
