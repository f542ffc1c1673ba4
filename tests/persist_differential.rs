//! Differential test for the persistence subsystem: over generated DBLP
//! and XMark corpora and the full Figure 5/6 workloads (43 queries),
//! `SearchEngine` results over an `xks-persist` `IndexReader` must be
//! **byte-identical** — same fragments, same order after ranking — to
//! results over the in-memory `ShreddedDoc` backend. The buffer-pool
//! counters additionally prove the reader never slurps the postings
//! section eagerly.

mod common;

use std::sync::Arc;

use common::TempDir;
use xks::core::rank::RankWeights;
use xks::core::{AlgorithmKind, CorpusSource, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::index::Query;
use xks::persist::{IndexReader, IndexWriter};
use xks::store::shred;
use xks::xmltree::XmlTree;

struct Corpora {
    name: &'static str,
    tree: XmlTree,
    workload: Vec<(&'static str, String)>,
}

fn corpora() -> Vec<Corpora> {
    vec![
        Corpora {
            name: "dblp",
            tree: generate_dblp(&DblpConfig::with_records(1_000, 42)),
            workload: dblp_workload(),
        },
        Corpora {
            name: "xmark",
            tree: generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
            workload: xmark_workload(),
        },
    ]
}

#[test]
fn disk_and_memory_backends_are_byte_identical() {
    let dir = TempDir::new("disk_and_memory_backends_are_byte_identical");
    let mut queries_checked = 0usize;
    let mut nonempty = 0usize;
    for corpus in corpora() {
        let doc = shred(&corpus.tree);
        let path = dir.join(format!("{}.xks", corpus.name));
        IndexWriter::new().write(&doc, &path).unwrap();

        let reader = Arc::new(IndexReader::open(&path).unwrap());
        assert_eq!(
            reader.stats().pool.pages_read,
            0,
            "{}: open must not touch data pages through the pool",
            corpus.name
        );

        let memory = SearchEngine::from_owned_source(MemoryCorpus::new(doc));
        // One opened index (one buffer pool, one set of caches) backs
        // the engine while this test keeps reading its stats — the
        // shared index-handle pattern.
        let disk = SearchEngine::from_source(Arc::clone(&reader) as Arc<dyn CorpusSource>);
        let weights = RankWeights::default();

        for (abbrev, keywords) in &corpus.workload {
            let query = Query::parse(keywords).unwrap();
            for kind in [
                AlgorithmKind::ValidRtf,
                AlgorithmKind::MaxMatchRtf,
                AlgorithmKind::MaxMatchSlca,
            ] {
                // Ranked requests through the one execute path: hits,
                // scores, and signals must all agree across backends.
                let request = SearchRequest::from_query(query.clone())
                    .algorithm(kind)
                    .weights(weights);
                let m = memory.execute(&request).unwrap();
                let d = disk.execute(&request).unwrap();
                assert_eq!(
                    m.hits, d.hits,
                    "{}/{abbrev}/{kind:?}: hits diverge",
                    corpus.name
                );
                assert_eq!(m.stats, d.stats, "{}/{abbrev}/{kind:?}", corpus.name);
                // Rendered output must match byte for byte too (labels
                // resolve through each backend's own dictionary).
                let mem_text: Vec<String> = m
                    .fragments()
                    .map(|f| f.render_source(memory.corpus()))
                    .collect();
                let disk_text: Vec<String> = d
                    .fragments()
                    .map(|f| f.render_source(disk.corpus()))
                    .collect();
                assert_eq!(
                    mem_text, disk_text,
                    "{}/{abbrev}/{kind:?}: rendering diverges",
                    corpus.name
                );
                if !m.hits.is_empty() {
                    nonempty += 1;
                }
            }
            queries_checked += 1;
        }

        let stats = reader.stats();
        let total_pages = stats.file_len / u64::from(stats.page_size);
        assert!(
            stats.pool.pages_read > 0,
            "{}: queries must flow through the pool",
            corpus.name
        );
        assert!(
            stats.pool.cache_hits > stats.pool.cache_misses,
            "{}: repeated lookups should mostly hit the cache \
             (hits {} vs misses {})",
            corpus.name,
            stats.pool.cache_hits,
            stats.pool.cache_misses
        );
        eprintln!(
            "{}: {} file pages, {} fetched, {} hits over the whole workload",
            corpus.name, total_pages, stats.pool.pages_read, stats.pool.cache_hits
        );
        std::fs::remove_file(&path).unwrap();
    }
    assert!(queries_checked >= 20, "only {queries_checked} queries");
    assert!(nonempty >= 20, "only {nonempty} non-empty results");
}

#[test]
fn single_query_reads_a_fraction_of_the_postings_section() {
    let tree = generate_dblp(&DblpConfig::with_records(2_000, 7));
    let doc = shred(&tree);
    let dir = TempDir::new("single_query_reads_a_fraction_of_the_postings_section");
    let path = dir.join("lazy-postings.xks");
    IndexWriter::new().write(&doc, &path).unwrap();

    let reader = IndexReader::open(&path).unwrap();
    let stats = reader.stats();
    assert!(
        stats.postings_pages >= 4,
        "corpus too small to demonstrate laziness ({} postings pages)",
        stats.postings_pages
    );
    assert_eq!(stats.pool.pages_read, 0);

    // Resolve one two-keyword query directly against the reader.
    for kw in ["data", "algorithm"] {
        assert!(!reader.try_keyword_deweys(kw).unwrap().is_empty());
    }
    let after = reader.stats();
    assert!(
        after.pool.pages_read < after.postings_pages,
        "one query fetched {} pages — at least the {}-page postings \
         section was slurped eagerly",
        after.pool.pages_read,
        after.postings_pages
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_and_index_agree_after_reload() {
    // shred → JSON snapshot → load → MemoryCorpus  must equal
    // shred → .xks → IndexReader, for postings and element facts.
    let tree = generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 30, 11));
    let doc = shred(&tree);

    let dir = TempDir::new("snapshot_and_index_agree_after_reload");
    let json_path = dir.join("snapshot-agree.json");
    let xks_path = dir.join("snapshot-agree.xks");
    xks::store::snapshot::save(&doc, &json_path).unwrap();
    IndexWriter::new().write(&doc, &xks_path).unwrap();

    let from_json = MemoryCorpus::new(xks::store::snapshot::load(&json_path).unwrap());
    let from_disk = IndexReader::open(&xks_path).unwrap();

    for kw in ["particle", "egypt", "description", "order", "leon"] {
        let postings = from_json.keyword_deweys(kw).unwrap();
        assert_eq!(postings, from_disk.keyword_deweys(kw).unwrap(), "{kw}");
        for dewey in postings.iter().take(5) {
            assert_eq!(
                from_json.element(dewey).unwrap(),
                from_disk.element(dewey).unwrap(),
                "{kw} @ {dewey}"
            );
        }
    }
    std::fs::remove_file(&json_path).unwrap();
    std::fs::remove_file(&xks_path).unwrap();
}
