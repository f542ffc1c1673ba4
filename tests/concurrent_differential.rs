//! Concurrent differential test: N threads share ONE engine (one
//! corpus, one buffer pool, one set of caches) and each runs the full
//! 43-query Figure 5/6 workload × 3 algorithms independently with its
//! own `QueryContext`. Every thread's digest must match the golden
//! digest in `tests/golden/workload_digest.txt` **byte for byte**, on
//! both the memory and the disk backend — proving the `Send + Sync`
//! refactor changed concurrency, not results, and that no interleaving
//! of pool/cache traffic can corrupt a query.
//!
//! Thread count defaults to 4; CI raises it via the
//! `XKS_CONCURRENT_THREADS` env var to shake the locks harder.

mod common;

use std::sync::Arc;

use common::{digest_line, TempDir, ALGORITHMS, GOLDEN};
use xks::core::{CorpusSource, MemoryCorpus, QueryContext, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{IndexReader, IndexWriter};
use xks::store::shred;

fn thread_count() -> usize {
    std::env::var("XKS_CONCURRENT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// One thread's full pass over one corpus' workload: every query × all
/// three algorithms through `execute_with` and a private context,
/// digested exactly like `tests/workload_golden.rs` digests them (the
/// line format is shared via `tests/common`).
fn digest_corpus(
    corpus: &str,
    engine: &SearchEngine,
    workload: &[(&'static str, String)],
) -> Vec<String> {
    let source = engine.corpus();
    let mut ctx = QueryContext::new();
    let mut lines = Vec::new();
    for (abbrev, keywords) in workload {
        let request = SearchRequest::parse(keywords).unwrap();
        for kind in ALGORITHMS {
            let response = engine
                .execute_with(&request.clone().algorithm(kind), &mut ctx)
                .unwrap();
            let fragments: Vec<xks::core::Fragment> = response.into_fragments();
            lines.push(digest_line(corpus, abbrev, kind, &fragments, source));
        }
    }
    lines
}

/// One corpus ready to query: name, shared engine, workload queries.
type CorpusUnderTest = (&'static str, SearchEngine, Vec<(&'static str, String)>);

/// Runs the differential over a backend builder: every thread digests
/// the whole workload against the SAME two engines and must reproduce
/// the golden file exactly.
fn run_backend(make_engine: impl Fn(xks::store::ShreddedDoc, &str) -> SearchEngine) {
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden digest missing; bless it via tests/workload_golden.rs");
    let threads = thread_count();

    let corpora = [
        (
            "dblp",
            shred(&generate_dblp(&DblpConfig::with_records(1_000, 42))),
            dblp_workload(),
        ),
        (
            "xmark",
            shred(&generate_xmark(&XmarkConfig::sized(
                XmarkSize::Standard,
                60,
                42,
            ))),
            xmark_workload(),
        ),
    ];
    let engines: Vec<CorpusUnderTest> = corpora
        .into_iter()
        .map(|(name, doc, workload)| (name, make_engine(doc, name), workload))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engines = &engines;
                scope.spawn(move || {
                    let mut lines = Vec::new();
                    for (name, engine, workload) in engines {
                        lines.extend(digest_corpus(name, engine, workload));
                    }
                    lines.join("\n") + "\n"
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let rendered = handle.join().expect("digest thread panicked");
            assert_eq!(
                rendered, golden,
                "thread {t}/{threads} diverged from the golden digest"
            );
        }
    });
}

#[test]
fn concurrent_threads_reproduce_golden_digest_memory() {
    run_backend(|doc, _| SearchEngine::from_owned_source(MemoryCorpus::new(doc)));
}

#[test]
fn concurrent_threads_reproduce_golden_digest_disk() {
    let dir = TempDir::new("concurrent_threads_reproduce_golden_digest_disk");
    run_backend(|doc, name| {
        let path = dir.join(format!("{name}.xks"));
        IndexWriter::new().write(&doc, &path).unwrap();
        SearchEngine::from_owned_source(IndexReader::open(&path).unwrap())
    });
}

#[test]
fn one_shared_reader_backs_engines_on_many_threads() {
    // The index-handle pattern end to end: ONE opened .xks file (one
    // pool, one postings cache) behind an Arc, a separate engine per
    // thread on top of it.
    let dir = TempDir::new("one_shared_reader_backs_engines_on_many_threads");
    let doc = shred(&generate_dblp(&DblpConfig::with_records(1_000, 42)));
    let path = dir.join("shared-handle.xks");
    IndexWriter::new().write(&doc, &path).unwrap();
    let reader: Arc<IndexReader> = Arc::new(IndexReader::open(&path).unwrap());

    let workload = dblp_workload();
    let baseline = {
        let engine = SearchEngine::from_source(Arc::clone(&reader) as Arc<dyn CorpusSource>);
        digest_corpus("dblp", &engine, &workload)
    };
    std::thread::scope(|scope| {
        for _ in 0..thread_count() {
            let reader = Arc::clone(&reader);
            let workload = &workload;
            let baseline = &baseline;
            scope.spawn(move || {
                let engine = SearchEngine::from_source(reader as Arc<dyn CorpusSource>);
                assert_eq!(&digest_corpus("dblp", &engine, workload), baseline);
            });
        }
    });
    let stats = reader.stats();
    assert!(
        stats.postings_cache_hits > 0,
        "threads must share the one postings cache"
    );
}
