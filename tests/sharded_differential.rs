//! Sharded-vs-unsharded differential over the 43-query golden workload.
//!
//! The sharded read path must be **byte-identical** to the unsharded
//! one — same fragments, same rendering, same stats — whatever the
//! shard count or backend. This test replays the full Figure 5/6
//! workload (DBLP + XMark, 43 queries × 3 algorithms) through sharded
//! engines at 1, 2, and 4 shards on **both** backends:
//!
//! * **memory** — `xks_store::partition` parts wrapped in
//!   `MemoryCorpus` shards under a `validrtf::ShardSet`;
//! * **disk** — `xks_persist::write_sharded` corpora reopened through
//!   `ShardedCorpus`, searched both via its shard set
//!   (`SearchEngine::from_shard_set`) and via the corpus itself as a
//!   `CorpusSource`,
//!
//! and asserts every configuration reproduces
//! `tests/golden/workload_digest.txt` line for line — the digest
//! captured before the zero-allocation rewrite and pinned ever since.
//! A corrupted shard manifest must fail open with a typed error, never
//! panic or serve wrong results.

mod common;

use std::sync::Arc;

use common::{digest_line, TempDir, ALGORITHMS, GOLDEN};
use xks::core::{CorpusSource, MemoryCorpus, RankWeights, SearchEngine, SearchRequest, ShardSet};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{write_sharded, IndexWriter, PersistError, ShardedCorpus};
use xks::store::{partition, shred, ShreddedDoc};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

struct Corpus {
    name: &'static str,
    doc: ShreddedDoc,
    workload: Vec<(&'static str, String)>,
}

fn corpora() -> Vec<Corpus> {
    vec![
        Corpus {
            name: "dblp",
            doc: shred(&generate_dblp(&DblpConfig::with_records(1_000, 42))),
            workload: dblp_workload(),
        },
        Corpus {
            name: "xmark",
            doc: shred(&generate_xmark(&XmarkConfig::sized(
                XmarkSize::Standard,
                60,
                42,
            ))),
            workload: xmark_workload(),
        },
    ]
}

fn golden_lines() -> Vec<String> {
    std::fs::read_to_string(GOLDEN)
        .expect("golden digest present")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Runs one corpus's workload through `engine` and returns its digest
/// lines (same format as the golden file).
fn digest_corpus(engine: &SearchEngine, corpus: &Corpus) -> Vec<String> {
    let source = engine.corpus();
    let mut lines = Vec::new();
    for (abbrev, keywords) in &corpus.workload {
        let request = SearchRequest::parse(keywords).unwrap();
        for kind in ALGORITHMS {
            let response = engine.execute(&request.clone().algorithm(kind)).unwrap();
            let fragments: Vec<xks::core::Fragment> = response.into_fragments();
            lines.push(digest_line(corpus.name, abbrev, kind, &fragments, source));
        }
    }
    lines
}

fn memory_shard_set(doc: &ShreddedDoc, shards: usize) -> ShardSet {
    let parts = partition(doc, shards);
    let first_docs: Vec<u32> = parts.iter().map(|p| p.first_doc).collect();
    let sources: Vec<Arc<dyn CorpusSource>> = parts
        .into_iter()
        .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
        .collect();
    ShardSet::new(sources, first_docs).unwrap()
}

#[test]
fn sharded_backends_reproduce_the_golden_digest() {
    let golden = golden_lines();
    let corpora = corpora();
    assert_eq!(golden.len(), 43 * 3, "golden digest covers the workload");
    let dir = TempDir::new("sharded_backends_reproduce_the_golden_digest");

    for &shards in &SHARD_COUNTS {
        let mut engines: Vec<(String, Vec<SearchEngine>)> = Vec::new();
        for corpus in &corpora {
            let mut variants = Vec::new();

            // Memory shards.
            variants.push(SearchEngine::from_shard_set(memory_shard_set(
                &corpus.doc,
                shards,
            )));

            // Disk shards via the manifest, through the shard set…
            let manifest = dir.join(format!("{}-{shards}.xksm", corpus.name));
            write_sharded(&IndexWriter::new(), &corpus.doc, &manifest, shards).unwrap();
            let opened = ShardedCorpus::open(&manifest).unwrap();
            assert_eq!(opened.shard_count(), shards, "{}", corpus.name);
            variants.push(SearchEngine::from_shard_set(opened.shard_set()));

            // …and the same opened corpus as a source of its own.
            variants.push(SearchEngine::from_source(Arc::new(opened)));

            engines.push((corpus.name.to_owned(), variants));
        }

        for (variant, label) in [(0, "memory/set"), (1, "disk/set"), (2, "disk/corpus")] {
            let mut lines = Vec::new();
            for ((_, variants), corpus) in engines.iter().zip(&corpora) {
                lines.extend(digest_corpus(&variants[variant], corpus));
            }
            assert_eq!(
                lines.len(),
                golden.len(),
                "{label} with {shards} shard(s): line count"
            );
            for (i, (got, want)) in lines.iter().zip(&golden).enumerate() {
                assert_eq!(
                    got, want,
                    "{label} with {shards} shard(s): digest line {i} diverged"
                );
            }
        }
    }
}

#[test]
fn corrupted_manifest_fails_open_with_typed_errors() {
    let corpus = shred(&generate_dblp(&DblpConfig::with_records(50, 7)));
    let dir = TempDir::new("corrupted_manifest_fails_open_with_typed_errors");
    let manifest_path = dir.join("corpus.xksm");
    write_sharded(&IndexWriter::new(), &corpus, &manifest_path, 2).unwrap();
    let clean = std::fs::read(&manifest_path).unwrap();

    // A bit flip anywhere in the manifest is caught at open.
    for i in (0..clean.len()).step_by(7) {
        let mut bytes = clean.clone();
        bytes[i] ^= 0x10;
        std::fs::write(&manifest_path, &bytes).unwrap();
        let err = ShardedCorpus::open(&manifest_path).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::BadMagic { .. }
                    | PersistError::UnsupportedVersion { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
            ),
            "flip at byte {i}: {err}"
        );
    }

    // Restore the manifest, then corrupt one shard file: the engine's
    // execute path must surface a typed SearchError, not panic.
    std::fs::write(&manifest_path, &clean).unwrap();
    let corpus = ShardedCorpus::open(&manifest_path).unwrap();
    let shard_file = dir.join(&corpus.manifest().shards[1].file_name);
    let engine = SearchEngine::from_shard_set(corpus.shard_set());
    let ok = engine
        .execute(&SearchRequest::parse("data algorithm").unwrap())
        .unwrap();
    assert!(!ok.hits.is_empty(), "healthy corpus answers");
    // Truncate the live shard under the open engine.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&shard_file)
        .unwrap();
    file.set_len(4096).unwrap();
    drop(file);
    let fresh = ShardedCorpus::open(&manifest_path);
    assert!(fresh.is_err(), "reopen catches the truncated shard");
}

/// Ranked top-k requests take the bounded construction path on every
/// backend, so sharded engines must match the monolithic one on the
/// whole `stats` block — `rtfs_skipped_topk` included — not only on the
/// hits. Memory shards carry no keyword filters, so `shards_skipped`
/// is zero on both sides; the disk manifests (which do carry filters)
/// are checked with that one counter set aside.
#[test]
fn sharded_topk_matches_monolithic_on_full_stats() {
    let corpora = corpora();
    let dir = TempDir::new("sharded_topk_matches_monolithic_on_full_stats");
    let mut skipped_topk = 0u32;
    let mut skipped_shards = 0u32;
    for corpus in &corpora {
        let whole = SearchEngine::from_owned_source(MemoryCorpus::new(corpus.doc.clone()));
        let manifest = dir.join(format!("{}.xksm", corpus.name));
        write_sharded(&IndexWriter::new(), &corpus.doc, &manifest, 4).unwrap();
        let memory = SearchEngine::from_shard_set(memory_shard_set(&corpus.doc, 4));
        let disk =
            SearchEngine::from_shard_set(ShardedCorpus::open(&manifest).unwrap().shard_set());
        for (abbrev, keywords) in &corpus.workload {
            for kind in ALGORITHMS {
                for request in [
                    SearchRequest::parse(keywords)
                        .unwrap()
                        .algorithm(kind)
                        .top_k(3),
                    SearchRequest::parse(keywords)
                        .unwrap()
                        .algorithm(kind)
                        .weights(RankWeights::default())
                        .top_k(1)
                        .trace(true),
                ] {
                    let want = whole.execute(&request).unwrap();
                    let got = memory.execute(&request).unwrap();
                    assert_eq!(got.hits, want.hits, "{}/{abbrev}/{kind:?}", corpus.name);
                    assert_eq!(got.stats, want.stats, "{}/{abbrev}/{kind:?}", corpus.name);
                    let mut got = disk.execute(&request).unwrap();
                    assert_eq!(got.hits, want.hits, "{}/{abbrev}/{kind:?}", corpus.name);
                    skipped_shards += got.stats.shards_skipped;
                    got.stats.shards_skipped = 0;
                    assert_eq!(got.stats, want.stats, "{}/{abbrev}/{kind:?}", corpus.name);
                    skipped_topk += want.stats.rtfs_skipped_topk;
                }
            }
        }
    }
    assert!(skipped_topk > 0, "the workload exercises the top-k skip");
    assert!(
        skipped_shards > 0,
        "the disk manifests' filters skip shards"
    );
}
