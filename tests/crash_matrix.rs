//! The crash matrix: every write/fsync/rename/dirsync boundary in the
//! mutable-corpus paths (insert, delete, compact) gets killed with
//! every fault kind, and recovery must land the corpus **byte-identical
//! to either the pre-op or the post-op state** — never a third state,
//! never a panic, and never a lost *acknowledged* operation.
//!
//! Mechanics: a recording [`Injector`] pass enumerates the durability
//! boundaries each scenario crosses; then, for every `(boundary, fault
//! kind)` cell, the scenario reruns on a fresh copy of the baseline
//! directory with the fault armed, the handle is dropped where the
//! fault left it, and a clean reopen (crash recovery) is digested with
//! the full 43-query workload × 3 algorithms. The per-cell outcomes are
//! written to `target/crash-matrix/report-seed<seed>.txt` — the
//! recovery-differential report CI uploads as an artifact.
//!
//! `XKS_FAULT_SEED` varies the corpus material and the ordinals the
//! scenarios touch (CI runs a small matrix of seeds).

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{digest_line, TempDir, ALGORITHMS};
use xks::core::{CorpusSource, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, DblpConfig};
use xks::persist::{FaultKind, Injector, MutableCorpus};
use xks::xmltree::writer::to_xml_subtree;

fn fault_seed() -> u64 {
    std::env::var("XKS_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The full workload digest of the corpus in `dir` after a clean
/// recovery: 43 queries (both workloads) × 3 algorithms, rendered and
/// hashed exactly like the golden workload digest.
fn recovered_digest(dir: &Path) -> Vec<String> {
    let corpus = MutableCorpus::open(dir)
        .unwrap_or_else(|e| panic!("recovery must always succeed ({}): {e}", dir.display()));
    let source = corpus.source();
    let engine = SearchEngine::from_source(Arc::clone(&source) as Arc<dyn CorpusSource>);
    let mut lines = Vec::new();
    for (workload_name, workload) in [("dblp", dblp_workload()), ("xmark", xmark_workload())] {
        for (abbrev, keywords) in workload {
            for kind in ALGORITHMS {
                let request = SearchRequest::parse(&keywords).unwrap().algorithm(kind);
                let response = engine.execute(&request).unwrap();
                let fragments: Vec<_> = response.hits.iter().map(|h| h.fragment.clone()).collect();
                lines.push(digest_line(
                    workload_name,
                    abbrev,
                    kind,
                    &fragments,
                    source.as_ref(),
                ));
            }
        }
    }
    lines
}

/// One mutating operation under test. Returns whether the corpus
/// acknowledged it (`Ok`) under the armed injector.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    Insert,
    Delete,
    Compact,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Insert => "insert",
            Scenario::Delete => "delete",
            Scenario::Compact => "compact",
        }
    }

    /// Runs open + op on `dir` under `injector`. An `Err` anywhere —
    /// including a failed open — counts as "not acknowledged".
    fn run(self, dir: &Path, injector: Injector, doc: &str, ordinal: u32) -> Result<(), String> {
        let mut corpus =
            MutableCorpus::open_with(dir, injector).map_err(|e| format!("open: {e}"))?;
        match self {
            Scenario::Insert => corpus.insert_xml(doc).map(|_| ()),
            Scenario::Delete => corpus.delete(ordinal),
            Scenario::Compact => corpus.compact(2).map(|_| ()),
        }
        .map_err(|e| e.to_string())
    }
}

#[test]
fn every_fault_recovers_to_pre_or_post_state() {
    let seed = fault_seed();
    let root = TempDir::new(&format!("crash-matrix-seed{seed}"));

    // Baseline: a corpus with a sealed base, a live delta, and a
    // tombstone — every recovery path has something to do. Material
    // and the tombstoned ordinal vary with the seed; two *sentinel*
    // documents carry actual workload keywords so the digest is never
    // vacuously empty (a generated pool can miss every workload term),
    // and the operations under test target material that provably
    // moves it.
    let tree = generate_dblp(&DblpConfig::with_records(30, seed));
    let pool: Vec<String> = tree
        .node(tree.root())
        .children()
        .iter()
        .map(|&child| to_xml_subtree(&tree, child))
        .collect();
    let root_label = tree.label_name(tree.root()).to_owned();
    let baseline = root.join("baseline");
    {
        let mut corpus = MutableCorpus::create(&baseline, &root_label).unwrap();
        for doc in &pool[..6] {
            corpus.insert_xml(doc).unwrap();
        }
        // Sentinel A (sealed into the base): matches query "ks".
        corpus
            .insert_xml("<article><title>keyword similarity</title></article>")
            .unwrap();
        corpus.compact(2).unwrap();
        for doc in &pool[6..8] {
            corpus.insert_xml(doc).unwrap();
        }
        // Sentinel B (live in the delta): matches query "kr".
        corpus
            .insert_xml("<article><title>keyword recognition</title></article>")
            .unwrap();
        corpus.delete((seed % 6) as u32).unwrap();
    }
    let op_doc = "<article><title>keyword similarity recognition</title></article>".to_owned();
    let op_delete = 9; // sentinel B: deleting it must change "kr" results

    let mut report = vec![format!("crash-matrix recovery differential (seed {seed})")];
    let mut cells = 0usize;

    let pre = recovered_digest(&baseline);
    assert!(
        pre.iter().any(|line| !line.contains("fragments=0")),
        "baseline digest is vacuously empty — the sentinels are not matching"
    );
    // The Insert scenario's post digest, reused by the compact cells'
    // follow-up-insert usability check (runs first in the loop below).
    let mut insert_post: Vec<String> = Vec::new();

    for scenario in [Scenario::Insert, Scenario::Delete, Scenario::Compact] {
        // Pre/post digests: the only two states recovery may land in.
        let post_dir = root.join(format!("{}-post", scenario.name()));
        copy_dir(&baseline, &post_dir);
        scenario
            .run(&post_dir, Injector::none(), &op_doc, op_delete)
            .expect("fault-free op must succeed");
        let post = recovered_digest(&post_dir);
        match scenario {
            // Compaction reorganizes storage without touching query
            // results — pre and post digests coincide, and the matrix
            // additionally proves usability with a follow-up insert.
            Scenario::Compact => assert_eq!(
                pre, post,
                "compaction must be query-invariant (differential oracle property)"
            ),
            _ => assert_ne!(pre, post, "{}: op must change the digest", scenario.name()),
        }
        if matches!(scenario, Scenario::Insert) {
            insert_post = post.clone();
        }

        // Enumerate this scenario's durability boundaries.
        let recorder = Injector::recording();
        let record_dir = root.join(format!("{}-record", scenario.name()));
        copy_dir(&baseline, &record_dir);
        scenario
            .run(&record_dir, recorder.clone(), &op_doc, op_delete)
            .expect("recording injector must not fire");
        let labels = recorder.labels();
        let min_expected = match scenario {
            Scenario::Insert | Scenario::Delete => 2, // frame write + fsync
            Scenario::Compact => 8, // shards, manifest, rename, dirsync, WAL reset
        };
        assert!(
            labels.len() >= min_expected,
            "{}: only {} boundaries recorded — injection coverage regressed: {labels:?}",
            scenario.name(),
            labels.len()
        );
        report.push(format!(
            "{}: {} boundaries: {}",
            scenario.name(),
            labels.len(),
            labels.join(", ")
        ));

        for (i, label) in labels.iter().enumerate() {
            for kind in [FaultKind::Error, FaultKind::ShortWrite, FaultKind::Crash] {
                let cell_dir = root.join(format!("{}-b{i}-{kind:?}", scenario.name()));
                copy_dir(&baseline, &cell_dir);
                let injector = Injector::arm(i as u64, kind);
                let outcome = scenario.run(&cell_dir, injector.clone(), &op_doc, op_delete);
                assert!(
                    injector.fired(),
                    "{} boundary {i} ({label}): armed fault never reached",
                    scenario.name()
                );

                // The handle is dropped where the fault left it; a
                // clean reopen is the crash recovery under test.
                let recovered = recovered_digest(&cell_dir);
                let state = if recovered == pre {
                    "pre"
                } else if recovered == post {
                    "post"
                } else {
                    panic!(
                        "{} boundary {i} ({label}) {kind:?}: recovery landed in a third state",
                        scenario.name()
                    );
                };
                if outcome.is_ok() {
                    assert_eq!(
                        state,
                        "post",
                        "{} boundary {i} ({label}) {kind:?}: acknowledged op lost by recovery",
                        scenario.name()
                    );
                }
                // Wherever compaction died, the recovered corpus must
                // remain fully writable: a fault-free follow-up insert
                // lands the same digest as inserting on the baseline.
                if matches!(scenario, Scenario::Compact) {
                    Scenario::Insert
                        .run(&cell_dir, Injector::none(), &op_doc, op_delete)
                        .unwrap_or_else(|e| {
                            panic!(
                                "compact boundary {i} ({label}) {kind:?}: \
                                 recovered corpus rejected a follow-up insert: {e}"
                            )
                        });
                    assert_eq!(
                        recovered_digest(&cell_dir),
                        insert_post,
                        "compact boundary {i} ({label}) {kind:?}: \
                         follow-up insert diverged after recovery"
                    );
                }
                report.push(format!(
                    "{} boundary={i} label={label} kind={kind:?} op={} recovered={state}",
                    scenario.name(),
                    if outcome.is_ok() { "ok" } else { "err" },
                ));
                cells += 1;
                let _ = std::fs::remove_dir_all(&cell_dir);
            }
        }
    }

    report.push(format!("{cells} cells, all recovered to pre or post"));
    let report_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("crash-matrix");
    std::fs::create_dir_all(&report_dir).unwrap();
    std::fs::write(
        report_dir.join(format!("report-seed{seed}.txt")),
        report.join("\n") + "\n",
    )
    .unwrap();
}
