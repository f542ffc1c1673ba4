//! Differential oracle for the mutable-corpus subsystem: random
//! insert/delete/compact/reopen interleavings over a WAL-backed
//! [`MutableCorpus`] must produce **byte-identical** query results to a
//! corpus rebuilt from scratch out of the same surviving documents —
//! across the in-memory delta, the sealed on-disk base, and recovery
//! replay, on every checkpoint along the way.
//!
//! The oracle is built the honest way: shred the full XML of *every*
//! document ever inserted (so ordinals line up with the mutable path's
//! monotonic assignment), then drop the deleted ordinals at the table
//! level — holes and all — and query the result through the standard
//! [`MemoryCorpus`] backend.

mod common;

use std::sync::Arc;

use common::TempDir;

use xks::core::{AlgorithmKind, CorpusSource, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::dblp_workload;
use xks::datagen::{generate_dblp, DblpConfig};
use xks::persist::{MutableCorpus, ShardedCorpus};
use xks::store::{shred, ShreddedDoc};
use xks::xmltree::writer::to_xml_subtree;

/// xorshift64* — deterministic op interleavings from one seed.
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

/// The top-level document ordinal of a dotted dewey string (`None` for
/// the corpus root).
fn top_ordinal(dewey: &str) -> Option<u32> {
    let rest = &dewey[dewey.find('.')? + 1..];
    rest.split('.').next().unwrap_or(rest).parse().ok()
}

/// Rebuild-from-scratch oracle: one corpus holding every inserted
/// document at its original ordinal, minus the deleted ones.
fn oracle(root_label: &str, inserted: &[String], deleted: &[u32]) -> MemoryCorpus {
    let xml = format!("<{root_label}>{}</{root_label}>", inserted.concat());
    let full = shred(&xks::xmltree::parse(&xml).unwrap());
    let live = |dewey: &str| top_ordinal(dewey).is_none_or(|o| !deleted.contains(&o));
    let elements = full
        .elements
        .iter()
        .filter(|r| live(&r.dewey))
        .cloned()
        .collect();
    let values = full
        .values
        .iter()
        .filter(|r| live(&r.dewey))
        .cloned()
        .collect();
    let mut doc = ShreddedDoc::from_tables(full.labels.clone(), elements, values);
    doc.rebuild_indexes();
    MemoryCorpus::new(doc)
}

/// Renders every hit of every workload query under `kind` — the
/// byte-exact observable the two backends must agree on.
fn render_all(source: Arc<dyn CorpusSource>, kind: AlgorithmKind) -> Vec<String> {
    let engine = SearchEngine::from_source(Arc::clone(&source));
    let mut out = Vec::new();
    for (abbrev, keywords) in dblp_workload() {
        let request = SearchRequest::parse(&keywords).unwrap().algorithm(kind);
        let response = engine.execute(&request).unwrap();
        out.push(format!("## {abbrev}: {} hits", response.hits.len()));
        for hit in &response.hits {
            out.push(hit.fragment.render_source(source.as_ref()));
        }
    }
    out
}

fn assert_matches_oracle(
    label: &str,
    source: Arc<dyn CorpusSource>,
    root_label: &str,
    inserted: &[String],
    deleted: &[u32],
    kinds: &[AlgorithmKind],
) {
    let oracle = Arc::new(oracle(root_label, inserted, deleted)) as Arc<dyn CorpusSource>;
    for &kind in kinds {
        let got = render_all(Arc::clone(&source), kind);
        let want = render_all(Arc::clone(&oracle), kind);
        assert_eq!(
            got, want,
            "{label}: {kind:?} diverged from rebuild-from-scratch"
        );
    }
}

#[test]
fn random_interleavings_match_rebuild_from_scratch() {
    // A pool of realistic documents: the top-level records of a
    // generated DBLP corpus, re-serialized one by one.
    let tree = generate_dblp(&DblpConfig::with_records(90, 42));
    let root_label = tree.label_name(tree.root()).to_owned();
    let pool: Vec<String> = tree
        .node(tree.root())
        .children()
        .iter()
        .map(|&child| to_xml_subtree(&tree, child))
        .collect();

    for seed in [1u64, 7, 42] {
        let scratch = TempDir::new(&format!("mutable-differential-seed{seed}"));
        let dir = scratch.join("corpus");
        let mut gen = Gen(seed);
        let mut corpus = MutableCorpus::create(&dir, &root_label).unwrap();
        let mut inserted: Vec<String> = Vec::new();
        let mut deleted: Vec<u32> = Vec::new();

        for step in 0..60 {
            match gen.below(100) {
                // Insert the next pool document (monotonic ordinals).
                0..=59 => {
                    if inserted.len() < pool.len() {
                        let xml = pool[inserted.len()].clone();
                        let ordinal = corpus.insert_xml(&xml).unwrap();
                        assert_eq!(
                            ordinal as usize,
                            inserted.len(),
                            "ordinals are assignment order"
                        );
                        inserted.push(xml);
                    }
                }
                // Delete a random live ordinal.
                60..=84 => {
                    let live: Vec<u32> = (0..inserted.len() as u32)
                        .filter(|o| !deleted.contains(o))
                        .collect();
                    if let Some(&ordinal) = live.get(gen.below(live.len().max(1) as u64) as usize) {
                        corpus.delete(ordinal).unwrap();
                        deleted.push(ordinal);
                    }
                }
                // Seal everything so far into 1–3 shards.
                85..=94 => {
                    corpus.compact(1 + gen.below(3) as usize).unwrap();
                }
                // Crash-free close + recovery replay.
                _ => {
                    drop(corpus);
                    corpus = MutableCorpus::open(&dir).unwrap();
                }
            }
            if step % 10 == 9 {
                assert_matches_oracle(
                    &format!("seed {seed}, step {step}"),
                    corpus.source() as Arc<dyn CorpusSource>,
                    &root_label,
                    &inserted,
                    &deleted,
                    &[AlgorithmKind::ValidRtf],
                );
            }
        }

        // Final checkpoint: recovery replay first, then every algorithm
        // over the live (base + delta) view.
        drop(corpus);
        let mut corpus = MutableCorpus::open(&dir).unwrap();
        assert_matches_oracle(
            &format!("seed {seed}, recovered"),
            corpus.source() as Arc<dyn CorpusSource>,
            &root_label,
            &inserted,
            &deleted,
            &[
                AlgorithmKind::ValidRtf,
                AlgorithmKind::MaxMatchRtf,
                AlgorithmKind::MaxMatchSlca,
            ],
        );

        // Disk backend: seal everything and query the shards directly —
        // no delta, no tombstones, pure on-disk read path.
        corpus.compact(2).unwrap();
        drop(corpus);
        let sealed = ShardedCorpus::open(&dir.join("corpus.xksm")).unwrap();
        assert_matches_oracle(
            &format!("seed {seed}, sealed"),
            Arc::new(sealed) as Arc<dyn CorpusSource>,
            &root_label,
            &inserted,
            &deleted,
            &[
                AlgorithmKind::ValidRtf,
                AlgorithmKind::MaxMatchRtf,
                AlgorithmKind::MaxMatchSlca,
            ],
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
