//! Golden-digest pin of a mid-size skewed matrix cell
//! (`s10-flat-zipf-single`: 600 records, Zipf vocabulary, full-grammar
//! query set) — the PR 10 companion to the 43-query seed digest, so
//! planner/ingest changes are pinned on a non-trivial corpus too.
//!
//! The digest is computed on the **memory** backend and independently
//! on a **4-shard disk** corpus in exact mode; the two must agree byte
//! for byte before either is compared to the committed file
//! `tests/golden/matrix_digest.txt`.
//!
//! Regenerate deliberately with `XKS_BLESS_GOLDEN=1 cargo test -q
//! --test matrix_golden` after a change that is *supposed* to alter
//! results.

mod common;

use common::{digest_line, TempDir, ALGORITHMS};
use xks::core::{Fragment, MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::scenario::ScenarioSpec;
use xks::persist::{write_sharded, IndexWriter, ShardedCorpus};
use xks::store::shred;

const CELL: &str = "s10-flat-zipf-single";
const SHARDS: usize = 4;

const GOLDEN_MATRIX: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/matrix_digest.txt"
);

fn digest_lines(engine: &SearchEngine, scenario: &xks::datagen::scenario::Scenario) -> Vec<String> {
    let source = engine.corpus();
    let mut lines = Vec::new();
    for (i, q) in scenario.queries.iter().enumerate() {
        let abbrev = format!("{}{i}", q.class.name());
        // Exact mode: no top-k, no ranking — the digest must be the
        // full Definition-4 answer.
        let request = SearchRequest::parse(&q.text).unwrap();
        for kind in ALGORITHMS {
            let response = engine.execute(&request.clone().algorithm(kind)).unwrap();
            let fragments: Vec<Fragment> = response.into_fragments();
            lines.push(digest_line(CELL, &abbrev, kind, &fragments, source));
        }
    }
    lines
}

#[test]
fn matrix_cell_digest_is_pinned() {
    let scenario = ScenarioSpec::parse(CELL).expect("known cell").generate();
    let doc = shred(&scenario.tree);

    let memory = SearchEngine::from_owned_source(MemoryCorpus::new(doc.clone()));

    let dir = TempDir::new("matrix_cell_digest_is_pinned");
    let manifest = dir.join(format!("{CELL}.xksm"));
    write_sharded(&IndexWriter::new(), &doc, &manifest, SHARDS).unwrap();
    let sharded = SearchEngine::from_shard_set(ShardedCorpus::open(&manifest).unwrap().shard_set());

    let memory_lines = digest_lines(&memory, &scenario);
    let sharded_lines = digest_lines(&sharded, &scenario);
    assert_eq!(
        memory_lines, sharded_lines,
        "memory and 4-shard disk digests must be byte-identical"
    );
    assert_eq!(
        memory_lines.len(),
        scenario.queries.len() * ALGORITHMS.len()
    );

    let rendered = memory_lines.join("\n") + "\n";
    if std::env::var_os("XKS_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_MATRIX).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_MATRIX, &rendered).unwrap();
        eprintln!("blessed {GOLDEN_MATRIX}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_MATRIX)
        .expect("matrix golden digest missing; run with XKS_BLESS_GOLDEN=1 to record it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got, want,
            "matrix digest line {i} diverged from the golden file"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "matrix digest line count diverged"
    );
}
