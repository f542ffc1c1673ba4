//! Golden-digest pin of the 43-query Figure 5/6 workload.
//!
//! `tests/golden/workload_digest.txt` records, for every
//! (corpus, query, algorithm) triple, the fragment count and an FNV-1a
//! digest of the rendered fragments — captured **before** the
//! zero-allocation Dewey/postings rewrite. This test re-runs the whole
//! workload and compares line by line, proving the rewrite is
//! byte-identical on real query traffic (the memory/disk differential
//! in `persist_differential.rs` separately proves backend equality).
//!
//! Regenerate deliberately with `XKS_BLESS_GOLDEN=1 cargo test -q
//! --test workload_golden` after a change that is *supposed* to alter
//! results.

mod common;

use common::{digest_line, ALGORITHMS, GOLDEN};
use xks::core::{MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::store::shred;

fn digest_lines(traced: bool) -> Vec<String> {
    let mut lines = Vec::new();
    for (corpus, tree, workload) in [
        (
            "dblp",
            generate_dblp(&DblpConfig::with_records(1_000, 42)),
            dblp_workload(),
        ),
        (
            "xmark",
            generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
            xmark_workload(),
        ),
    ] {
        let engine = SearchEngine::from_owned_source(MemoryCorpus::new(shred(&tree)));
        let source = engine.corpus();
        for (abbrev, keywords) in &workload {
            // The 43-query workload replays through the redesigned
            // request/response path; the digest must not move.
            let request = SearchRequest::parse(keywords).unwrap().trace(traced);
            for kind in ALGORITHMS {
                let response = engine.execute(&request.clone().algorithm(kind)).unwrap();
                if traced {
                    let trace = response.trace.as_ref().expect("traced response");
                    assert!(
                        !trace.spans().is_empty(),
                        "{corpus}/{abbrev}: traced replay must record spans"
                    );
                } else {
                    assert!(response.trace.is_none(), "untraced response has no trace");
                }
                let fragments: Vec<xks::core::Fragment> = response.into_fragments();
                lines.push(digest_line(corpus, abbrev, kind, &fragments, source));
            }
        }
    }
    lines
}

fn assert_matches_golden(lines: Vec<String>, bless: bool) {
    assert_eq!(lines.len(), 43 * 3, "43 workload queries x 3 algorithms");
    let rendered = lines.join("\n") + "\n";

    if bless {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &rendered).unwrap();
        eprintln!("blessed {GOLDEN}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden digest missing; run with XKS_BLESS_GOLDEN=1 to record it");
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "digest line {i} diverged from the golden file");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "digest line count diverged from the golden file"
    );
}

#[test]
fn workload_results_match_golden_digest() {
    assert_matches_golden(
        digest_lines(false),
        std::env::var("XKS_BLESS_GOLDEN").is_ok(),
    );
}

/// Replaying the identical workload with stage tracing enabled must not
/// move a single digest byte: tracing only *observes* the pipeline
/// (spans ride in preallocated context storage), it never reorders or
/// filters results. Never blesses — the untraced test owns the file.
#[test]
fn traced_workload_replay_is_byte_identical() {
    if std::env::var("XKS_BLESS_GOLDEN").is_ok() {
        return; // the untraced test is re-recording the golden file
    }
    assert_matches_golden(digest_lines(true), false);
}
