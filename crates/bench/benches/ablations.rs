//! Ablation benches for the design choices `DESIGN.md` calls out:
//!
//! * `ablate_lca` — ELCA stack vs naive oracle; Indexed Lookup Eager vs
//!   Scan Eager (the paper reuses [12]'s algorithm precisely because
//!   naive LCA enumeration does not scale);
//! * `ablate_knum` — `u64` key-number bitmask comparison vs a hash-set
//!   representation of tree keyword sets (the §4.1 data structure's
//!   reason to exist);
//! * `ablate_cid` — `(min, max)` content features vs exact content-set
//!   comparison for rule 2(b) (§4.1: "the computation following this
//!   idea is expensive", justifying the approximate cID);
//! * `ablate_getrtf_check` — cost of the Definition-2 dispatch check
//!   the paper's pseudo-code omits (EXPERIMENTS.md, Findings #2);
//! * `ablate_pipeline` — end-to-end comparison of the three algorithm
//!   variants on one heavy query.
//!
//! ```sh
//! cargo bench -p xks-bench --bench ablations
//! ```

use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use validrtf::engine::AlgorithmKind;
use xks_bench::{xmark_engine, xmark_tree, Scale};
use xks_datagen::XmarkSize;
use xks_index::{InvertedIndex, Query};
use xks_lca::naive::naive_elca;
use xks_lca::{elca_candidate_rmq, elca_stack, indexed_lookup_eager, scan_eager};
use xks_xmltree::content::node_content;

/// The small XMark-alike corpus's inverted index.
fn xmark_index() -> InvertedIndex {
    InvertedIndex::build(&xmark_tree(Scale::Small, XmarkSize::Standard))
}

fn heavy_sets(index: &InvertedIndex, keywords: &str) -> xks_index::KeywordNodeSets {
    let query = Query::parse(keywords).expect("parses");
    index.resolve(&query).expect("keywords present")
}

fn ablate_lca(c: &mut Criterion) {
    let index = xmark_index();
    // A moderate query for the naive oracle, a heavy one for the others.
    let light = heavy_sets(&index, "particle threshold");
    let heavy = heavy_sets(&index, "preventions description order");

    let mut group = c.benchmark_group("ablate_lca");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    group.bench_function("elca_stack/light", |b| {
        b.iter(|| elca_stack(black_box(light.sets())))
    });
    group.bench_function("naive_elca/light", |b| {
        b.iter(|| naive_elca(black_box(light.sets())))
    });
    group.bench_function("elca_stack/heavy", |b| {
        b.iter(|| elca_stack(black_box(heavy.sets())))
    });
    group.bench_function("elca_candidate_rmq/heavy", |b| {
        b.iter(|| elca_candidate_rmq(black_box(heavy.sets())))
    });
    group.bench_function("ile_slca/heavy", |b| {
        b.iter(|| indexed_lookup_eager(black_box(heavy.sets())))
    });
    group.bench_function("scan_eager_slca/heavy", |b| {
        b.iter(|| scan_eager(black_box(heavy.sets())))
    });
    group.finish();
}

fn ablate_knum(c: &mut Criterion) {
    // Subset checks over sibling keyword sets: bitmask vs HashSet.
    let masks: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(0x9e37) & 0x3f).collect();
    let sets: Vec<HashSet<usize>> = masks
        .iter()
        .map(|m| (0..6).filter(|i| (m >> i) & 1 == 1).collect())
        .collect();

    let mut group = c.benchmark_group("ablate_knum");
    group.bench_function("bitmask_subset_scan", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for (i, a) in masks.iter().enumerate() {
                let covered = masks
                    .iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a != b && a & b == *a);
                if !covered {
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    group.bench_function("hashset_subset_scan", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for (i, a) in sets.iter().enumerate() {
                let covered = sets
                    .iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a != b && a.is_subset(b));
                if !covered {
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    group.finish();
}

fn ablate_cid(c: &mut Criterion) {
    // Rule 2(b) equality: (min,max) feature vs full content-set compare,
    // over the description texts of the XMark corpus.
    let tree = &xmark_tree(Scale::Small, XmarkSize::Standard);
    let contents: Vec<BTreeSet<String>> = tree
        .preorder()
        .filter(|&id| tree.label_name(id) == "text")
        .take(400)
        .map(|id| node_content(tree, id))
        .collect();
    let features: Vec<(String, String)> = contents
        .iter()
        .map(|c| {
            (
                c.iter().next().cloned().unwrap_or_default(),
                c.iter().next_back().cloned().unwrap_or_default(),
            )
        })
        .collect();

    let mut group = c.benchmark_group("ablate_cid");
    group.bench_function("cid_feature_dedup", |b| {
        b.iter(|| {
            let mut seen: HashSet<&(String, String)> = HashSet::new();
            let mut kept = 0usize;
            for f in &features {
                if seen.insert(f) {
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    group.bench_function("exact_content_dedup", |b| {
        b.iter(|| {
            let mut seen: Vec<&BTreeSet<String>> = Vec::new();
            let mut kept = 0usize;
            for c in &contents {
                if !seen.contains(&c) {
                    seen.push(c);
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    group.finish();
}

fn ablate_getrtf_check(c: &mut Criterion) {
    // Cost of the Definition-2 deepest-combination check that the
    // paper's literal pseudo-code omits (EXPERIMENTS.md Findings #2):
    // two binary searches per keyword node.
    use validrtf::{get_rtf, get_rtf_unchecked};
    use xks_lca::elca_stack;

    let sets = heavy_sets(&xmark_index(), "preventions description order");
    let anchors = elca_stack(sets.sets());

    let mut group = c.benchmark_group("ablate_getrtf_check");
    group.bench_function("get_rtf_checked", |b| {
        b.iter(|| get_rtf(black_box(&anchors), black_box(&sets)))
    });
    group.bench_function("get_rtf_unchecked", |b| {
        b.iter(|| get_rtf_unchecked(black_box(&anchors), black_box(&sets)))
    });
    group.finish();
}

fn ablate_pipeline(c: &mut Criterion) {
    use validrtf::SearchRequest;
    let engine = xmark_engine(Scale::Small, XmarkSize::Standard);
    let request = SearchRequest::parse("preventions description order").expect("parses");

    let mut group = c.benchmark_group("ablate_pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for (label, kind) in [
        ("validrtf_end_to_end", AlgorithmKind::ValidRtf),
        ("maxmatch_end_to_end", AlgorithmKind::MaxMatchRtf),
        ("slca_variant_end_to_end", AlgorithmKind::MaxMatchSlca),
    ] {
        let request = request.clone().algorithm(kind);
        group.bench_function(label, |b| b.iter(|| engine.execute(black_box(&request))));
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_lca,
    ablate_knum,
    ablate_cid,
    ablate_getrtf_check,
    ablate_pipeline
);
criterion_main!(benches);
