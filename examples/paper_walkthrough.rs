//! Walk through the paper's Examples 1–7 on the reconstructed Figure
//! 1(a)/(b) fixtures, printing each fragment next to the figure it
//! reproduces.
//!
//! ```sh
//! cargo run --example paper_walkthrough
//! ```

use std::sync::Arc;

use xks::core::spec::{enumerate_ect, spec_rtfs};
use xks::core::{AlgorithmKind, SearchEngine, SearchRequest, TreeCorpus};
use xks::index::Query;
use xks::xmltree::fixtures::{publications, team, PAPER_QUERIES};
use xks::xmltree::XmlTree;

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

/// A fixture document and an engine sharing its tree and index.
struct Fixture {
    corpus: Arc<TreeCorpus>,
    engine: SearchEngine,
}

impl Fixture {
    fn new(tree: XmlTree) -> Self {
        let corpus = Arc::new(TreeCorpus::new(tree));
        let engine = SearchEngine::from_source(Arc::clone(&corpus) as _);
        Fixture { corpus, engine }
    }
}

fn show(fixture: &Fixture, query: &Query, kind: AlgorithmKind, caption: &str) {
    let request = SearchRequest::from_query(query.clone()).algorithm(kind);
    let out = fixture
        .engine
        .execute(&request)
        .expect("tree backend cannot fail");
    println!("--- {caption}");
    for frag in out.fragments() {
        println!("fragment @ {}:", frag.anchor);
        print!("{}", frag.render(fixture.corpus.tree()));
    }
    println!();
}

fn main() {
    let pubs = Fixture::new(publications());
    let club = Fixture::new(team());

    println!("=== The Figure 1(a) Publications instance ===");
    println!("{}", pubs.corpus.tree());
    println!("=== The Figure 1(b) team segment ===");
    println!("{}", club.corpus.tree());

    println!(
        "=== Example 1: SLCA vs LCA (Q2 = {:?}) ===",
        PAPER_QUERIES[1]
    );
    let q2 = q(PAPER_QUERIES[1]);
    show(
        &pubs,
        &q2,
        AlgorithmKind::MaxMatchSlca,
        "SLCA only — Figure 2(a)",
    );
    show(
        &pubs,
        &q2,
        AlgorithmKind::ValidRtf,
        "all interesting LCAs — Figures 2(a)+2(b)",
    );

    println!("=== Example 1 cont.: Q3 = {:?} ===", PAPER_QUERIES[2]);
    let q3 = q(PAPER_QUERIES[2]);
    show(
        &pubs,
        &q3,
        AlgorithmKind::ValidRtf,
        "meaningful RTF — Figure 2(d)",
    );

    println!(
        "=== Example 2: false positive problem (Q1 = {:?}) ===",
        PAPER_QUERIES[0]
    );
    let q1 = q(PAPER_QUERIES[0]);
    show(
        &pubs,
        &q1,
        AlgorithmKind::MaxMatchRtf,
        "MaxMatch drops the title — Figure 3(c)",
    );
    show(
        &pubs,
        &q1,
        AlgorithmKind::ValidRtf,
        "ValidRTF keeps it — Figure 3(b)",
    );

    println!(
        "=== Example 2: redundancy problem (Q4 = {:?}) ===",
        PAPER_QUERIES[3]
    );
    let q4 = q(PAPER_QUERIES[3]);
    show(
        &club,
        &q4,
        AlgorithmKind::MaxMatchRtf,
        "MaxMatch keeps both forwards — Figure 3(d)",
    );
    show(&club, &q4, AlgorithmKind::ValidRtf, "ValidRTF deduplicates");

    println!(
        "=== Example 2: positive example (Q5 = {:?}) ===",
        PAPER_QUERIES[4]
    );
    let q5 = q(PAPER_QUERIES[4]);
    show(
        &club,
        &q5,
        AlgorithmKind::ValidRtf,
        "only Gassol survives — Figure 3(a)",
    );

    println!("=== Figure 4(c): the node data structure for Q3 ===");
    let raw = {
        use xks::core::Fragment;
        use xks::lca::elca_stack;
        let sets = pubs.corpus.index().resolve(&q3).unwrap();
        let anchors = elca_stack(sets.sets());
        let rtfs = xks::core::get_rtf(&anchors, &sets);
        Fragment::construct(pubs.corpus.tree(), &rtfs[0])
    };
    for node in ["0", "0.2"] {
        let dewey = node.parse().unwrap();
        print!(
            "node {node}:\n{}",
            raw.render_node_info(pubs.corpus.tree(), &dewey, 5).unwrap()
        );
    }
    println!();

    println!("=== Examples 3–4: the ECT_Q enumeration for Q2 ===");
    let sets = pubs.corpus.index().resolve(&q2).unwrap();
    let ect = enumerate_ect(sets.sets()).unwrap();
    println!("|ECT_Q| = {} (the paper counts 11)", ect.len());
    let rtfs = spec_rtfs(sets.sets()).unwrap();
    println!("RTFs per Definition 2:");
    for r in &rtfs {
        let nodes: Vec<String> = r.nodes.iter().map(ToString::to_string).collect();
        println!("  anchor {} <- {{{}}}", r.anchor, nodes.join(", "));
    }
}
