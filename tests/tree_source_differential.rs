//! Tree-backed ≡ shredded-table-backed: `SearchEngine::new(tree)` runs
//! the one execution path over a `TreeCorpus` (the parsed tree and its
//! inverted index), never over shredded tables. It must answer exactly
//! like a `MemoryCorpus` over the same document — same hits, scores,
//! stats and rendering — on the paper's fixtures and on the grammar
//! fixture's full-operator query mix, for every algorithm, plain and
//! ranked top-k, traced and untraced.

use xks::core::{
    AlgorithmKind, CorpusSource, MemoryCorpus, RankWeights, SearchEngine, SearchRequest,
};
use xks::store::shred;
use xks::xmltree::fixtures::{publications, team, PAPER_QUERIES};
use xks::xmltree::XmlTree;

const ALGORITHMS: [AlgorithmKind; 3] = [
    AlgorithmKind::ValidRtf,
    AlgorithmKind::MaxMatchRtf,
    AlgorithmKind::MaxMatchSlca,
];

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every query line of the grammar mix (comments and blanks skipped).
fn grammar_queries() -> Vec<String> {
    fixture("grammar_mix.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

fn render(engine: &SearchEngine, response: &xks::core::SearchResponse) -> Vec<String> {
    response
        .fragments()
        .map(|f| f.render_source(engine.corpus()))
        .collect()
}

/// Runs every query × algorithm × request shape through both engines
/// and asserts identical responses; returns how many hits were seen.
fn assert_identical(name: &str, tree: &XmlTree, queries: &[String]) -> usize {
    let from_tree = SearchEngine::new(tree.clone());
    let from_tables = SearchEngine::from_owned_source(MemoryCorpus::new(shred(tree)));
    let mut hits = 0;
    for text in queries {
        let base = SearchRequest::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        for kind in ALGORITHMS {
            for request in [
                base.clone().algorithm(kind),
                base.clone().algorithm(kind).top_k(1),
                base.clone()
                    .algorithm(kind)
                    .weights(RankWeights::default())
                    .trace(true),
            ] {
                let t = from_tree.execute(&request).unwrap();
                let m = from_tables.execute(&request).unwrap();
                let at = format!("{name}: {text:?} / {kind:?}");
                assert_eq!(t.hits, m.hits, "{at}: hits");
                assert_eq!(t.stats, m.stats, "{at}: stats");
                assert_eq!(render(&from_tree, &t), render(&from_tables, &m), "{at}");
                hits += t.hits.len();
            }
        }
        let t = from_tree.explain(&base).unwrap();
        let m = from_tables.explain(&base).unwrap();
        assert_eq!(t, m, "{name}: {text:?}: explain");
    }
    hits
}

#[test]
fn tree_source_matches_memory_corpus_on_paper_fixtures() {
    let queries: Vec<String> = PAPER_QUERIES.iter().map(|q| (*q).to_owned()).collect();
    let hits = assert_identical("publications", &publications(), &queries)
        + assert_identical("team", &team(), &queries);
    assert!(hits > 0, "the paper queries answer");
}

#[test]
fn tree_source_matches_memory_corpus_on_grammar_fixture() {
    let tree = xks::xmltree::parse(&fixture("grammar_corpus.xml")).unwrap();
    let hits = assert_identical("grammar", &tree, &grammar_queries());
    assert!(hits > 0, "the grammar mix answers");
}

#[test]
fn tree_source_answers_node_facts_like_the_tables() {
    for tree in [publications(), team()] {
        let from_tree = xks::core::TreeCorpus::new(tree.clone());
        let from_tables = MemoryCorpus::new(shred(&tree));
        for id in tree.preorder() {
            let dewey = tree.dewey(id);
            assert_eq!(
                from_tree.element(dewey).unwrap(),
                from_tables.element(dewey).unwrap(),
                "{dewey}"
            );
            let label = from_tree.element_label(dewey).unwrap().unwrap();
            assert_eq!(from_tree.label_name(label), from_tables.label_name(label));
        }
    }
}
