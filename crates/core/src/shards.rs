//! Sharded corpora: a routing [`CorpusSource`] over N document
//! partitions.
//!
//! # Topology
//!
//! A sharded corpus splits the document set (the top-level children of
//! the corpus root) into **contiguous ordinal ranges**, one shard per
//! range; shard 0 additionally owns the corpus root's own rows. Every
//! shard is an ordinary [`CorpusSource`] over its slice — an
//! `xks-persist` index file, a [`MemoryCorpus`](crate::MemoryCorpus)
//! over a partitioned table set, anything. [`ShardSet`] glues them back
//! into one logical corpus:
//!
//! * **keyword → postings** concatenates the per-shard lists in shard
//!   order — contiguity makes that a document-ordered merge with no
//!   k-way comparison — skipping every shard whose keyword filter
//!   proves the keyword absent;
//! * **Dewey → element** routes to the owning shard with one binary
//!   search over the range boundaries (`O(log shards)`, no fan-out).
//!
//! # Why the engine sees one corpus
//!
//! Per-shard end-to-end pipelines cannot be merged exactly: an ELCA
//! anchor may sit **above** the document level (the corpus root is an
//! interesting LCA whenever unshadowed witnesses live in different
//! documents — Example 3 of the paper's workload hits this constantly),
//! and such an anchor's fragment draws keyword nodes from *every*
//! shard. A shard searching alone either misses the anchor (its
//! keyword lists look empty for terms it doesn't hold) or reports a
//! root fragment covering only its slice.
//!
//! So the engine runs its one pipeline over the set as a single
//! source: resolution concatenates, the anchor pass is global, and
//! fragment construction routes each node lookup to its owner (a
//! root-anchored fragment transparently reads from every shard it
//! spans). Results are therefore **byte-identical** to the unsharded
//! engine by construction, which the workspace pins against the golden
//! digest in `tests/sharded_differential.rs`. A query runs on one
//! thread: the server and the batch executor parallelize across
//! queries, and a per-query fan-out across shards measured slower than
//! routing (see `docs/ARCHITECTURE.md`).

use std::sync::Arc;

use xks_xmltree::Dewey;

use crate::plan::KeywordStats;
use crate::source::{CorpusSource, SourceElement, SourceError};

/// N corpus shards glued into one logical [`CorpusSource`] (see the
/// module docs for the topology and merge/routing invariants).
///
/// `ShardSet` is `Send + Sync` like every corpus source: one set can
/// back many engines and query threads at once behind an `Arc`.
/// Cloning is cheap — shard handles are `Arc`s — and clones share the
/// underlying shards (and, for disk shards, their pools and caches).
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Arc<dyn CorpusSource>>,
    /// `first_docs[i]` is the first top-level document ordinal shard
    /// `i` owns; ranges are contiguous, so shard `i` ends where shard
    /// `i + 1` begins.
    first_docs: Vec<u32>,
    /// Optional per-shard keyword filters (`filters[i]` covers shard
    /// `i`'s vocabulary). Empty when the topology carries none; a
    /// `None` entry means that one shard has no filter. Filters have
    /// no false negatives, so a rejecting filter proves the shard's
    /// postings list is empty and the lookup may be skipped.
    filters: Vec<Option<crate::plan::KeywordFilter>>,
}

impl ShardSet {
    /// Builds a set from shards and their range starts.
    ///
    /// `first_docs` must have one entry per shard, start at 0 (shard 0
    /// owns the corpus root and the first documents), and be strictly
    /// increasing; anything else is a corrupted topology and comes back
    /// as a [`SourceError`].
    pub fn new(
        shards: Vec<Arc<dyn CorpusSource>>,
        first_docs: Vec<u32>,
    ) -> Result<Self, SourceError> {
        if shards.is_empty() {
            return Err(SourceError::new("shard set holds no shards"));
        }
        if shards.len() != first_docs.len() {
            return Err(SourceError::new(format!(
                "{} shards but {} range starts",
                shards.len(),
                first_docs.len()
            )));
        }
        if first_docs[0] != 0 {
            return Err(SourceError::new(format!(
                "shard 0 must start at document 0, found {}",
                first_docs[0]
            )));
        }
        if !first_docs.windows(2).all(|w| w[0] < w[1]) {
            return Err(SourceError::new(
                "shard range starts must be strictly increasing",
            ));
        }
        Ok(ShardSet {
            shards,
            first_docs,
            filters: Vec::new(),
        })
    }

    /// Builds a set like [`ShardSet::new`] and attaches per-shard
    /// keyword filters (one entry per shard, `None` where a shard has
    /// none). Postings lookups consult them to skip (keyword × shard)
    /// probes a filter proves empty; filters must therefore have **no
    /// false negatives** over the shard's vocabulary or results will
    /// silently lose postings.
    pub fn with_filters(
        shards: Vec<Arc<dyn CorpusSource>>,
        first_docs: Vec<u32>,
        filters: Vec<Option<crate::plan::KeywordFilter>>,
    ) -> Result<Self, SourceError> {
        let mut set = Self::new(shards, first_docs)?;
        if filters.len() != set.shards.len() {
            return Err(SourceError::new(format!(
                "{} shards but {} keyword filters",
                set.shards.len(),
                filters.len()
            )));
        }
        set.filters = filters;
        Ok(set)
    }

    /// A single-shard set over any source (the degenerate topology —
    /// useful for differential tests and CLI fallbacks).
    #[must_use]
    pub fn single(shard: Arc<dyn CorpusSource>) -> Self {
        ShardSet {
            shards: vec![shard],
            first_docs: vec![0],
            filters: Vec::new(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in document order.
    #[must_use]
    pub fn shards(&self) -> &[Arc<dyn CorpusSource>] {
        &self.shards
    }

    /// First top-level document ordinal of each shard.
    #[must_use]
    pub fn first_docs(&self) -> &[u32] {
        &self.first_docs
    }

    /// Index of the shard owning `dewey`: codes at or above the
    /// document level (the corpus root) belong to shard 0; everything
    /// else routes by its top-level ordinal. Codes past the last range
    /// route to the last shard, which simply reports them absent.
    #[must_use]
    pub fn owning_shard(&self, dewey: &Dewey) -> usize {
        match dewey.components().get(1) {
            None => 0,
            Some(&ordinal) => self.first_docs.partition_point(|&f| f <= ordinal) - 1,
        }
    }

    /// The shard owning `dewey`, as a source.
    #[must_use]
    pub fn route(&self, dewey: &Dewey) -> &Arc<dyn CorpusSource> {
        &self.shards[self.owning_shard(dewey)]
    }

    /// Whether shard `shard` can possibly hold postings for `keyword`.
    /// `true` when the shard carries no filter (unknown ⇒ must probe);
    /// `false` only on a filter rejection, which is a proof of absence.
    fn shard_may_contain(&self, shard: usize, keyword: &str) -> bool {
        match self.filters.get(shard) {
            Some(Some(filter)) => filter.may_contain(keyword),
            _ => true,
        }
    }
}

impl CorpusSource for ShardSet {
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        // Contiguous document ranges ⇒ concatenation in shard order IS
        // document order; disjoint ranges ⇒ nothing to dedup.
        let mut merged = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.shard_may_contain(i, keyword) {
                continue;
            }
            let list = shard.keyword_deweys(keyword)?;
            if merged.is_empty() {
                merged = list;
            } else {
                merged.extend(list);
            }
        }
        debug_assert!(merged.is_sorted(), "shard ranges out of document order");
        Ok(merged)
    }

    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.route(dewey).element(dewey)
    }

    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        self.route(dewey).element_label(dewey)
    }

    fn label_name(&self, label: u32) -> Option<String> {
        // Label tables are replicated in full across shards (a
        // partition invariant — `xks_store::partition`), so any shard
        // answers for the whole corpus.
        self.shards[0].label_name(label)
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // Sealed only when every probed shard knows its stats; one
        // unknown shard makes the whole sum unknown. Filter-rejected
        // shards contribute provable zeros without being probed.
        let mut total = KeywordStats {
            shards: self.shards.len() as u32,
            ..KeywordStats::default()
        };
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.shard_may_contain(i, keyword) {
                total.shards_skipped += 1;
                continue;
            }
            let stats = shard.keyword_stats(keyword)?;
            total.postings += stats.postings;
            total.docs += stats.docs;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::request::{SearchError, SearchRequest};
    use crate::source::MemoryCorpus;
    use xks_store::{partition, shred};
    use xks_xmltree::fixtures::{publications, PAPER_QUERIES};

    /// Partitions `tree` into `parts` memory shards, each with an exact
    /// keyword filter over its vocabulary when `filtered`.
    fn shard_tree(tree: &xks_xmltree::XmlTree, parts: usize, filtered: bool) -> ShardSet {
        let split = partition(&shred(tree), parts);
        let first_docs: Vec<u32> = split.iter().map(|p| p.first_doc).collect();
        let filters = split
            .iter()
            .map(|p| {
                filtered.then(|| {
                    crate::plan::KeywordFilter::from_keywords(
                        p.doc.keyword_stats().map(|(kw, _)| kw),
                    )
                })
            })
            .collect();
        let shards: Vec<Arc<dyn CorpusSource>> = split
            .into_iter()
            .map(|p| Arc::new(MemoryCorpus::new(p.doc)) as Arc<dyn CorpusSource>)
            .collect();
        ShardSet::with_filters(shards, first_docs, filters).unwrap()
    }

    fn whole() -> MemoryCorpus {
        MemoryCorpus::new(shred(&publications()))
    }

    fn whole_engine(tree: &xks_xmltree::XmlTree) -> SearchEngine {
        SearchEngine::from_source(Arc::new(MemoryCorpus::new(shred(tree))))
    }

    #[test]
    fn merged_postings_match_unsharded() {
        let whole = whole();
        for parts in [1, 2, 3] {
            for filtered in [false, true] {
                let set = shard_tree(&publications(), parts, filtered);
                for kw in ["liu", "keyword", "xml", "publications", "unobtainium"] {
                    assert_eq!(
                        set.keyword_deweys(kw).unwrap(),
                        whole.keyword_deweys(kw).unwrap(),
                        "{kw} with {parts} parts"
                    );
                }
            }
        }
    }

    #[test]
    fn element_lookups_route_to_the_owner() {
        let set = shard_tree(&publications(), 3, false);
        let whole = whole();
        // Root and deep nodes alike.
        for dewey in ["0", "0.0", "0.2.0.1", "0.2.1.1", "0.9.9"] {
            let d: Dewey = dewey.parse().unwrap();
            assert_eq!(
                set.element(&d).unwrap(),
                whole.element(&d).unwrap(),
                "{dewey}"
            );
            assert_eq!(
                set.element_label(&d).unwrap(),
                whole.element_label(&d).unwrap()
            );
        }
        assert_eq!(set.label_name(0), whole.label_name(0));
        assert!(set.owning_shard(&"0".parse().unwrap()) == 0);
    }

    #[test]
    fn topology_validation_rejects_bad_inputs() {
        let set = shard_tree(&publications(), 2, false);
        let shards: Vec<Arc<dyn CorpusSource>> = set.shards().to_vec();
        assert!(ShardSet::new(Vec::new(), Vec::new()).is_err(), "no shards");
        assert!(
            ShardSet::new(shards.clone(), vec![0]).is_err(),
            "count mismatch"
        );
        assert!(
            ShardSet::new(shards.clone(), vec![1, 2]).is_err(),
            "must start at 0"
        );
        assert!(
            ShardSet::new(shards.clone(), vec![0, 0]).is_err(),
            "must strictly increase"
        );
        assert!(ShardSet::new(shards, vec![0, 2]).is_ok());
    }

    #[test]
    fn set_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardSet>();
    }

    #[test]
    fn sharded_engine_matches_unsharded() {
        let tree = publications();
        let whole = whole_engine(&tree);
        for parts in [1, 2, 3] {
            let engine = SearchEngine::from_shard_set(shard_tree(&tree, parts, false));
            for text in PAPER_QUERIES {
                let request = SearchRequest::parse(text).unwrap();
                assert_eq!(
                    whole.execute(&request).unwrap().hits,
                    engine.execute(&request).unwrap().hits,
                    "{text} ({parts} shards)"
                );
            }
        }
    }

    #[test]
    fn root_anchored_fragments_span_shards_exactly() {
        // "alpha" lives only in document 0, "beta" only in document 1:
        // the sole interesting LCA is the corpus root, whose fragment
        // draws keyword nodes from BOTH shards. Per-shard pipelines
        // would miss it entirely (each shard lacks one keyword); the
        // routed set must reproduce it byte for byte.
        let tree = xks_xmltree::parse(
            "<lib><a><t>alpha</t></a><b><t>beta</t></b><c><t>gamma</t></c></lib>",
        )
        .unwrap();
        let whole = whole_engine(&tree);
        let request = SearchRequest::parse("alpha beta").unwrap();
        let expect = whole.execute(&request).unwrap();
        assert_eq!(expect.hits.len(), 1, "root anchor exists unsharded");
        assert_eq!(expect.hits[0].fragment.anchor.to_string(), "0");
        for parts in [2, 3] {
            let engine = SearchEngine::from_shard_set(shard_tree(&tree, parts, true));
            let got = engine.execute(&request).unwrap();
            assert_eq!(expect.hits, got.hits, "{parts} shards");
            // And the ranked/top-k merge shapes identically too.
            let ranked = request.clone().top_k(1);
            assert_eq!(
                whole.execute(&ranked).unwrap().hits,
                engine.execute(&ranked).unwrap().hits,
            );
        }
    }

    #[test]
    fn keyword_filters_skip_shards_without_changing_results() {
        let whole = whole_engine(&publications());
        for parts in [2, 3] {
            let set = shard_tree(&publications(), parts, true);
            // "liu" lives in one document only: at least one shard's
            // filter must prove it absent.
            assert!(set.keyword_stats("liu").unwrap().shards_skipped > 0);
            let absent = set.keyword_stats("unobtainium").unwrap();
            assert_eq!(
                (absent.shards, absent.shards_skipped),
                (parts as u32, parts as u32)
            );
            let engine = SearchEngine::from_shard_set(set);
            for text in PAPER_QUERIES {
                let request = SearchRequest::parse(text).unwrap();
                assert_eq!(
                    whole.execute(&request).unwrap().hits,
                    engine.execute(&request).unwrap().hits,
                    "{text} ({parts} parts)"
                );
            }
            // Routed skips surface in the per-query stats, traced or
            // not, and for queries whose result is empty too.
            for request in [
                SearchRequest::parse("liu keyword").unwrap(),
                SearchRequest::parse("liu keyword").unwrap().trace(true),
                SearchRequest::parse("liu unobtainium").unwrap(),
            ] {
                let r = engine.execute(&request).unwrap();
                assert!(r.stats.shards_skipped > 0, "{request:?}");
            }
            let report = engine
                .explain(&SearchRequest::parse("liu keyword").unwrap())
                .unwrap();
            assert_eq!(report.shards, parts as u32);
            assert!(report.terms.iter().any(|t| t.shards_skipped > 0));
        }
    }

    #[test]
    fn set_keyword_stats_sum_across_shards() {
        let set = shard_tree(&publications(), 3, true);
        let whole = whole();
        for kw in ["liu", "keyword", "xml", "unobtainium"] {
            let sharded = set.keyword_stats(kw).unwrap();
            let unsharded = whole.keyword_stats(kw).unwrap();
            assert_eq!(
                (sharded.postings, sharded.docs),
                (unsharded.postings, unsharded.docs),
                "{kw}: sharded sum matches unsharded"
            );
            assert_eq!(sharded.shards, 3);
        }
        // A shard without stats makes the whole sum unknown.
        let plain = shard_tree(&publications(), 2, false);
        #[derive(Debug)]
        struct Opaque(Arc<dyn CorpusSource>);
        impl CorpusSource for Opaque {
            fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
                self.0.keyword_deweys(keyword)
            }
            fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                self.0.element(dewey)
            }
            fn label_name(&self, label: u32) -> Option<String> {
                self.0.label_name(label)
            }
        }
        let mut shards = plain.shards().to_vec();
        shards[1] = Arc::new(Opaque(Arc::clone(&shards[1])));
        let mixed = ShardSet::new(shards, plain.first_docs().to_vec()).unwrap();
        assert_eq!(mixed.keyword_stats("keyword"), None);
    }

    #[test]
    fn filter_count_must_match_shard_count() {
        let set = shard_tree(&publications(), 2, false);
        assert!(ShardSet::with_filters(
            set.shards().to_vec(),
            set.first_docs().to_vec(),
            vec![None]
        )
        .is_err());
        let ok = ShardSet::with_filters(
            set.shards().to_vec(),
            set.first_docs().to_vec(),
            vec![None, None],
        )
        .unwrap();
        assert!(ok.shard_may_contain(0, "anything"), "no filter ⇒ probe");
        assert_eq!(ok.keyword_stats("anything").unwrap().shards_skipped, 0);
    }

    #[test]
    fn scatter_surfaces_backend_errors_typed() {
        // Kept under its historical name: the routed path must surface
        // a failing shard's error typed, exactly as the scatter did.
        /// A shard whose postings lookups always fail.
        #[derive(Debug)]
        struct DeadShard;
        impl CorpusSource for DeadShard {
            fn keyword_deweys(&self, _: &str) -> Result<Vec<Dewey>, SourceError> {
                Err(SourceError::new("synthetic shard I/O failure"))
            }
            fn element(&self, _: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                Ok(None)
            }
            fn label_name(&self, _: u32) -> Option<String> {
                None
            }
        }
        let healthy = shard_tree(&publications(), 2, false);
        let mut shards = healthy.shards().to_vec();
        shards.push(Arc::new(DeadShard));
        let set = ShardSet::new(shards, vec![0, healthy.first_docs()[1], u32::MAX]).unwrap();
        let engine = SearchEngine::from_shard_set(set);
        for request in [
            SearchRequest::parse("liu keyword").unwrap(),
            SearchRequest::parse("liu keyword").unwrap().trace(true),
            SearchRequest::parse("liu keyword").unwrap().top_k(1),
        ] {
            let err = engine.execute(&request).unwrap_err();
            assert!(matches!(err, SearchError::Backend(_)), "{err}");
            assert!(err.to_string().contains("shard I/O failure"));
        }
    }
}
