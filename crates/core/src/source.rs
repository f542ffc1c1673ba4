//! Corpus-source abstraction: one interface over every storage backend.
//!
//! The paper's algorithms only ever ask two questions of the storage
//! layer (§5.2: everything else is derived from the shredded tables):
//!
//! 1. *keyword → sorted Dewey codes* of its keyword nodes
//!    (`getKeywordNodes`), and
//! 2. *Dewey → node facts* — label, level, and the content feature of
//!    the node's own content `Cv` (what `pruneRTF`'s constructing step
//!    seeds keyword nodes with).
//!
//! [`CorpusSource`] captures exactly that, so ValidRTF/MaxMatch run
//! identically over a parsed tree (via [`TreeCorpus`]), the in-memory
//! [`ShreddedDoc`] tables (via [`MemoryCorpus`]), an `xks-persist`
//! on-disk index opened with a buffer pool, or a sharded set of any of
//! them — see [`crate::engine::SearchEngine::from_source`].

use std::collections::HashMap;
use std::fmt;

use xks_index::InvertedIndex;
use xks_store::ShreddedDoc;
use xks_xmltree::content::{content_feature, node_content};
use xks_xmltree::{Dewey, LabelId, XmlTree};

use crate::fragment::Cid;
use crate::plan::KeywordStats;

/// A storage-backend failure surfaced on the query path. Wraps whatever error the backend produces (`xks-persist`'s
/// `PersistError`, an I/O error, …) so `validrtf` stays independent of
/// any particular storage crate.
#[derive(Debug)]
pub struct SourceError(Box<dyn std::error::Error + Send + Sync + 'static>);

impl SourceError {
    /// Wraps a backend error.
    pub fn new(error: impl Into<Box<dyn std::error::Error + Send + Sync + 'static>>) -> Self {
        SourceError(error.into())
    }

    /// The error for an RTF referencing a node the corpus does not
    /// contain — keyword nodes always come from the same corpus, so
    /// this indicates a corrupted index.
    #[must_use]
    pub fn missing_node(dewey: &Dewey) -> Self {
        SourceError::new(format!("node {dewey} is missing from the corpus"))
    }

    /// The wrapped backend error.
    #[must_use]
    pub fn inner(&self) -> &(dyn std::error::Error + Send + Sync + 'static) {
        self.0.as_ref()
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage backend error: {}", self.0)
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.0.as_ref() as &(dyn std::error::Error + 'static))
    }
}

/// The per-node facts a fragment constructor needs from storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceElement {
    /// Label id (resolve via [`CorpusSource::label_name`]).
    pub label: u32,
    /// Depth of the node (root = 0).
    pub level: u32,
    /// Content feature of the node's **own** content `Cv` — the
    /// `(min, max)` word pair seeding keyword nodes in the
    /// constructing step (§4.1). `None` for content-free nodes.
    pub keyword_cid: Cid,
}

/// A read-only corpus: the storage interface of Algorithm 1.
///
/// Implementations must present postings **sorted in document order and
/// deduplicated**, and label ids consistent between
/// [`CorpusSource::element`] and [`CorpusSource::label_name`]. Lookups
/// that touch storage are fallible: a backend that can fail after
/// opening (an on-disk index hitting I/O errors or latent corruption)
/// surfaces a typed [`SourceError`], never a panic.
///
/// The trait requires `Send + Sync`: a corpus is the shared immutable
/// half of the read path (the *index handle*), designed to back many
/// engines and query threads at once behind an `Arc` — all per-query
/// mutable state lives in a per-thread
/// [`QueryContext`](crate::QueryContext) instead.
pub trait CorpusSource: std::fmt::Debug + Send + Sync {
    /// Sorted Dewey codes of the keyword nodes for `keyword`
    /// (empty when the keyword is absent).
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError>;

    /// The stored facts for one node, `None` if `dewey` is not in the
    /// corpus.
    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError>;

    /// The label id of one node only — what the fragment constructor
    /// needs for the (far more numerous) non-keyword path nodes.
    /// Backends override this to skip materializing the content-feature
    /// strings a full [`CorpusSource::element`] carries.
    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self.element(dewey)?.map(|e| e.label))
    }

    /// The label string for a label id, `None` for a foreign id.
    fn label_name(&self, label: u32) -> Option<String>;

    /// Sealed selectivity statistics for `keyword`, `None` when the
    /// backend has no sealed stats for it (the planner then falls back
    /// to the full merge — see [`crate::plan`]). `Some` with zero
    /// counts means the keyword is known absent.
    fn keyword_stats(&self, _keyword: &str) -> Option<KeywordStats> {
        None
    }
}

macro_rules! delegate_corpus_source {
    ($($ptr:ident),*) => {$(
        /// Delegation so engines can share a source with outside
        /// observers (e.g. keep reading an index reader's stats while a
        /// `SearchEngine` owns it). `Rc` deliberately has no delegation:
        /// a corpus is the shared `Send + Sync` half of the read path,
        /// so cross-owner sharing goes through `Arc`.
        impl<S: CorpusSource + ?Sized> CorpusSource for $ptr<S> {
            fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
                (**self).keyword_deweys(keyword)
            }
            fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
                (**self).element(dewey)
            }
            fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
                (**self).element_label(dewey)
            }
            fn label_name(&self, label: u32) -> Option<String> {
                (**self).label_name(label)
            }
            fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
                (**self).keyword_stats(keyword)
            }
        }
    )*};
}

use std::sync::Arc;
delegate_corpus_source!(Box, Arc);

/// The parsed-tree backend behind [`SearchEngine::new`]: the tree and
/// its in-memory inverted index, answering the two storage questions
/// directly. Node facts are read off the tree on demand (own-content
/// features included), so a tree engine holds nothing beyond the tree
/// and the index.
///
/// [`SearchEngine::new`]: crate::engine::SearchEngine::new
#[derive(Debug)]
pub struct TreeCorpus {
    tree: XmlTree,
    index: InvertedIndex,
}

impl TreeCorpus {
    /// Indexes `tree` (the inverted index is built here).
    #[must_use]
    pub fn new(tree: XmlTree) -> Self {
        let index = InvertedIndex::build(&tree);
        TreeCorpus { tree, index }
    }

    /// The parsed document.
    #[must_use]
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The inverted index over the document.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

impl CorpusSource for TreeCorpus {
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        Ok(self.index.postings(keyword).to_vec())
    }

    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        Ok(self.tree.node_by_dewey(dewey).map(|id| SourceElement {
            label: self.tree.node(id).label.as_u32(),
            level: dewey.level() as u32,
            keyword_cid: content_feature(&node_content(&self.tree, id)),
        }))
    }

    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self
            .tree
            .node_by_dewey(dewey)
            .map(|id| self.tree.node(id).label.as_u32()))
    }

    fn label_name(&self, label: u32) -> Option<String> {
        let labels = self.tree.labels();
        ((label as usize) < labels.len()).then(|| labels.name(LabelId(label)).to_owned())
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // The in-memory index is sealed by construction.
        let postings = self.index.postings(keyword);
        Some(KeywordStats {
            postings: postings.len() as u64,
            docs: crate::plan::doc_frequency(postings),
            ..KeywordStats::default()
        })
    }
}

/// The in-memory backend: shredded tables plus the derived own-content
/// features (the shredder stores subtree features only; the keyword-node
/// seed needs the node's own `Cv` feature, so we compute it once from
/// the `value` table here).
///
/// Posting lists are parsed out of the tables' dotted-string form
/// **once**, at construction — the shredded tables store Dewey codes as
/// strings, and re-parsing them per query dominated the warm hot path.
#[derive(Debug)]
pub struct MemoryCorpus {
    doc: ShreddedDoc,
    postings: HashMap<String, Vec<Dewey>>,
    elements: HashMap<Dewey, SourceElement>,
    stats: HashMap<String, KeywordStats>,
}

impl MemoryCorpus {
    /// Wraps a shredded document (derived lookups must already be
    /// rebuilt, which [`xks_store::shred()`] and the snapshot loader do).
    ///
    /// Element facts are keyed by parsed [`Dewey`] here — the tables
    /// key rows by dotted strings, and formatting a code per lookup
    /// (`dewey.to_string()`) used to dominate warm fragment
    /// construction.
    #[must_use]
    pub fn new(doc: ShreddedDoc) -> Self {
        let own_features = own_content_features(&doc);
        let postings: HashMap<String, Vec<Dewey>> = doc
            .keyword_stats()
            .map(|(kw, _)| (kw.to_owned(), doc.keyword_deweys(kw)))
            .collect();
        let elements = doc
            .elements
            .iter()
            .map(|row| {
                let dewey: Dewey = row.dewey.parse().expect("stored dewey is valid");
                let element = SourceElement {
                    label: row.label,
                    level: row.level,
                    keyword_cid: own_features.get(&row.dewey).cloned(),
                };
                (dewey, element)
            })
            .collect();
        let stats = postings
            .iter()
            .map(|(kw, deweys)| {
                let stats = KeywordStats {
                    postings: deweys.len() as u64,
                    docs: crate::plan::doc_frequency(deweys),
                    ..KeywordStats::default()
                };
                (kw.clone(), stats)
            })
            .collect();
        MemoryCorpus {
            doc,
            postings,
            elements,
            stats,
        }
    }

    /// The wrapped tables.
    #[must_use]
    pub fn doc(&self) -> &ShreddedDoc {
        &self.doc
    }
}

/// Computes each node's own-content `(min, max)` feature from the
/// `value` table (the node's value rows *are* its content set `Cv`).
#[must_use]
pub fn own_content_features(doc: &ShreddedDoc) -> HashMap<String, (String, String)> {
    let mut features: HashMap<String, (String, String)> = HashMap::new();
    for row in &doc.values {
        match features.get_mut(&row.dewey) {
            None => {
                features.insert(
                    row.dewey.clone(),
                    (row.keyword.clone(), row.keyword.clone()),
                );
            }
            Some((min, max)) => {
                if row.keyword < *min {
                    min.clone_from(&row.keyword);
                }
                if row.keyword > *max {
                    max.clone_from(&row.keyword);
                }
            }
        }
    }
    features
}

impl CorpusSource for MemoryCorpus {
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        // One memcpy-style clone of the pre-parsed list; the codes
        // themselves are inline for ordinary document depths.
        Ok(self.postings.get(keyword).cloned().unwrap_or_default())
    }

    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        Ok(self.elements.get(dewey).cloned())
    }

    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        Ok(self.elements.get(dewey).map(|e| e.label))
    }

    fn label_name(&self, label: u32) -> Option<String> {
        self.doc.labels.get(label as usize).cloned()
    }

    fn keyword_stats(&self, keyword: &str) -> Option<KeywordStats> {
        // In-memory postings are sealed by construction; absent
        // keywords are known absent (zero stats), not unknown.
        Some(self.stats.get(keyword).copied().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xks_store::shred;
    use xks_xmltree::fixtures::publications;

    fn corpus() -> MemoryCorpus {
        MemoryCorpus::new(shred(&publications()))
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn keyword_deweys_match_tables() {
        let c = corpus();
        let liu: Vec<String> = c
            .keyword_deweys("liu")
            .unwrap()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(liu, ["0.2.0.0.0.0", "0.2.0.3.0"]);
        assert!(c.keyword_deweys("unobtainium").unwrap().is_empty());
    }

    #[test]
    fn element_exposes_own_content_feature() {
        let c = corpus();
        let title = c.element(&d("0.2.0.1")).unwrap().unwrap();
        assert_eq!(title.keyword_cid, Some(("keyword".into(), "xml".into())));
        assert_eq!(c.label_name(title.label).as_deref(), Some("title"));
        // Interior node: the own feature spans only its own words.
        let articles = c.element(&d("0.2")).unwrap().unwrap();
        assert_eq!(
            articles.keyword_cid,
            Some(("articles".into(), "articles".into()))
        );
        assert!(c.element(&d("0.9.9")).unwrap().is_none());
    }

    #[test]
    fn label_name_bounds() {
        let c = corpus();
        assert!(c.label_name(0).is_some());
        assert!(c.label_name(9999).is_none());
        let t = TreeCorpus::new(publications());
        assert_eq!(t.label_name(0), c.label_name(0));
        assert!(t.label_name(9999).is_none());
    }

    #[test]
    fn tree_corpus_answers_like_the_shredded_tables() {
        let tree = TreeCorpus::new(publications());
        let memory = corpus();
        for kw in ["liu", "keyword", "xml", "unobtainium"] {
            assert_eq!(
                tree.keyword_deweys(kw).unwrap(),
                memory.keyword_deweys(kw).unwrap()
            );
            assert_eq!(tree.keyword_stats(kw), memory.keyword_stats(kw), "{kw}");
        }
        for id in tree.tree().preorder() {
            let dewey = tree.tree().dewey(id).clone();
            assert_eq!(
                tree.element(&dewey).unwrap(),
                memory.element(&dewey).unwrap(),
                "{dewey}"
            );
        }
        assert!(tree.element(&d("0.9.9")).unwrap().is_none());
    }
}
