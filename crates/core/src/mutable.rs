//! The mutable read path: an immutable base corpus plus an in-memory
//! delta and a tombstone set.
//!
//! [`MutableSource`] is the `validrtf`-side half of the mutable-corpus
//! subsystem (`xks-persist`'s `MutableCorpus` owns the WAL and the
//! compactor; this type owns query semantics). It layers three pieces
//! under one [`CorpusSource`]:
//!
//! * an optional **base** — any immutable backend (sealed `.xks`
//!   shards, a `MemoryCorpus`, …) holding documents `0..next` at the
//!   time it was sealed;
//! * a **delta** — rows of documents inserted since, shredded by
//!   [`xks_store::shred_document`] into the base's label dictionary
//!   and addressed as `0.<ordinal>` subtrees;
//! * a **tombstone set** of deleted document ordinals, consulted at
//!   the anchor pass: [`MutableSource::keyword_deweys`] (the feed of
//!   `getKeywordNodes`) drops every posting inside a tombstoned
//!   document, so a deleted document can never anchor or join a
//!   result fragment.
//!
//! Document ordinals are assigned monotonically and **never reused** —
//! deletion leaves a hole. That makes the merge in the anchor pass a
//! plain concatenation (every delta posting sorts after every base
//! posting) and keeps replayed WALs unambiguous.
//!
//! Two deliberate staleness windows, both proven harmless by the query
//! engine's structure (and pinned by the differential tests):
//! the corpus root's stored *subtree* feature is not refreshed on
//! insert (fragment construction derives interior features by folding
//! keyword-node own-features, never reading stored subtree features
//! above keyword nodes).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, RwLock};

use xks_store::{shred, shred_document, ElementRow, ValueRow};
use xks_xmltree::{Dewey, ParseError, XmlTree};

use crate::source::{CorpusSource, SourceElement, SourceError};

/// Everything that can go wrong mutating a corpus.
#[derive(Debug)]
pub enum MutationError {
    /// The inserted document is not well-formed XML.
    Xml(ParseError),
    /// A delete (or replayed operation) named a document that does not
    /// exist or was already deleted.
    UnknownDocument(u32),
    /// A replayed insert carried an ordinal below the high-water mark —
    /// the log and the corpus disagree about history.
    OrdinalRegression {
        /// The ordinal the operation carried.
        ordinal: u32,
        /// The corpus's next unassigned ordinal.
        next: u32,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Xml(e) => write!(f, "bad document: {e}"),
            MutationError::UnknownDocument(ord) => {
                write!(f, "document {ord} does not exist (or is already deleted)")
            }
            MutationError::OrdinalRegression { ordinal, next } => write!(
                f,
                "replayed ordinal {ordinal} regresses below the corpus high-water mark {next}"
            ),
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for MutationError {
    fn from(e: ParseError) -> Self {
        MutationError::Xml(e)
    }
}

/// The rows of one delta document, kept for compaction export.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    /// The document's top-level ordinal.
    pub ordinal: u32,
    /// Its `element`-table rows (deweys under `0.<ordinal>`).
    pub elements: Vec<ElementRow>,
    /// Its `value`-table rows.
    pub values: Vec<ValueRow>,
}

#[derive(Debug)]
struct State {
    base: Option<Arc<dyn CorpusSource>>,
    /// Shared label dictionary: the base's labels as a prefix, extended
    /// by names first seen in delta documents.
    labels: Vec<String>,
    root_label: u32,
    delta_postings: HashMap<String, Vec<Dewey>>,
    delta_elements: HashMap<Dewey, SourceElement>,
    delta_docs: Vec<DeltaDoc>,
    /// Root rows of a corpus created empty (no base holds them yet);
    /// exported to compaction so the sealed shards gain a root.
    root_rows: Option<(Vec<ElementRow>, Vec<ValueRow>)>,
    tombstones: BTreeSet<u32>,
    next_doc: u32,
}

impl State {
    /// True when `dewey` lies inside a tombstoned document.
    fn tombstoned(&self, dewey: &Dewey) -> bool {
        if self.tombstones.is_empty() {
            return false;
        }
        let comps = dewey.components();
        comps.len() >= 2 && self.tombstones.contains(&comps[1])
    }

    /// Folds one document's rows into the delta lookup structures
    /// (mirrors what `MemoryCorpus::new` derives for a whole corpus).
    fn fold_rows(&mut self, elements: &[ElementRow], values: &[ValueRow]) {
        let mut own: HashMap<&str, (String, String)> = HashMap::new();
        for row in values {
            match own.get_mut(row.dewey.as_str()) {
                None => {
                    own.insert(&row.dewey, (row.keyword.clone(), row.keyword.clone()));
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
        for row in elements {
            let dewey: Dewey = row.dewey.parse().expect("shredded dewey is valid");
            self.delta_elements.insert(
                dewey,
                SourceElement {
                    label: row.label,
                    level: row.level,
                    keyword_cid: own.get(row.dewey.as_str()).cloned(),
                },
            );
        }
        // Per-keyword sorted+deduped deweys of this document; appending
        // them keeps the whole list sorted because every dewey of a
        // later document sorts after every dewey of an earlier one.
        let mut per_keyword: HashMap<&str, BTreeSet<Dewey>> = HashMap::new();
        for row in values {
            per_keyword
                .entry(&row.keyword)
                .or_default()
                .insert(row.dewey.parse().expect("shredded dewey is valid"));
        }
        for (keyword, deweys) in per_keyword {
            self.delta_postings
                .entry(keyword.to_owned())
                .or_default()
                .extend(deweys);
        }
    }
}

/// A corpus that accepts inserts and deletes while staying a valid
/// [`CorpusSource`] — see the module docs for the layering.
///
/// All mutation goes through `&self` (the engine shares sources behind
/// `Arc`); a single `RwLock` serializes writers against the read path.
#[derive(Debug)]
pub struct MutableSource {
    state: RwLock<State>,
}

impl MutableSource {
    /// Creates an empty corpus whose root element is `<root_label/>` —
    /// exactly what shredding the zero-document corpus produces, so an
    /// empty mutable corpus and an empty rebuilt corpus are
    /// indistinguishable.
    pub fn create(root_label: &str) -> Result<Self, MutationError> {
        let tree = xks_xmltree::parse(&format!("<{root_label}/>"))?;
        let doc = shred(&tree);
        let mut state = State {
            base: None,
            labels: doc.labels.clone(),
            root_label: doc.elements[0].label,
            delta_postings: HashMap::new(),
            delta_elements: HashMap::new(),
            delta_docs: Vec::new(),
            root_rows: Some((doc.elements.clone(), doc.values.clone())),
            tombstones: BTreeSet::new(),
            next_doc: 0,
        };
        state.fold_rows(&doc.elements, &doc.values);
        Ok(MutableSource {
            state: RwLock::new(state),
        })
    }

    /// Wraps a sealed base corpus holding documents `0..next_doc`.
    /// `labels` must be the base's own dictionary (delta documents
    /// extend it); the base must contain the corpus root `0`.
    #[must_use]
    pub fn from_base(base: Arc<dyn CorpusSource>, labels: Vec<String>, next_doc: u32) -> Self {
        let root_label = base
            .element_label(&Dewey::from_components(vec![0]))
            .ok()
            .flatten()
            .expect("base corpus has a root element");
        MutableSource {
            state: RwLock::new(State {
                base: Some(base),
                labels,
                root_label,
                delta_postings: HashMap::new(),
                delta_elements: HashMap::new(),
                delta_docs: Vec::new(),
                root_rows: None,
                tombstones: BTreeSet::new(),
                next_doc,
            }),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        })
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        })
    }

    /// The ordinal the next insert will be assigned — what the WAL
    /// layer logs *before* applying the insert.
    #[must_use]
    pub fn next_ordinal(&self) -> u32 {
        self.read().next_doc
    }

    /// True when document `ordinal` exists and is not deleted.
    #[must_use]
    pub fn exists(&self, ordinal: u32) -> bool {
        let state = self.read();
        if state.tombstones.contains(&ordinal) || ordinal >= state.next_doc {
            return false;
        }
        let dewey = Dewey::from_components(vec![0, ordinal]);
        if state.delta_elements.contains_key(&dewey) {
            return true;
        }
        // Compaction never renumbers, so a base may have ordinal holes
        // from deletes sealed before it was built.
        state
            .base
            .as_ref()
            .is_some_and(|b| matches!(b.element_label(&dewey), Ok(Some(_))))
    }

    /// Inserts a document from XML text, returning its ordinal.
    pub fn insert_xml(&self, xml: &str) -> Result<u32, MutationError> {
        let tree = xks_xmltree::parse(xml)?;
        self.insert_tree(&tree)
    }

    /// Inserts an already-parsed document, returning its ordinal.
    pub fn insert_tree(&self, tree: &XmlTree) -> Result<u32, MutationError> {
        let ordinal = self.read().next_doc;
        self.apply_insert_tree(ordinal, tree)?;
        Ok(ordinal)
    }

    /// Applies an insert at an explicit ordinal — the WAL replay path.
    /// Ordinals must never regress; gaps are allowed (they are deletes
    /// whose tombstones compaction already sealed away).
    pub fn apply_insert(&self, ordinal: u32, xml: &str) -> Result<(), MutationError> {
        let tree = xks_xmltree::parse(xml)?;
        self.apply_insert_tree(ordinal, &tree)
    }

    fn apply_insert_tree(&self, ordinal: u32, tree: &XmlTree) -> Result<(), MutationError> {
        let mut state = self.write();
        if ordinal < state.next_doc {
            return Err(MutationError::OrdinalRegression {
                ordinal,
                next: state.next_doc,
            });
        }
        let root_label = state.root_label;
        let (elements, values) = shred_document(tree, ordinal, root_label, &mut state.labels);
        state.fold_rows(&elements, &values);
        state.delta_docs.push(DeltaDoc {
            ordinal,
            elements,
            values,
        });
        state.next_doc = ordinal + 1;
        Ok(())
    }

    /// Tombstones document `ordinal`; every posting and element inside
    /// it disappears from the read path immediately.
    pub fn delete(&self, ordinal: u32) -> Result<(), MutationError> {
        if !self.exists(ordinal) {
            return Err(MutationError::UnknownDocument(ordinal));
        }
        self.write().tombstones.insert(ordinal);
        Ok(())
    }

    /// Number of documents inserted since the base was sealed
    /// (tombstoned ones included — they still occupy delta memory).
    #[must_use]
    pub fn delta_doc_count(&self) -> usize {
        self.read().delta_docs.len()
    }

    /// Number of tombstoned documents.
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.read().tombstones.len()
    }

    /// Snapshot of the tombstoned ordinals, ascending.
    #[must_use]
    pub fn tombstones(&self) -> Vec<u32> {
        self.read().tombstones.iter().copied().collect()
    }

    /// Snapshot of the shared label dictionary.
    #[must_use]
    pub fn labels_snapshot(&self) -> Vec<String> {
        self.read().labels.clone()
    }

    /// True when a sealed base backs this source.
    #[must_use]
    pub fn has_base(&self) -> bool {
        self.read().base.is_some()
    }

    /// Exports every **live** row the base does not hold, in document
    /// order — compaction's input. Root rows lead when the corpus was
    /// created empty; tombstoned delta documents are dropped (their
    /// deletion is thereby sealed).
    #[must_use]
    pub fn export_delta_rows(&self) -> (Vec<ElementRow>, Vec<ValueRow>) {
        let state = self.read();
        let mut elements = Vec::new();
        let mut values = Vec::new();
        if let Some((e, v)) = &state.root_rows {
            elements.extend(e.iter().cloned());
            values.extend(v.iter().cloned());
        }
        for doc in &state.delta_docs {
            if state.tombstones.contains(&doc.ordinal) {
                continue;
            }
            elements.extend(doc.elements.iter().cloned());
            values.extend(doc.values.iter().cloned());
        }
        (elements, values)
    }

    /// Replaces the layering after compaction: the freshly sealed base
    /// takes over, the delta and tombstones reset. The ordinal
    /// high-water mark is preserved (sealed holes stay holes).
    pub fn swap_base(&self, base: Arc<dyn CorpusSource>, labels: Vec<String>) {
        let mut state = self.write();
        state.root_label = base
            .element_label(&Dewey::from_components(vec![0]))
            .ok()
            .flatten()
            .expect("sealed base has a root element");
        state.base = Some(base);
        state.labels = labels;
        state.delta_postings.clear();
        state.delta_elements.clear();
        state.delta_docs.clear();
        state.root_rows = None;
        state.tombstones.clear();
    }
}

impl CorpusSource for MutableSource {
    fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
        let state = self.read();
        let mut out = match &state.base {
            Some(base) => base.keyword_deweys(keyword)?,
            None => Vec::new(),
        };
        if !state.tombstones.is_empty() {
            out.retain(|d| !state.tombstoned(d));
        }
        if let Some(delta) = state.delta_postings.get(keyword) {
            out.extend(delta.iter().filter(|d| !state.tombstoned(d)).cloned());
        }
        Ok(out)
    }

    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        let state = self.read();
        if state.tombstoned(dewey) {
            return Ok(None);
        }
        if let Some(found) = state.delta_elements.get(dewey) {
            return Ok(Some(found.clone()));
        }
        match &state.base {
            Some(base) => base.element(dewey),
            None => Ok(None),
        }
    }

    fn element_label(&self, dewey: &Dewey) -> Result<Option<u32>, SourceError> {
        let state = self.read();
        if state.tombstoned(dewey) {
            return Ok(None);
        }
        if let Some(found) = state.delta_elements.get(dewey) {
            return Ok(Some(found.label));
        }
        match &state.base {
            Some(base) => base.element_label(dewey),
            None => Ok(None),
        }
    }

    fn label_name(&self, label: u32) -> Option<String> {
        self.read().labels.get(label as usize).cloned()
    }

    fn keyword_stats(&self, keyword: &str) -> Option<crate::plan::KeywordStats> {
        // Sealed statistics exist only where the live overlay cannot
        // have changed them: any tombstone may have removed base
        // postings for any keyword, and a delta insert adds postings
        // the base never counted. Either case returns `None` (unknown)
        // so the planner falls back to the full merge — the mutable
        // differential test pins that fallback's equivalence.
        let state = self.read();
        if !state.tombstones.is_empty() || state.delta_postings.contains_key(keyword) {
            return None;
        }
        state.base.as_ref()?.keyword_stats(keyword)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgorithmKind, SearchEngine};
    use crate::request::SearchRequest;
    use crate::source::MemoryCorpus;

    fn render_all(engine: &SearchEngine, query: &str) -> Vec<String> {
        let request = SearchRequest::parse(query)
            .unwrap()
            .algorithm(AlgorithmKind::ValidRtf);
        let response = engine.execute(&request).unwrap();
        let source = engine.corpus();
        response
            .hits
            .iter()
            .map(|h| h.fragment.render_source(source))
            .collect()
    }

    /// Sealed statistics go *unknown* — never stale — the moment the
    /// live overlay could have changed them, so the planner falls back
    /// to the full-merge path for delta-touched keywords.
    #[test]
    fn keyword_stats_unknown_once_overlay_touches_them() {
        use crate::source::CorpusSource as _;
        let base = MemoryCorpus::new(shred(
            &xks_xmltree::parse("<pubs><paper><title>xml keyword search</title></paper></pubs>")
                .unwrap(),
        ));
        let labels = (0..)
            .map_while(|i| base.label_name(i))
            .collect::<Vec<String>>();
        assert!(base.keyword_stats("xml").is_some());
        let src = MutableSource::from_base(std::sync::Arc::new(base), labels, 1);
        // Untouched keywords delegate to the sealed base.
        assert!(src.keyword_stats("xml").is_some());
        assert_eq!(
            src.keyword_stats("xml").unwrap().postings,
            1,
            "delegated base stats"
        );
        // A delta insert makes exactly the touched keywords unknown.
        src.insert_xml("<paper><title>skyline xml</title></paper>")
            .unwrap();
        assert_eq!(src.keyword_stats("xml"), None, "delta-touched");
        assert_eq!(src.keyword_stats("skyline"), None, "delta-touched");
        assert!(src.keyword_stats("keyword").is_some(), "untouched");
        // Any tombstone invalidates everything.
        src.delete(0).unwrap();
        assert_eq!(src.keyword_stats("keyword"), None);
        // And the planner honors the fallback end-to-end.
        let engine = SearchEngine::from_owned_source(src);
        let r = engine
            .execute(&SearchRequest::parse("skyline xml").unwrap())
            .unwrap();
        assert_eq!(
            r.stats.plan_strategy,
            crate::plan::PlanStrategy::FullMerge,
            "unsealed stats force the merge path"
        );
    }

    /// Insert-only interleaving: the mutable source must answer
    /// identically to shredding the equivalent whole corpus.
    #[test]
    fn inserts_match_rebuild_from_scratch() {
        let src = MutableSource::create("pubs").unwrap();
        src.insert_xml("<paper><title>xml keyword search</title></paper>")
            .unwrap();
        src.insert_xml("<paper><title>skyline keyword queries</title></paper>")
            .unwrap();

        let oracle = MemoryCorpus::new(shred(
            &xks_xmltree::parse(
                "<pubs><paper><title>xml keyword search</title></paper>\
                 <paper><title>skyline keyword queries</title></paper></pubs>",
            )
            .unwrap(),
        ));
        let mutable_engine = SearchEngine::from_owned_source(src);
        let oracle_engine = SearchEngine::from_owned_source(oracle);
        for q in ["xml keyword", "skyline", "keyword", "title search"] {
            assert_eq!(
                render_all(&mutable_engine, q),
                render_all(&oracle_engine, q),
                "query {q:?}"
            );
        }
    }

    /// Deleting a document removes it from the anchor pass immediately.
    #[test]
    fn delete_tombstones_the_anchor_pass() {
        let src = MutableSource::create("pubs").unwrap();
        let keep = src
            .insert_xml("<paper><title>xml keyword</title></paper>")
            .unwrap();
        let drop = src
            .insert_xml("<paper><title>xml skyline</title></paper>")
            .unwrap();
        assert_eq!(src.keyword_deweys("xml").unwrap().len(), 2);
        src.delete(drop).unwrap();
        assert!(src.exists(keep));
        assert!(!src.exists(drop));
        let xml_nodes = src.keyword_deweys("xml").unwrap();
        assert_eq!(xml_nodes.len(), 1);
        assert_eq!(xml_nodes[0].components()[1], keep);
        assert!(src.keyword_deweys("skyline").unwrap().is_empty());
        assert!(src
            .element(&Dewey::from_components(vec![0, drop]))
            .unwrap()
            .is_none());
        // Deleting again (or a never-assigned ordinal) is typed.
        assert!(matches!(
            src.delete(drop),
            Err(MutationError::UnknownDocument(_))
        ));
        assert!(matches!(
            src.delete(99),
            Err(MutationError::UnknownDocument(99))
        ));
    }

    /// Ordinals are never reused after a delete, so replay stays
    /// unambiguous.
    #[test]
    fn ordinals_are_never_reused() {
        let src = MutableSource::create("pubs").unwrap();
        let a = src.insert_xml("<a><t>alpha</t></a>").unwrap();
        src.delete(a).unwrap();
        let b = src.insert_xml("<b><t>beta</t></b>").unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(matches!(
            src.apply_insert(0, "<c/>"),
            Err(MutationError::OrdinalRegression {
                ordinal: 0,
                next: 2
            })
        ));
    }

    /// New labels from delta documents extend the dictionary without
    /// renumbering existing labels.
    #[test]
    fn delta_labels_extend_the_dictionary() {
        let src = MutableSource::create("pubs").unwrap();
        let before = src.labels_snapshot();
        src.insert_xml("<paper><venue>edbt</venue></paper>")
            .unwrap();
        let after = src.labels_snapshot();
        assert_eq!(&after[..before.len()], &before[..]);
        assert!(after.iter().any(|l| l == "venue"));
        let venue_nodes = src.keyword_deweys("venue").unwrap();
        assert_eq!(venue_nodes.len(), 1);
        let label = src.element_label(&venue_nodes[0]).unwrap().unwrap();
        assert_eq!(src.label_name(label).as_deref(), Some("venue"));
    }

    /// Malformed XML is rejected before any state changes.
    #[test]
    fn bad_xml_is_rejected_atomically() {
        let src = MutableSource::create("pubs").unwrap();
        assert!(matches!(
            src.insert_xml("<broken><unclosed>"),
            Err(MutationError::Xml(_))
        ));
        assert_eq!(src.next_ordinal(), 0);
        assert_eq!(src.delta_doc_count(), 0);
    }
}
