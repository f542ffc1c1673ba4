//! Per-thread query working memory: the mutable half of the read path.
//!
//! The concurrency model of the workspace splits every query into two
//! halves: a shared **immutable** index handle (`CorpusSource` backends
//! — safe to share across threads behind an `Arc`) and a per-thread
//! [`QueryContext`] owning every buffer a query mutates — the merged
//! posting stream, the anchor list, the ELCA mask stack, the gallop
//! scratch, and the query's timing record. One
//! context per thread means the anchor pipeline stays allocation-free
//! when warm (asserted by the workspace's counting-allocator test)
//! *without* any lock on the hot path.
//!
//! The context lives in this crate — the lowest layer that owns the
//! scratch-taking algorithms — so [`elca_into_context`] and
//! [`slca_into_context`] can accept it directly and higher layers
//! (`validrtf`'s engine and executor) reuse the same type.

use xks_xmltree::Dewey;

use crate::common::merge_postings_into;
use crate::elca::{elca_from_merged, ElcaScratch};
use crate::gallop::{extract_anchored_into, gallop_elca, GallopScratch};
use crate::slca::indexed_lookup_eager_into;

/// Working buffers reused across queries by **one thread** (or one
/// single-threaded engine).
///
/// All fields are public: they are plumbing buffers, and callers such
/// as the counting-allocator test need to warm and inspect them
/// directly. Contents are transient per query — nothing here survives
/// as an answer; results are copied out by the caller.
#[derive(Debug, Default)]
pub struct QueryContext {
    /// Merged `(dewey, keyword-bitmask)` posting stream in document
    /// order — computed once per query, consumed by both `getLCA` and
    /// `getRTF`.
    pub merged: Vec<(Dewey, u64)>,
    /// The anchor nodes of the current query (ELCA or SLCA set).
    pub anchors: Vec<Dewey>,
    /// The ELCA stack's mask/path buffers.
    pub elca: ElcaScratch,
    /// Scratch buffers for the planner's galloping anchor pass
    /// ([`planned_elca_into_context`]); untouched on the legacy merge
    /// path.
    pub gallop: GallopScratch,
    /// The per-query timing record. The engine restarts it for every
    /// request and records each stage into it, traced or not; a traced
    /// response carries a copy. Storage is inline (a fixed span array),
    /// so recording allocates nothing and the context's warm path
    /// stays allocation-free.
    pub trace: xks_obs::QueryTrace,
}

impl QueryContext {
    /// A fresh context (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the buffered capacity (e.g. after an unusually large
    /// query, to return memory to the allocator).
    pub fn shrink(&mut self) {
        *self = Self::default();
    }
}

/// Merges the posting sets into `ctx.merged` and computes the **ELCA**
/// anchors into `ctx.anchors` — the context-taking form of
/// [`merge_postings_into`] + [`elca_from_merged`]. The merged stream is
/// left in the context for `getRTF` to consume.
///
/// Empty input (no sets, or any empty set) clears both buffers: no
/// node can cover the query.
pub fn elca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    merge_postings_into(sets, &mut ctx.merged);
    elca_from_merged(&ctx.merged, sets.len(), &mut ctx.elca, &mut ctx.anchors);
}

/// Merges the posting sets into `ctx.merged` and computes the **SLCA**
/// anchors into `ctx.anchors` — the context-taking form of
/// [`indexed_lookup_eager_into`] (the merged stream is still produced,
/// because `getRTF` dispatches keyword nodes over it).
pub fn slca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    merge_postings_into(sets, &mut ctx.merged);
    indexed_lookup_eager_into(sets, &mut ctx.anchors);
}

/// Planned form of [`elca_into_context`]: computes the same ELCA
/// anchors by galloping from the `driver` (rarest) list
/// ([`gallop_elca`]) and rebuilds `ctx.merged` restricted to the
/// anchors' subtrees ([`extract_anchored_into`]) — the only nodes
/// `getRTF` keeps anyway, so downstream results are byte-identical to
/// the merge path.
pub fn planned_elca_into_context(sets: &[Vec<Dewey>], driver: usize, ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    gallop_elca(sets, driver, &mut ctx.gallop, &mut ctx.anchors);
    extract_anchored_into(sets, &ctx.anchors, &mut ctx.merged);
}

/// Planned form of [`slca_into_context`]: the SLCA anchors already come
/// from a binary-search driven lookup, so only the merge is replaced by
/// the anchored extraction.
pub fn planned_slca_into_context(sets: &[Vec<Dewey>], ctx: &mut QueryContext) {
    if sets.is_empty() || sets.iter().any(Vec::is_empty) {
        ctx.merged.clear();
        ctx.anchors.clear();
        return;
    }
    indexed_lookup_eager_into(sets, &mut ctx.anchors);
    extract_anchored_into(sets, &ctx.anchors, &mut ctx.merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elca::elca_stack;
    use crate::slca::indexed_lookup_eager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn sets() -> Vec<Vec<Dewey>> {
        vec![
            vec![d("0.0"), d("0.2.0.0.0.0"), d("0.2.0.3.0")],
            vec![d("0.2.0.1"), d("0.2.1.1")],
        ]
    }

    #[test]
    fn context_forms_match_free_functions() {
        let sets = sets();
        let mut ctx = QueryContext::new();
        elca_into_context(&sets, &mut ctx);
        assert_eq!(ctx.anchors, elca_stack(&sets));
        assert!(!ctx.merged.is_empty());

        slca_into_context(&sets, &mut ctx);
        assert_eq!(ctx.anchors, indexed_lookup_eager(&sets));
    }

    #[test]
    fn empty_input_clears_buffers() {
        let mut ctx = QueryContext::new();
        elca_into_context(&sets(), &mut ctx);
        assert!(!ctx.anchors.is_empty());
        elca_into_context(&[], &mut ctx);
        assert!(ctx.anchors.is_empty() && ctx.merged.is_empty());

        slca_into_context(&sets(), &mut ctx);
        slca_into_context(&[vec![d("0.1")], vec![]], &mut ctx);
        assert!(ctx.anchors.is_empty() && ctx.merged.is_empty());
    }

    #[test]
    fn planned_forms_match_legacy_forms() {
        let sets = sets();
        let mut legacy = QueryContext::new();
        let mut planned = QueryContext::new();

        elca_into_context(&sets, &mut legacy);
        for driver in 0..sets.len() {
            planned_elca_into_context(&sets, driver, &mut planned);
            assert_eq!(planned.anchors, legacy.anchors, "driver {driver}");
            // Every under-anchor node of the legacy merge survives with
            // an identical mask; the planned stream has nothing else.
            let filtered: Vec<(Dewey, u64)> = legacy
                .merged
                .iter()
                .filter(|(node, _)| legacy.anchors.iter().any(|a| a.is_ancestor_or_self(node)))
                .cloned()
                .collect();
            assert_eq!(planned.merged, filtered);
        }

        slca_into_context(&sets, &mut legacy);
        planned_slca_into_context(&sets, &mut planned);
        assert_eq!(planned.anchors, legacy.anchors);

        planned_elca_into_context(&[], 0, &mut planned);
        assert!(planned.anchors.is_empty() && planned.merged.is_empty());
        planned_slca_into_context(&[vec![d("0.1")], vec![]], &mut planned);
        assert!(planned.anchors.is_empty() && planned.merged.is_empty());
    }

    #[test]
    fn contexts_are_independent_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryContext>();

        let sets = sets();
        let mut a = QueryContext::new();
        let mut b = QueryContext::new();
        elca_into_context(&sets, &mut a);
        slca_into_context(&sets, &mut b);
        assert_eq!(a.anchors, elca_stack(&sets));
        assert_eq!(b.anchors, indexed_lookup_eager(&sets));
    }
}
