//! Per-thread query working memory — re-exported from `xks-lca`.
//!
//! [`xks_lca::QueryContext`] is the *mutable per-thread half* of the
//! read path, owned one-per-thread by the [`crate::executor`] and
//! checked in/out of a pool by
//! [`crate::engine::SearchEngine::execute`]. It lives in `xks-lca` so
//! the scratch-taking LCA entry points
//! ([`xks_lca::elca_into_context`], [`xks_lca::slca_into_context`])
//! accept it directly.

pub use xks_lca::QueryContext;
