//! The search engine: one object owning a corpus, executing
//! [`SearchRequest`]s through a single pipeline and producing the §5.1
//! comparison in one call.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xks_index::{KeywordNodeSets, Query, QuerySpec};
use xks_obs::{Counter, Histogram, Stage};
use xks_xmltree::{Dewey, XmlTree};

use crate::algorithms::{AnchorExec, AnchorSemantics, StageTimings};
use crate::fragment::Fragment;
use crate::metrics::{effectiveness, Effectiveness};
use crate::plan::{choose_driver, choose_strategy, PlanReport, PlanStrategy};
use crate::prune::{prune_owned, Policy};
use crate::rank::RankedFragment;
use crate::request::{Hit, SearchError, SearchRequest, SearchResponse, SearchStats, SearchTimeout};
use crate::rtf::{get_rtf_from_merged, Rtf};
use crate::scratch::QueryContext;
use crate::shards::ShardSet;
use crate::source::{CorpusSource, TreeCorpus};

/// Which end-to-end algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// ValidRTF: all interesting LCAs + valid-contributor pruning.
    ValidRtf,
    /// Revised MaxMatch: all interesting LCAs + contributor pruning.
    MaxMatchRtf,
    /// Original MaxMatch: SLCA anchors + contributor pruning.
    MaxMatchSlca,
}

impl AlgorithmKind {
    fn anchor(self) -> AnchorSemantics {
        match self {
            AlgorithmKind::MaxMatchSlca => AnchorSemantics::SlcaOnly,
            _ => AnchorSemantics::AllLca,
        }
    }

    fn policy(self) -> Policy {
        match self {
            AlgorithmKind::ValidRtf => Policy::ValidContributor,
            _ => Policy::Contributor,
        }
    }
}

/// The per-query comparison of ValidRTF against the revised MaxMatch —
/// one data point of Figures 5 and 6.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Number of RTFs (the "RTFs" line of Figure 5).
    pub rtf_count: usize,
    /// ValidRTF elapsed time.
    pub valid_rtf_time: Duration,
    /// Revised MaxMatch elapsed time.
    pub max_match_time: Duration,
    /// CFR / APR / APR' / Max APR (Figure 6).
    pub effectiveness: Effectiveness,
}

/// A corpus, ready to answer keyword queries.
///
/// Every engine runs the same pipeline over one [`CorpusSource`]: a
/// parsed tree ([`SearchEngine::new`]), shredded tables or an on-disk
/// index ([`SearchEngine::from_source`]), or a routed shard set
/// ([`SearchEngine::from_shard_set`]).
///
/// `SearchEngine` is the shared **immutable** half of the read path —
/// it is `Send + Sync` and designed to be queried from many threads at
/// once (see [`crate::executor`]). All per-query mutable state lives in
/// a [`QueryContext`]: [`SearchEngine::execute_with`] takes one
/// explicitly (the per-thread, lock-free path the concurrent executor
/// uses), and [`SearchEngine::execute`] checks one in and out of a
/// small internal pool (one uncontended `Mutex` lock each way, never
/// held across the query).
///
/// A warm context answers queries without heap allocation in the
/// anchor pipeline (asserted by the workspace's counting-allocator
/// test).
#[derive(Debug)]
pub struct SearchEngine {
    source: Arc<dyn CorpusSource>,
    /// Pool of warm contexts for the `&self` entry points. Capped so a
    /// burst of threads cannot pin unbounded scratch memory.
    contexts: Mutex<Vec<QueryContext>>,
    /// Handles into the global metrics registry, resolved once at
    /// construction so the per-query recording path is pure lock-free
    /// atomics (see [`EngineMetrics`]).
    metrics: EngineMetrics,
}

/// Most contexts a [`SearchEngine`] keeps warm for its `&self` entry
/// points; checked-in contexts beyond this are dropped.
const CONTEXT_POOL_CAP: usize = 64;

impl SearchEngine {
    /// Builds the engine from a parsed tree (index construction happens
    /// here) — a [`TreeCorpus`] over the tree and its inverted index.
    /// Callers that also need the tree afterwards (to render original
    /// text) build the [`TreeCorpus`] themselves and share it through
    /// [`SearchEngine::from_source`].
    #[must_use]
    pub fn new(tree: XmlTree) -> Self {
        Self::from_source(Arc::new(TreeCorpus::new(tree)))
    }

    /// Builds the engine over a **shared** [`CorpusSource`] backend —
    /// the index-handle form: one opened corpus (e.g. an
    /// `xks_persist::IndexReader` with its buffer pool and caches) can
    /// back any number of engines and outside observers without
    /// reopening the file.
    #[must_use]
    pub fn from_source(source: Arc<dyn CorpusSource>) -> Self {
        SearchEngine {
            source,
            contexts: Mutex::new(Vec::new()),
            metrics: EngineMetrics::from_global(),
        }
    }

    /// Convenience form of [`SearchEngine::from_source`] for callers
    /// that don't need to keep a handle on the source: wraps an owned
    /// corpus in an `Arc` internally.
    #[must_use]
    pub fn from_owned_source(source: impl CorpusSource + 'static) -> Self {
        Self::from_source(Arc::new(source))
    }

    /// Builds the engine over a sharded corpus: the [`ShardSet`] is
    /// itself a routing [`CorpusSource`] (see [`crate::shards`]), so
    /// this is [`SearchEngine::from_source`] over the set.
    #[must_use]
    pub fn from_shard_set(set: ShardSet) -> Self {
        Self::from_source(Arc::new(set))
    }

    /// The corpus this engine searches (label names, rendering).
    #[must_use]
    pub fn corpus(&self) -> &dyn CorpusSource {
        self.source.as_ref()
    }

    /// Executes a [`SearchRequest`] — **the** entry point of the read
    /// path. Checks a warm [`QueryContext`] out of the engine's pool
    /// (one short `Mutex` lock each way; the query itself runs
    /// lock-free) and delegates to [`SearchEngine::execute_with`].
    pub fn execute(&self, request: &SearchRequest) -> Result<SearchResponse, SearchError> {
        let mut ctx = self.checkout_context();
        let result = self.execute_with(request, &mut ctx);
        self.checkin_context(ctx);
        result
    }

    /// Executes a [`SearchRequest`] with a caller-owned per-thread
    /// [`QueryContext`] — the lock-free path the concurrent
    /// [`crate::executor`] drives. Threads sharing one engine each
    /// bring their own context; the staged
    /// `getKeywordNodes → getLCA → getRTF → pruneRTF` flow reuses its
    /// scratch (asserted by the workspace's counting-allocator test).
    ///
    /// Every request, traced or not, times its stages into the
    /// context's [`xks_obs::QueryTrace`]; the response's
    /// [`SearchResponse::timings`] and the engine's `search.*`
    /// metrics are read from that one record, and a traced request
    /// also gets a copy of it. Failed and timed-out requests are
    /// counted and timed too.
    ///
    /// Every failure comes back typed: grammar errors as
    /// [`SearchError::Parse`] (from [`SearchRequest::parse`]), backend
    /// I/O and index corruption as [`SearchError::Backend`]. No query
    /// path panics.
    pub fn execute_with(
        &self,
        request: &SearchRequest,
        ctx: &mut QueryContext,
    ) -> Result<SearchResponse, SearchError> {
        ctx.trace.start();
        // Parsing happened before execution; re-base its measured
        // duration at the trace origin so the span survives.
        if request.parse_time_ns() > 0 {
            ctx.trace
                .record_manual(Stage::Parse, 0, request.parse_time_ns());
        }
        let outcome = self.run_stages(request, ctx);
        let timings = StageTimings::from_trace(&ctx.trace);
        self.metrics.observe(&timings, outcome.as_ref().ok());
        let (hits, stats) = outcome?;
        Ok(SearchResponse {
            hits,
            timings,
            stats,
            trace: request.traced().then(|| ctx.trace.clone()),
        })
    }

    /// The pipeline behind [`SearchEngine::execute_with`]: closes one
    /// trace lap per stage (a failing stage closes its lap before the
    /// error propagates) and returns the hits with their stats.
    fn run_stages(
        &self,
        request: &SearchRequest,
        ctx: &mut QueryContext,
    ) -> Result<(Vec<Hit>, SearchStats), SearchError> {
        let spec = request.spec();
        let kind = request.kind();
        let mut stats = SearchStats {
            dropped_terms: spec.report().dropped.clone(),
            normalized_terms: spec.report().normalized.clone(),
            ..SearchStats::default()
        };

        // Deadline hook: requests carrying a deadline are checked
        // between stages (never mid-stage), at the instant the last
        // stage ended. A request that was queued past its budget dies
        // here before touching storage.
        let deadline = request.deadline();
        self.check_deadline(deadline, &ctx.trace, "resolve", &stats)?;

        // getKeywordNodes — the one stage that touches cold storage.
        let resolved = self.resolve(spec.query(), &mut stats, ctx);
        ctx.trace.lap(Stage::Resolve);
        let Some((sets, all_sealed)) = resolved? else {
            // Some keyword matches nothing: empty result, not an error.
            return Ok((Vec::new(), stats));
        };

        self.check_deadline(deadline, &ctx.trace, "anchor", &stats)?;

        // Plan: pick the anchor-pass strategy from the resolved list
        // lengths and the backend's sealed statistics (scalars only —
        // the warm path stays allocation-free).
        let exec = plan_anchor_exec(&sets, all_sealed, &mut stats);
        ctx.trace.lap(Stage::Plan);

        // getLCA + getRTF over the context's shared scratch buffers.
        crate::algorithms::anchor_pass(&sets, kind.anchor(), exec, ctx);
        ctx.trace.lap(Stage::MergeAnchor);
        let rtfs = get_rtf_from_merged(&ctx.anchors, &ctx.merged, &sets);
        ctx.trace.lap(Stage::RtfDispatch);
        self.check_deadline(deadline, &ctx.trace, "construct", &stats)?;

        // Construct + prune, consuming each raw fragment so no node
        // payload is deep-cloned.
        let mut builder = FragmentBuilder::new(self.source.as_ref(), kind.policy());

        // Top-k bound skip: when the request is a plain ranked top-k,
        // construct fragments best-bound-first and never build the
        // ones that provably miss the cut. Results are identical to
        // the construct-everything path (see `construct_bounded_topk`);
        // only the work differs.
        if let Some((k_limit, weights)) = topk_bound_gate(request, spec) {
            stats.total_before_top_k = rtfs.len();
            stats.truncated = rtfs.len() > k_limit;
            let hits = construct_bounded_topk(
                &rtfs,
                &mut builder,
                spec.query().len(),
                k_limit,
                &weights,
                &mut stats,
            );
            builder.lap(ctx);
            return Ok((hits?, stats));
        }

        let mut fragments = Vec::with_capacity(rtfs.len());
        let built = rtfs.iter().try_for_each(|rtf| {
            fragments.push(builder.build(rtf)?);
            Ok::<_, SearchError>(())
        });
        builder.lap(ctx);
        built?;
        self.check_deadline(deadline, &ctx.trace, "post_process", &stats)?;

        // Everything past the paper's pipeline is the post-process
        // stage. First the operator post-filters: phrases, label
        // filters, exclusions (whose lookups are real backend reads; a
        // no-op for plain keyword queries, which therefore reproduce
        // the legacy path byte for byte).
        if !spec.is_plain() && !fragments.is_empty() {
            let before = fragments.len();
            let filtered = self.apply_post_filters(spec, &sets, &mut fragments);
            ctx.trace.lap(Stage::PostFilter);
            filtered?;
            stats.filtered_out = before - fragments.len();
        }

        // Shape the response: cap, rank, truncate, materialize hits.
        stats.total_before_top_k = fragments.len();
        if let Some(cap) = request.max_fragments_cap() {
            if fragments.len() > cap {
                fragments.truncate(cap);
                stats.truncated = true;
            }
        }
        let hits = match request.effective_weights() {
            Some(weights) => {
                let mut order = crate::rank::rank(&fragments, spec.query().len(), &weights);
                if let Some(k) = request.top_k_limit() {
                    if order.len() > k {
                        order.truncate(k);
                        stats.truncated = true;
                    }
                }
                take_ranked(fragments, &order)
            }
            None => fragments
                .into_iter()
                .map(|fragment| Hit {
                    fragment,
                    score: None,
                    signals: None,
                })
                .collect(),
        };
        ctx.trace.lap(Stage::Rank);
        Ok((hits, stats))
    }

    /// `getKeywordNodes`: one postings lookup per keyword (one
    /// [`Stage::PostingsDecode`] span each, nested in the caller's
    /// [`Stage::Resolve`] lap) plus its sealed statistics, whose
    /// shard-filter skips land in `stats.shards_skipped`. Returns the
    /// keyword-node sets and whether every term had sealed statistics,
    /// or `None` as soon as some keyword matches nothing.
    fn resolve(
        &self,
        query: &Query,
        stats: &mut SearchStats,
        ctx: &mut QueryContext,
    ) -> Result<Option<(KeywordNodeSets, bool)>, SearchError> {
        let mut sets = Vec::with_capacity(query.len());
        let mut all_sealed = true;
        for kw in query.keywords() {
            let t = Instant::now();
            let list = self.source.keyword_deweys(kw);
            ctx.trace.record_since(Stage::PostingsDecode, t);
            let list = list?;
            let sealed = self.source.keyword_stats(kw);
            all_sealed &= sealed.is_some();
            stats.shards_skipped += sealed.map_or(0, |s| s.shards_skipped);
            if list.is_empty() {
                return Ok(None);
            }
            sets.push(list);
        }
        Ok(Some((
            KeywordNodeSets::new(query.clone(), sets),
            all_sealed,
        )))
    }

    /// The between-stage deadline check: free for requests without a
    /// deadline; otherwise it compares the deadline with the end of the
    /// last stage (the trace's lap mark, so no extra clock read). An
    /// expired deadline becomes a typed [`SearchError::Timeout`]
    /// carrying the stats accumulated so far (partial — enough for a
    /// server's `503` body) and bumps the global
    /// `search.deadline_exceeded` counter.
    fn check_deadline(
        &self,
        deadline: Option<Instant>,
        trace: &xks_obs::QueryTrace,
        stage: &'static str,
        stats: &SearchStats,
    ) -> Result<(), SearchError> {
        let Some(deadline) = deadline else {
            return Ok(());
        };
        let now = trace.mark();
        if now < deadline {
            return Ok(());
        }
        self.metrics.deadline_exceeded.inc();
        Err(SearchError::Timeout(Box::new(SearchTimeout {
            stage,
            elapsed: Duration::from_nanos(trace.offset_ns(now)),
            stats: stats.clone(),
        })))
    }

    /// Explains how the planner would execute `request` against this
    /// backend **without running it**: per-term postings/doc-frequency
    /// statistics in rarest-first order, the gallop-vs-merge choice,
    /// and per-term shard-filter skips (see [`PlanReport`] and the
    /// `xks explain` CLI subcommand).
    pub fn explain(&self, request: &SearchRequest) -> Result<PlanReport, SearchError> {
        Ok(PlanReport::build(self.source.as_ref(), request.query())?)
    }

    /// Drops every fragment violating an operator constraint. Phrases
    /// demand one keyword node whose own content matches the whole
    /// group; label filters demand the constrained keyword be matched
    /// by a node with that label; exclusions reject any fragment whose
    /// anchor subtree contains the excluded word.
    fn apply_post_filters(
        &self,
        spec: &QuerySpec,
        sets: &KeywordNodeSets,
        fragments: &mut Vec<Fragment>,
    ) -> Result<(), SearchError> {
        use std::collections::HashMap;

        let phrase_masks: Vec<u64> = spec
            .phrases()
            .iter()
            .map(|group| group.iter().fold(0u64, |m, &p| m | (1 << p)))
            .collect();
        // Excluded keywords resolve like any other keyword; an absent
        // word simply excludes nothing.
        let mut exclusion_postings: Vec<Vec<Dewey>> = Vec::with_capacity(spec.exclusions().len());
        for word in spec.exclusions() {
            exclusion_postings.push(self.source.keyword_deweys(word)?);
        }
        // Label-name lookups cross the backend and lowercase a string;
        // memoize per (filter, label id) so the walk below does integer
        // compares after the first sighting of each label.
        let mut label_memos: Vec<HashMap<u32, bool>> =
            vec![HashMap::new(); spec.label_filters().len()];
        // Per-fragment satisfaction flags, hoisted so retain reuses the
        // buffers.
        let mut phrase_ok: Vec<bool> = Vec::new();
        let mut filter_ok: Vec<bool> = Vec::new();
        fragments.retain(|fragment| {
            phrase_ok.clear();
            phrase_ok.resize(phrase_masks.len(), false);
            filter_ok.clear();
            filter_ok.resize(spec.label_filters().len(), false);
            // One keyword-mask computation per node (it costs k binary
            // searches over the posting lists), checked against every
            // constraint in the same walk.
            for n in fragment.iter() {
                if !n.is_keyword {
                    continue;
                }
                let mask = sets.keyword_mask(&n.dewey);
                for (ok, &group) in phrase_ok.iter_mut().zip(&phrase_masks) {
                    if !*ok && mask & group == group {
                        *ok = true;
                    }
                }
                for ((ok, filter), memo) in filter_ok
                    .iter_mut()
                    .zip(spec.label_filters())
                    .zip(label_memos.iter_mut())
                {
                    if !*ok
                        && mask & (1 << filter.position) != 0
                        && *memo.entry(n.label.as_u32()).or_insert_with(|| {
                            // `want` is already lowercased by the grammar.
                            self.source
                                .label_name(n.label.as_u32())
                                .is_some_and(|name| name.to_lowercase() == filter.label)
                        })
                    {
                        *ok = true;
                    }
                }
            }
            phrase_ok.iter().all(|&ok| ok)
                && filter_ok.iter().all(|&ok| ok)
                && !exclusion_postings
                    .iter()
                    .any(|list| subtree_contains(&fragment.anchor, list))
        });
        Ok(())
    }

    /// Takes a warm context from the pool (or makes a fresh one). The
    /// executor's workers use this too, so batches stay warm across
    /// calls. A poisoned pool is recovered, not propagated: contexts
    /// are plain scratch buffers with no invariants a panic could
    /// break, so one panicked thread must not take down every
    /// subsequent `&self` query. Each recovery increments the global
    /// `lock.poison_recovered` counter so a wounded process is visible
    /// to operators.
    pub(crate) fn checkout_context(&self) -> QueryContext {
        self.contexts
            .lock()
            .unwrap_or_else(|e| {
                xks_obs::count_poison_recovery();
                e.into_inner()
            })
            .pop()
            .unwrap_or_default()
    }

    /// Returns a context to the pool, dropping it if the pool is full
    /// (same poison recovery as [`SearchEngine::checkout_context`]).
    pub(crate) fn checkin_context(&self, ctx: QueryContext) {
        let mut pool = self.contexts.lock().unwrap_or_else(|e| {
            xks_obs::count_poison_recovery();
            e.into_inner()
        });
        if pool.len() < CONTEXT_POOL_CAP {
            pool.push(ctx);
        }
    }

    /// Runs ValidRTF and revised MaxMatch on the same query and computes
    /// the Figure 5/6 data point.
    pub fn compare(&self, query: &Query) -> Result<Comparison, SearchError> {
        let valid = self.execute(
            &SearchRequest::from_query(query.clone()).algorithm(AlgorithmKind::ValidRtf),
        )?;
        let mm = self.execute(
            &SearchRequest::from_query(query.clone()).algorithm(AlgorithmKind::MaxMatchRtf),
        )?;
        debug_assert_eq!(valid.hits.len(), mm.hits.len());
        let pairs: Vec<(Fragment, Fragment)> = valid
            .hits
            .iter()
            .zip(mm.hits.iter())
            .map(|(v, m)| (v.fragment.clone(), m.fragment.clone()))
            .collect();
        Ok(Comparison {
            rtf_count: valid.hits.len(),
            valid_rtf_time: valid.timings.total(),
            max_match_time: mm.timings.total(),
            effectiveness: effectiveness(&pairs),
        })
    }
}

/// Chooses the anchor-pass execution — legacy k-way merge or the
/// planner's rarest-first gallop — from the resolved list lengths and
/// whether every term has sealed statistics, recording the choice in
/// `stats`. Scalar-only on purpose: lengths land in a fixed stack array
/// (queries carry ≤ 64 keywords — the `KeySet` mask width), so the warm
/// path performs no allocation here.
fn plan_anchor_exec(
    sets: &KeywordNodeSets,
    all_sealed: bool,
    stats: &mut SearchStats,
) -> AnchorExec {
    let lists = sets.sets();
    let k = lists.len();
    let mut lens = [0usize; 64];
    for (slot, list) in lens.iter_mut().zip(lists) {
        *slot = list.len();
    }
    stats.plan_postings = lists.iter().map(|l| l.len() as u64).sum();
    if !(2..=64).contains(&k) {
        return AnchorExec::Merge;
    }
    let lens = &lens[..k];
    match choose_strategy(lens, all_sealed) {
        PlanStrategy::FullMerge => AnchorExec::Merge,
        PlanStrategy::Gallop => {
            let driver = choose_driver(lens);
            stats.plan_strategy = PlanStrategy::Gallop;
            stats.plan_driver = driver as u32;
            AnchorExec::Gallop { driver }
        }
    }
}

/// Whether this request qualifies for bound-ordered top-k construction
/// (skipping fragments that provably miss the top k): a ranked
/// `top_k ≥ 1` over a plain query with no `max_fragments` cap, with
/// non-negative weights summing above zero (negative weights would
/// invert the score bound). Returns the limit and the effective
/// weights.
fn topk_bound_gate(
    request: &SearchRequest,
    spec: &QuerySpec,
) -> Option<(usize, crate::rank::RankWeights)> {
    if !spec.is_plain() || request.max_fragments_cap().is_some() {
        return None;
    }
    let k = request.top_k_limit().filter(|&k| k >= 1)?;
    let weights = request.effective_weights()?;
    let wsum = weights.specificity + weights.compactness + weights.density;
    if weights.specificity < 0.0
        || weights.compactness < 0.0
        || weights.density < 0.0
        || wsum <= 0.0
    {
        return None;
    }
    Some((k, weights))
}

/// Constructs + prunes + scores fragments in descending order of their
/// score **upper bound**, skipping every RTF whose bound falls strictly
/// below the current k-th best score once `k_limit` fragments exist.
/// Returns hits best-first, truncated to `k_limit` — byte-identical to
/// construct-everything-then-rank:
///
/// * the bound uses the **global** `max_depth` over all RTF anchors
///   (exactly [`crate::rank::rank`]'s normalizer, since every RTF
///   becomes a fragment on the full path and anchors survive
///   construction unchanged);
/// * specificity is exact, compactness is bounded by 1, density by the
///   best per-node keyword share (pruning only removes nodes, and the
///   average of shares never exceeds their maximum);
/// * the `1e-9` margin absorbs rounding differences between the bound
///   expression and [`crate::rank::score_fragment`], so a skip implies
///   a strictly lower true score — under the score-desc / index-asc
///   tiebreak, no skipped fragment can displace a constructed one from
///   the top k.
fn construct_bounded_topk(
    rtfs: &[Rtf],
    builder: &mut FragmentBuilder<'_>,
    k_query: usize,
    k_limit: usize,
    weights: &crate::rank::RankWeights,
    stats: &mut SearchStats,
) -> Result<Vec<Hit>, SearchError> {
    let max_depth = rtfs
        .iter()
        .map(|r| r.anchor.level())
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let wsum = weights.specificity + weights.compactness + weights.density;
    let bound = |r: &Rtf| -> f64 {
        let specificity = r.anchor.level() as f64 / max_depth;
        let density_max = r
            .knodes
            .iter()
            .map(|(_, kset)| kset.len() as f64 / k_query.max(1) as f64)
            .fold(0.0f64, f64::max);
        (weights.specificity * specificity + weights.compactness + weights.density * density_max)
            / wsum
            + 1e-9
    };
    let mut order: Vec<(usize, f64)> = rtfs
        .iter()
        .enumerate()
        .map(|(i, r)| (i, bound(r)))
        .collect();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });

    // (original index, score, signals, fragment) of everything built;
    // `top_scores` tracks the k best scores descending.
    let mut built: Vec<(usize, f64, [f64; 3], Fragment)> = Vec::new();
    let mut top_scores: Vec<f64> = Vec::with_capacity(k_limit);
    for (i, ub) in order {
        if top_scores.len() == k_limit && ub < top_scores[k_limit - 1] {
            stats.rtfs_skipped_topk += 1;
            continue;
        }
        let fragment = builder.build(&rtfs[i])?;
        let (score, signals) = crate::rank::score_fragment(&fragment, k_query, weights, max_depth);
        let pos = top_scores.partition_point(|&s| s >= score);
        if pos < k_limit {
            top_scores.insert(pos, score);
            top_scores.truncate(k_limit);
        }
        built.push((i, score, signals, fragment));
    }
    built.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    built.truncate(k_limit);
    Ok(built
        .into_iter()
        .map(|(_, score, signals, fragment)| Hit {
            fragment,
            score: Some(score),
            signals: Some(signals),
        })
        .collect())
}

/// The construct + prune step of one RTF, shared by the full and the
/// bounded top-k loops. It times only the prune calls (two clock reads
/// per fragment); [`FragmentBuilder::lap`] then splits the whole
/// construct phase into a [`Stage::Prune`] span of that length and a
/// [`Stage::Construct`] span holding the rest — construction plus the
/// top-k bound, scoring and ordering around it. The stages interleave
/// per anchor, so per-iteration spans would explode the span buffer,
/// while the split keeps both totals exact and the phase fully covered.
struct FragmentBuilder<'a> {
    source: &'a dyn CorpusSource,
    policy: Policy,
    /// Nanoseconds spent pruning so far.
    prune_ns: u64,
}

impl<'a> FragmentBuilder<'a> {
    fn new(source: &'a dyn CorpusSource, policy: Policy) -> Self {
        FragmentBuilder {
            source,
            policy,
            prune_ns: 0,
        }
    }

    fn build(&mut self, rtf: &Rtf) -> Result<Fragment, SearchError> {
        let raw = Fragment::construct_from_source(self.source, rtf)?;
        let t = Instant::now();
        let fragment = prune_owned(raw, self.policy);
        self.prune_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(fragment)
    }

    /// Closes the construct phase's trace lap.
    fn lap(&self, ctx: &mut QueryContext) {
        ctx.trace
            .lap_split(Stage::Construct, Stage::Prune, self.prune_ns);
    }
}

/// Handles into the global [`xks_obs`] registry, resolved once per
/// engine so the per-query `observe` call is pure lock-free atomics —
/// no registry lock, no allocation, preserving the warm path's
/// zero-allocation contract. All engines in a process share the same
/// underlying metrics (they are keyed by name in [`xks_obs::global`]).
#[derive(Debug)]
struct EngineMetrics {
    queries: Counter,
    empty: Counter,
    hits: Counter,
    truncated: Counter,
    filtered_out: Counter,
    plan_gallop: Counter,
    plan_full_merge: Counter,
    plan_shards_skipped: Counter,
    plan_topk_skipped: Counter,
    deadline_exceeded: Counter,
    total_ns: Histogram,
    get_keyword_nodes_ns: Histogram,
    get_lca_ns: Histogram,
    get_rtf_ns: Histogram,
    prune_rtf_ns: Histogram,
    post_process_ns: Histogram,
}

impl EngineMetrics {
    fn from_global() -> Self {
        let registry = xks_obs::global();
        EngineMetrics {
            queries: registry.counter("search.queries"),
            empty: registry.counter("search.empty"),
            hits: registry.counter("search.hits"),
            truncated: registry.counter("search.truncated"),
            filtered_out: registry.counter("search.filtered_out"),
            plan_gallop: registry.counter("plan.gallop"),
            plan_full_merge: registry.counter("plan.full_merge"),
            plan_shards_skipped: registry.counter("plan.shards_skipped"),
            plan_topk_skipped: registry.counter("plan.topk_skipped"),
            deadline_exceeded: registry.counter("search.deadline_exceeded"),
            total_ns: registry.histogram("search.total_ns"),
            get_keyword_nodes_ns: registry.histogram("search.get_keyword_nodes_ns"),
            get_lca_ns: registry.histogram("search.get_lca_ns"),
            get_rtf_ns: registry.histogram("search.get_rtf_ns"),
            prune_rtf_ns: registry.histogram("search.prune_rtf_ns"),
            post_process_ns: registry.histogram("search.post_process_ns"),
        }
    }

    /// Records one request from the timings read off its trace: every
    /// request counts in `search.queries` and the latency histograms;
    /// the result counters read `done`, the hits and stats of a request
    /// that succeeded. About 20 relaxed atomic RMWs, traced or not.
    fn observe(&self, timings: &StageTimings, done: Option<&(Vec<Hit>, SearchStats)>) {
        self.queries.inc();
        self.total_ns.record_duration(timings.total());
        self.get_keyword_nodes_ns
            .record_duration(timings.get_keyword_nodes);
        self.get_lca_ns.record_duration(timings.get_lca);
        self.get_rtf_ns.record_duration(timings.get_rtf);
        self.prune_rtf_ns.record_duration(timings.prune_rtf);
        self.post_process_ns.record_duration(timings.post_process);
        let Some((hits, stats)) = done else {
            return;
        };
        if hits.is_empty() {
            self.empty.inc();
        }
        self.hits.add(hits.len() as u64);
        if stats.truncated {
            self.truncated.inc();
        }
        self.filtered_out.add(stats.filtered_out as u64);
        match stats.plan_strategy {
            PlanStrategy::Gallop => self.plan_gallop.inc(),
            PlanStrategy::FullMerge => self.plan_full_merge.inc(),
        }
        self.plan_shards_skipped
            .add(u64::from(stats.shards_skipped));
        self.plan_topk_skipped
            .add(u64::from(stats.rtfs_skipped_topk));
    }
}

/// Materializes ranked hits by **moving** fragments into rank order:
/// the permutation is applied through option-slot takes, and top-k
/// truncation happens on the (index, score) order before this runs —
/// reordering never clones a fragment.
fn take_ranked(fragments: Vec<Fragment>, order: &[RankedFragment]) -> Vec<Hit> {
    let mut slots: Vec<Option<Fragment>> = fragments.into_iter().map(Some).collect();
    order
        .iter()
        .filter_map(|r| {
            let fragment = slots.get_mut(r.index).and_then(Option::take)?;
            Some(Hit {
                fragment,
                score: Some(r.score),
                signals: Some(r.signals),
            })
        })
        .collect()
}

/// True when `sorted` (a document-ordered posting list) contains a node
/// inside `anchor`'s subtree. The first posting ≥ `anchor` is either
/// the anchor itself, one of its descendants, or past the subtree — one
/// binary search decides.
fn subtree_contains(anchor: &Dewey, sorted: &[Dewey]) -> bool {
    let i = sorted.partition_point(|d| d < anchor);
    sorted.get(i).is_some_and(|d| anchor.is_ancestor_or_self(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{MemoryCorpus, SourceElement, SourceError};
    use xks_xmltree::fixtures::{publications, team, PAPER_QUERIES};

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    fn req(s: &str) -> SearchRequest {
        SearchRequest::parse(s).unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchEngine>();
    }

    #[test]
    fn execute_with_matches_pooled_execute() {
        let engine = SearchEngine::new(publications());
        let request = req(PAPER_QUERIES[2]);
        let pooled = engine.execute(&request).unwrap();
        let mut ctx = QueryContext::new();
        let explicit = engine.execute_with(&request, &mut ctx).unwrap();
        assert_eq!(pooled.hits, explicit.hits);
        // The pooled context was checked back in and gets reused.
        assert_eq!(engine.contexts.lock().unwrap().len(), 1);
        let _ = engine.execute(&request).unwrap();
        assert_eq!(engine.contexts.lock().unwrap().len(), 1);
    }

    #[test]
    fn shared_source_backs_many_engines() {
        use std::sync::Arc;
        let corpus: Arc<dyn crate::source::CorpusSource> =
            Arc::new(MemoryCorpus::new(xks_store::shred(&publications())));
        let a = SearchEngine::from_source(Arc::clone(&corpus));
        let b = SearchEngine::from_source(corpus);
        let request = req(PAPER_QUERIES[2]);
        assert_eq!(
            a.execute(&request).unwrap().hits,
            b.execute(&request).unwrap().hits,
        );
    }

    #[test]
    fn engine_answers_paper_queries() {
        let engine = SearchEngine::new(publications());
        let r = engine.execute(&req(PAPER_QUERIES[2])).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].fragment.len(), 8); // Figure 2(d)
        assert_eq!(r.stats.total_before_top_k, 1);
        assert!(!r.stats.truncated);
    }

    #[test]
    fn compare_produces_figure6_point() {
        let engine = SearchEngine::new(team());
        let c = engine.compare(&q("grizzlies position")).unwrap();
        assert_eq!(c.rtf_count, 1);
        assert_eq!(c.effectiveness.cfr, 0.0);
        assert!(c.effectiveness.max_apr > 0.2);
    }

    #[test]
    fn unmatched_query_is_empty_not_panic() {
        let engine = SearchEngine::new(team());
        let r = engine.execute(&req("nonexistent")).unwrap();
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.total_before_top_k, 0);
        let c = engine.compare(&q("nonexistent")).unwrap();
        assert_eq!(c.rtf_count, 0);
        assert_eq!(c.effectiveness.cfr, 1.0);
    }

    #[test]
    fn ranked_execute_orders_best_first_and_scores() {
        let engine = SearchEngine::new(publications());
        let r = engine
            .execute(&req("liu keyword").weights(crate::rank::RankWeights::default()))
            .unwrap();
        assert_eq!(r.hits.len(), 2);
        // The tight single-node ref fragment ranks above the article.
        assert_eq!(r.hits[0].fragment.anchor.to_string(), "0.2.0.3.0");
        assert!(r.hits[0].score.unwrap() > r.hits[1].score.unwrap());
        assert!(r.hits.iter().all(|h| h.signals.is_some()));
    }

    #[test]
    fn top_k_truncates_after_ranking() {
        let engine = SearchEngine::new(publications());
        let r = engine.execute(&req("liu keyword").top_k(1)).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].fragment.anchor.to_string(), "0.2.0.3.0");
        assert!(r.stats.truncated);
        assert_eq!(r.stats.total_before_top_k, 2);
        // A roomy top_k truncates nothing.
        let r = engine.execute(&req("liu keyword").top_k(10)).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert!(!r.stats.truncated);
    }

    #[test]
    fn max_fragments_caps_in_document_order() {
        let engine = SearchEngine::new(publications());
        let r = engine
            .execute(&req("liu keyword").max_fragments(1))
            .unwrap();
        assert_eq!(r.hits.len(), 1);
        // Document order: the article fragment comes first.
        assert_eq!(r.hits[0].fragment.anchor.to_string(), "0.2.0");
        assert!(r.stats.truncated);
        assert_eq!(r.stats.total_before_top_k, 2, "counts before the cap");
        assert!(
            r.hits[0].score.is_none(),
            "max_fragments alone doesn't rank"
        );
    }

    #[test]
    fn slca_variant_returns_subset_of_anchors() {
        let engine = SearchEngine::new(publications());
        let slca = engine
            .execute(&req("liu keyword").algorithm(AlgorithmKind::MaxMatchSlca))
            .unwrap();
        let all = engine
            .execute(&req("liu keyword").algorithm(AlgorithmKind::MaxMatchRtf))
            .unwrap();
        assert!(slca.hits.len() <= all.hits.len());
        for h in &slca.hits {
            assert!(all
                .hits
                .iter()
                .any(|g| g.fragment.anchor == h.fragment.anchor));
        }
    }

    // ---- operator post-filters ----------------------------------------

    /// Two books: in the first, "rust" and "async" co-occur in the
    /// title; in the second they sit in different nodes.
    fn library() -> XmlTree {
        xks_xmltree::parse(
            "<lib>\
             <book><title>rust async</title><author>liu</author></book>\
             <book><title>rust</title><note>async</note><author>chen</author></book>\
             </lib>",
        )
        .unwrap()
    }

    #[test]
    fn plain_spec_skips_post_filters() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("rust async")).unwrap();
        assert_eq!(r.hits.len(), 2, "both books answer the flat query");
        assert_eq!(r.stats.filtered_out, 0);
    }

    #[test]
    fn phrase_demands_cooccurrence_in_one_node() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("\"rust async\"")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // The surviving book is the one whose title holds both words.
        assert!(r.hits[0]
            .fragment
            .iter()
            .any(|n| n.is_keyword && n.kset.len() == 2));
    }

    #[test]
    fn label_filter_constrains_the_matching_node() {
        let engine = SearchEngine::new(library());
        // async must be matched by a <title> node: only book 1.
        let r = engine.execute(&req("rust title:async")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // async matched by a <note> node: only book 2.
        let r = engine.execute(&req("rust note:async")).unwrap();
        assert_eq!(r.hits.len(), 1);
        // A label nothing carries filters everything.
        let r = engine.execute(&req("rust chapter:async")).unwrap();
        assert_eq!(r.hits.len(), 0);
        assert_eq!(r.stats.filtered_out, 2);
    }

    #[test]
    fn exclusion_rejects_fragments_containing_the_word() {
        let engine = SearchEngine::new(library());
        // "chen" occurs only in book 2's subtree — and in a node that
        // is NOT part of the fragment (author isn't a query keyword),
        // proving exclusions consult the corpus, not just the fragment.
        let r = engine.execute(&req("rust async -chen")).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.stats.filtered_out, 1);
        // Excluding an absent word excludes nothing.
        let r = engine.execute(&req("rust async -cobol")).unwrap();
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn post_filters_work_over_sources_too() {
        let corpus = MemoryCorpus::new(xks_store::shred(&library()));
        let engine = SearchEngine::from_owned_source(corpus);
        for (text, expect) in [
            ("\"rust async\"", 1),
            ("rust title:async", 1),
            ("rust async -chen", 1),
            ("rust async", 2),
        ] {
            let r = engine.execute(&req(text)).unwrap();
            assert_eq!(r.hits.len(), expect, "{text}");
        }
    }

    #[test]
    fn dropped_and_normalized_terms_reach_the_stats() {
        let engine = SearchEngine::new(library());
        let r = engine.execute(&req("Rust rust async")).unwrap();
        assert_eq!(r.stats.dropped_terms, ["rust"]);
        assert_eq!(
            r.stats.normalized_terms,
            [("Rust".to_owned(), "rust".to_owned())]
        );
    }

    // ---- failure paths ------------------------------------------------

    /// A corpus whose lookups fail like a dying disk would.
    #[derive(Debug, Default)]
    struct Failures {
        all_postings: bool,
        keyword: Option<&'static str>,
        elements: bool,
    }

    #[derive(Debug)]
    struct FailingCorpus {
        inner: MemoryCorpus,
        fail: Failures,
    }

    impl FailingCorpus {
        fn check(&self, failing: bool, what: &str) -> Result<(), SourceError> {
            if failing {
                return Err(SourceError::new(format!("synthetic {what} I/O failure")));
            }
            Ok(())
        }
    }

    impl CorpusSource for FailingCorpus {
        fn keyword_deweys(&self, keyword: &str) -> Result<Vec<Dewey>, SourceError> {
            self.check(
                self.fail.all_postings || self.fail.keyword == Some(keyword),
                "postings",
            )?;
            self.inner.keyword_deweys(keyword)
        }
        fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
            self.check(self.fail.elements, "element")?;
            self.inner.element(dewey)
        }
        fn label_name(&self, label: u32) -> Option<String> {
            self.inner.label_name(label)
        }
    }

    fn failing_engine(fail: Failures) -> SearchEngine {
        SearchEngine::from_owned_source(FailingCorpus {
            inner: MemoryCorpus::new(xks_store::shred(&library())),
            fail,
        })
    }

    #[test]
    fn backend_errors_surface_typed_not_panicking() {
        // Resolution failure (stage 1).
        let err = failing_engine(Failures {
            all_postings: true,
            ..Failures::default()
        })
        .execute(&req("rust async"))
        .unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
        assert!(err.to_string().contains("postings"));
        // Fragment-construction failure (stage 4).
        let err = failing_engine(Failures {
            elements: true,
            ..Failures::default()
        })
        .execute(&req("rust async"))
        .unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
        assert!(err.to_string().contains("element"));
        // Exclusion resolution failure (post-filter stage): positive
        // keywords resolve fine, only the excluded word's lookup dies.
        let engine = failing_engine(Failures {
            keyword: Some("chen"),
            ..Failures::default()
        });
        assert!(engine.execute(&req("rust async")).is_ok());
        let err = engine.execute(&req("rust async -chen")).unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
    }

    // ---- planner ------------------------------------------------------

    /// A corpus where "rare" occurs once and "common" floods 40+ nodes
    /// — enough skew for [`choose_strategy`] to pick the gallop.
    fn skewed() -> XmlTree {
        let mut xml = String::from("<lib>");
        for i in 0..40 {
            xml.push_str(&format!("<b><t>common w{i}</t></b>"));
        }
        xml.push_str("<b><t>common rare</t></b></lib>");
        xks_xmltree::parse(&xml).unwrap()
    }

    /// A source with no sealed statistics: the default
    /// `keyword_stats` (`None`) forces the planner onto the legacy
    /// merge, giving an engine-level merge-vs-gallop differential.
    #[derive(Debug)]
    struct NoStats(MemoryCorpus);

    impl CorpusSource for NoStats {
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

    #[test]
    fn planner_gallops_on_skew_and_matches_forced_merge() {
        let tree = skewed();
        let galloping = SearchEngine::new(tree.clone());
        let merging =
            SearchEngine::from_owned_source(NoStats(MemoryCorpus::new(xks_store::shred(&tree))));
        for kind in [
            AlgorithmKind::ValidRtf,
            AlgorithmKind::MaxMatchRtf,
            AlgorithmKind::MaxMatchSlca,
        ] {
            let g = galloping
                .execute(&req("rare common").algorithm(kind))
                .unwrap();
            let m = merging
                .execute(&req("rare common").algorithm(kind))
                .unwrap();
            assert_eq!(g.hits, m.hits, "{kind:?}");
            assert_eq!(g.stats.plan_strategy, crate::plan::PlanStrategy::Gallop);
            assert_eq!(g.stats.plan_driver, 0, "rare is the driver");
            assert!(g.stats.plan_postings >= 41);
            assert_eq!(m.stats.plan_strategy, crate::plan::PlanStrategy::FullMerge);
        }
    }

    #[test]
    fn uniform_lists_keep_the_merge_path() {
        let engine = SearchEngine::new(publications());
        // "liu" and "keyword" are both small lists — no 8× skew.
        let r = engine.execute(&req("liu keyword")).unwrap();
        assert_eq!(r.stats.plan_strategy, crate::plan::PlanStrategy::FullMerge);
        assert!(r.stats.plan_postings > 0);
    }

    #[test]
    fn bounded_topk_matches_full_ranking_and_skips() {
        // Two deep tight fragments and 20 shallow ones: the deep pair
        // fills the top 2 with score 1.0 and every shallow bound
        // (spec 0.5 at best) falls strictly below — all 20 skipped.
        let mut xml = String::from(
            "<lib><x><y><z><t>common</t></z></y></x>\
             <x><y><z><t>common</t></z></y></x>",
        );
        for _ in 0..20 {
            xml.push_str("<b><t>common</t></b>");
        }
        xml.push_str("</lib>");
        let engine = SearchEngine::new(xks_xmltree::parse(&xml).unwrap());
        let full = engine
            .execute(&req("common").weights(crate::rank::RankWeights::default()))
            .unwrap();
        let topk = engine.execute(&req("common").top_k(2)).unwrap();
        assert_eq!(
            topk.hits,
            full.hits[..2].to_vec(),
            "same top 2, same scores"
        );
        assert!(
            topk.stats.rtfs_skipped_topk >= 20,
            "skipped {}",
            topk.stats.rtfs_skipped_topk
        );
        assert!(topk.stats.truncated);
        assert_eq!(topk.stats.total_before_top_k, 22);
        assert_eq!(full.stats.rtfs_skipped_topk, 0, "no top_k, no skipping");
        // The traced run takes the same bounded path and must agree.
        let traced = engine.execute(&req("common").top_k(2).trace(true)).unwrap();
        assert_eq!(traced.hits, topk.hits);
        assert_eq!(traced.stats, topk.stats);
        let trace = traced.trace.expect("traced");
        assert!(trace.spans().iter().any(|s| s.stage == Stage::Construct));
    }

    #[test]
    fn explain_reports_rarest_first_plan() {
        let engine = SearchEngine::new(skewed());
        let report = engine.explain(&req("common rare")).unwrap();
        assert_eq!(report.strategy, crate::plan::PlanStrategy::Gallop);
        assert_eq!(report.shards, 0);
        assert_eq!(report.terms.len(), 2);
        assert_eq!(report.terms[0].keyword, "rare", "rarest first");
        assert_eq!(report.terms[0].postings, 1);
        assert_eq!(report.terms[0].doc_freq, Some(1));
        assert!(report.terms[0].sealed);
        assert!(report.terms[1].postings >= 41);
        // Same report through a sealed source backend.
        let source =
            SearchEngine::from_owned_source(MemoryCorpus::new(xks_store::shred(&skewed())));
        let via_source = source.explain(&req("common rare")).unwrap();
        assert_eq!(via_source.terms, report.terms);
        assert_eq!(via_source.strategy, report.strategy);
    }

    #[test]
    fn expired_deadline_is_typed_timeout_with_partial_stats() {
        let engine = SearchEngine::new(publications());
        // Already-expired deadline: cut at admission, before resolve.
        let request = req("liu keyword").deadline_at(Instant::now() - Duration::from_millis(1));
        let err = engine.execute(&request).unwrap_err();
        match &err {
            SearchError::Timeout(t) => assert_eq!(t.stage, "resolve"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        // A roomy budget is invisible: byte-identical hits.
        let roomy = engine
            .execute(&req("liu keyword").timeout(Duration::from_secs(60)))
            .unwrap();
        let plain = engine.execute(&req("liu keyword")).unwrap();
        assert_eq!(roomy.hits, plain.hits);
    }

    #[test]
    fn deadline_is_not_request_identity() {
        let a = req("liu keyword");
        let b = req("liu keyword").timeout(Duration::from_millis(5));
        assert_eq!(a, b, "deadline rides along like parse_ns");
    }

    #[test]
    fn poisoned_context_pool_recovers() {
        let engine = SearchEngine::new(library());
        // Seed the pool, then poison its mutex by panicking mid-lock.
        let _ = engine.execute(&req("rust")).unwrap();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.contexts.lock().unwrap();
            panic!("poison the context pool");
        }));
        assert!(poison.is_err());
        assert!(engine.contexts.lock().is_err(), "pool mutex is poisoned");
        // Queries keep working: checkout/checkin recover the poison.
        let r = engine.execute(&req("rust async")).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert_eq!(engine.execute(&req("rust")).unwrap().hits.len(), 2);
    }
}
