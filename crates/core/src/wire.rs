//! The documented JSON wire form of a search — shared by the CLI
//! (`xks search --format json`) and the HTTP server (`xks serve`).
//!
//! Both surfaces promise the *same bytes* for the same query (modulo
//! the `timings_us` block, which is wall-clock), so the rendering
//! lives here exactly once: a [`SearchResponse`] becomes the
//! `docs/API.md` result object via [`response_json`], and the two
//! binaries only differ in how they frame it (the CLI wraps results in
//! `{"results":[...]}`, the server returns one object per request).
//! The JSON values are [`xks_store::json::Value`] trees — the
//! workspace's dependency-free JSON, same as the snapshot format.

use std::collections::BTreeMap;

use xks_store::json::Value;

use crate::algorithms::StageTimings;
use crate::engine::{AlgorithmKind, SearchEngine};
use crate::request::{SearchRequest, SearchResponse, SearchStats, SearchTimeout};
use xks_obs::QueryTrace;

/// Builds a JSON object from literal key/value pairs.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> BTreeMap<String, Value> {
    entries
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// The CLI name of an algorithm (`valid` / `maxmatch` / `slca`) — the
/// value of the `algorithm` field in every wire document, and what
/// [`parse_algorithm`] accepts back.
#[must_use]
pub fn algorithm_name(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::ValidRtf => "valid",
        AlgorithmKind::MaxMatchRtf => "maxmatch",
        AlgorithmKind::MaxMatchSlca => "slca",
    }
}

/// Parses a CLI/wire algorithm name (the inverse of
/// [`algorithm_name`]); `None` for anything else.
#[must_use]
pub fn parse_algorithm(name: &str) -> Option<AlgorithmKind> {
    match name {
        "valid" => Some(AlgorithmKind::ValidRtf),
        "maxmatch" => Some(AlgorithmKind::MaxMatchRtf),
        "slca" => Some(AlgorithmKind::MaxMatchSlca),
        _ => None,
    }
}

/// A [`StageTimings`] block as the documented `timings_us` /
/// `stages_us` JSON object (microsecond integers plus their total).
#[must_use]
pub fn stage_timings_json(timings: &StageTimings) -> Value {
    Value::Obj(obj([
        (
            "get_keyword_nodes",
            Value::Num(timings.get_keyword_nodes.as_micros() as u64),
        ),
        ("get_lca", Value::Num(timings.get_lca.as_micros() as u64)),
        ("get_rtf", Value::Num(timings.get_rtf.as_micros() as u64)),
        (
            "prune_rtf",
            Value::Num(timings.prune_rtf.as_micros() as u64),
        ),
        (
            "post_process",
            Value::Num(timings.post_process.as_micros() as u64),
        ),
        ("total", Value::Num(timings.total().as_micros() as u64)),
    ]))
}

/// A recorded query trace as JSON: spans in record order with
/// nanosecond offsets from the trace origin.
#[must_use]
pub fn trace_json(trace: &QueryTrace) -> Value {
    let spans = trace
        .spans()
        .iter()
        .map(|span| {
            Value::Obj(obj([
                ("stage", Value::Str(span.stage.as_str().to_owned())),
                ("start_ns", Value::Num(span.start_ns)),
                ("dur_ns", Value::Num(span.dur_ns)),
            ]))
        })
        .collect();
    Value::Obj(obj([
        ("spans", Value::Arr(spans)),
        ("dropped", Value::Num(u64::from(trace.dropped()))),
    ]))
}

/// The `stats` block of a response — also the partial-stats body of a
/// deadline `503`, so a dashboard reads one shape either way.
#[must_use]
pub fn stats_json(stats: &SearchStats) -> Value {
    Value::Obj(obj([
        ("truncated", Value::Bool(stats.truncated)),
        (
            "total_before_top_k",
            Value::Num(stats.total_before_top_k as u64),
        ),
        ("filtered_out", Value::Num(stats.filtered_out as u64)),
        (
            "dropped_terms",
            Value::Arr(
                stats
                    .dropped_terms
                    .iter()
                    .map(|t| Value::Str(t.clone()))
                    .collect(),
            ),
        ),
        (
            "normalized_terms",
            Value::Arr(
                stats
                    .normalized_terms
                    .iter()
                    .map(|(raw, norm)| {
                        Value::Arr(vec![Value::Str(raw.clone()), Value::Str(norm.clone())])
                    })
                    .collect(),
            ),
        ),
        (
            "plan_strategy",
            Value::Str(stats.plan_strategy.as_str().to_owned()),
        ),
        ("plan_postings", Value::Num(stats.plan_postings)),
        (
            "shards_skipped",
            Value::Num(u64::from(stats.shards_skipped)),
        ),
        (
            "rtfs_skipped_topk",
            Value::Num(u64::from(stats.rtfs_skipped_topk)),
        ),
    ]))
}

/// A [`SearchTimeout`] as the documented deadline-`503` JSON body:
/// which stage the pipeline was cut before, the wall time spent, and
/// the partial [`stats_json`] accumulated up to the cut.
#[must_use]
pub fn timeout_json(timeout: &SearchTimeout) -> Value {
    Value::Obj(obj([
        ("error", Value::Str("deadline_exceeded".to_owned())),
        ("stage", Value::Str(timeout.stage.to_owned())),
        ("elapsed_us", Value::Num(timeout.elapsed.as_micros() as u64)),
        ("stats", stats_json(&timeout.stats)),
    ]))
}

/// The display name of a fragment-node label, resolved through the
/// engine's corpus dictionary.
fn label_string(engine: &SearchEngine, label: xks_xmltree::LabelId) -> String {
    engine
        .corpus()
        .label_name(label.as_u32())
        .unwrap_or_else(|| label.to_string())
}

/// One response as the documented JSON schema (docs/API.md). `limit`
/// caps the emitted hits exactly like the CLI's text renderer;
/// anything cut is reported via `hits_omitted`, never dropped
/// silently. Pass `usize::MAX` for no cap.
#[must_use]
pub fn response_json(
    engine: &SearchEngine,
    request: &SearchRequest,
    response: &SearchResponse,
    limit: usize,
) -> Value {
    let hits: Vec<Value> = response
        .hits
        .iter()
        .take(limit)
        .map(|hit| {
            let nodes: Vec<Value> = hit
                .fragment
                .iter()
                .map(|n| {
                    Value::Obj(obj([
                        ("dewey", Value::Str(n.dewey.to_string())),
                        ("label", Value::Str(label_string(engine, n.label))),
                        ("keyword", Value::Bool(n.is_keyword)),
                    ]))
                })
                .collect();
            let mut fields = obj([
                ("anchor", Value::Str(hit.fragment.anchor.to_string())),
                ("nodes", Value::Arr(nodes)),
                ("score", hit.score.map_or(Value::Null, Value::Float)),
            ]);
            if let Some(signals) = hit.signals {
                fields.insert(
                    "signals".to_owned(),
                    Value::Arr(signals.iter().map(|&s| Value::Float(s)).collect()),
                );
            }
            Value::Obj(fields)
        })
        .collect();
    let mut result = obj([
        ("query", Value::Str(request.spec().to_string())),
        (
            "algorithm",
            Value::Str(algorithm_name(request.kind()).to_owned()),
        ),
        ("hits", Value::Arr(hits)),
        ("stats", stats_json(&response.stats)),
        ("timings_us", stage_timings_json(&response.timings)),
    ]);
    if let Some(trace) = &response.trace {
        result.insert("trace".to_owned(), trace_json(trace));
    }
    if response.hits.len() > limit {
        result.insert(
            "hits_omitted".to_owned(),
            Value::Num((response.hits.len() - limit) as u64),
        );
    }
    Value::Obj(result)
}
