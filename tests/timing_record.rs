//! One timing record per query: `SearchResponse::timings`, the traced
//! response's span list (as API value, `trace` JSON and Chrome export)
//! all come from the same spans, on every kind of engine.
//!
//! Three engines answer the same requests — a tree engine
//! (`SearchEngine::new`), a shredded `MemoryCorpus`, and a 2-shard disk
//! index — and on each this test checks that:
//!
//! * every `timings` field equals the sum of the spans it maps to, and
//!   `timings.total()` equals the sum of the top-level spans;
//! * the top-level spans tile the execution from the trace origin with
//!   no gap, and each `postings_decode` span lies inside `resolve`;
//! * traced and untraced requests return identical hits and stats;
//! * span names (and their order) are the documented ones, identical in
//!   the `trace` JSON and the Chrome trace-event export.

mod common;

use common::TempDir;
use xks::core::algorithms::StageTimings;
use xks::core::{wire, MemoryCorpus, RankWeights, SearchEngine, SearchRequest, SearchResponse};
use xks::datagen::queries::dblp_workload;
use xks::datagen::{generate_dblp, DblpConfig};
use xks::obs::{QueryTrace, Span, Stage};
use xks::persist::{write_sharded, IndexWriter, ShardedCorpus};
use xks::store::json::Value;
use xks::store::shred;
use xks::xmltree::XmlTree;

fn corpus() -> XmlTree {
    generate_dblp(&DblpConfig::with_records(300, 42))
}

/// The `timings` field a top-level span feeds; `None` for spans that
/// are not stages of their own (`parse` runs before execution,
/// `postings_decode` nests inside `resolve`).
fn field(stage: &str) -> Option<usize> {
    match stage {
        "resolve" => Some(0),
        "plan" | "merge_anchor" => Some(1),
        "rtf_dispatch" => Some(2),
        "construct" | "prune" => Some(3),
        "post_filter" | "rank" => Some(4),
        "parse" | "postings_decode" => None,
        other => panic!("undocumented span name {other:?}"),
    }
}

fn fields(t: &StageTimings) -> [u128; 5] {
    [
        t.get_keyword_nodes.as_nanos(),
        t.get_lca.as_nanos(),
        t.get_rtf.as_nanos(),
        t.prune_rtf.as_nanos(),
        t.post_process.as_nanos(),
    ]
}

/// `(stage, start_ns, dur_ns)` of every span, read back from the
/// `trace` JSON block.
fn json_spans(trace: &QueryTrace) -> Vec<(String, u64, u64)> {
    let Value::Obj(block) = wire::trace_json(trace) else {
        panic!("trace JSON is an object");
    };
    assert_eq!(block["dropped"], Value::Num(0), "no span dropped");
    let Value::Arr(spans) = &block["spans"] else {
        panic!("spans is an array");
    };
    spans
        .iter()
        .map(|span| {
            let Value::Obj(span) = span else {
                panic!("span is an object");
            };
            let (Value::Str(stage), Value::Num(start), Value::Num(dur)) =
                (&span["stage"], &span["start_ns"], &span["dur_ns"])
            else {
                panic!("span fields: {span:?}");
            };
            (stage.clone(), *start, *dur)
        })
        .collect()
}

/// Checks one traced response against its own span record; returns
/// the span names in record order.
fn check_record(response: &SearchResponse, what: &str) -> Vec<String> {
    let trace = response.trace.as_ref().expect("traced response");
    let spans = json_spans(trace);

    // Every field is the sum of its spans; the total is the sum of the
    // top-level spans.
    let mut sums = [0u128; 5];
    for (stage, _, dur) in &spans {
        if let Some(i) = field(stage) {
            sums[i] += u128::from(*dur);
        }
    }
    assert_eq!(fields(&response.timings), sums, "{what}: fields vs spans");
    assert_eq!(
        response.timings.total().as_nanos(),
        sums.iter().sum::<u128>(),
        "{what}: total vs top-level spans"
    );
    assert_eq!(response.timings, StageTimings::from_trace(trace), "{what}");

    // The top-level spans tile the execution from the origin; each
    // decode lies inside the resolve span recorded after it.
    let mut end = 0;
    for (stage, start, dur) in spans.iter().filter(|(s, ..)| field(s).is_some()) {
        assert_eq!(*start, end, "{what}: gap before {stage}");
        end = start + dur;
    }
    let resolve = spans
        .iter()
        .find(|(s, ..)| s == "resolve")
        .expect("resolve");
    for (_, start, dur) in spans.iter().filter(|(s, ..)| s == "postings_decode") {
        assert!(
            *start >= resolve.1 && start + dur <= resolve.1 + resolve.2,
            "{what}: decode outside resolve"
        );
    }

    // The Chrome export names the same spans in the same order.
    let chrome = trace.to_chrome_json("q");
    let chrome_names: Vec<&str> = chrome
        .split("{\"name\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect();
    let names: Vec<String> = spans.into_iter().map(|(stage, ..)| stage).collect();
    assert_eq!(chrome_names, names, "{what}: Chrome export names");
    let api: Vec<&str> = trace
        .spans()
        .iter()
        .map(|s: &Span| s.stage.as_str())
        .collect();
    assert_eq!(api, names, "{what}: API span names");
    names
}

/// The requests every engine answers: the DBLP workload plain, ranked
/// top-k (the bounded construct path), with a label filter (the
/// post-filter stage), plus a keyword that matches nothing.
fn requests() -> Vec<SearchRequest> {
    let mut out = Vec::new();
    for (_, keywords) in dblp_workload() {
        let plain = SearchRequest::parse(&keywords).unwrap();
        out.push(plain.clone().top_k(3));
        out.push(
            plain
                .clone()
                .weights(RankWeights::default())
                .max_fragments(5),
        );
        let first = keywords.split_whitespace().next().unwrap();
        out.push(SearchRequest::parse(&format!("{keywords} -{first}zz title:{first}")).unwrap());
        out.push(plain);
    }
    out.push(SearchRequest::parse("unobtainium keyword").unwrap());
    out
}

fn check_engine(engine: &SearchEngine, name: &str) {
    let mut saw_post_filter = false;
    for request in requests() {
        let what = format!("{name}: {}", request.spec());
        let plain = engine.execute(&request).unwrap();
        let traced = engine.execute(&request.clone().trace(true)).unwrap();
        assert!(plain.trace.is_none(), "{what}: untraced carries no trace");
        assert_eq!(plain.hits, traced.hits, "{what}: hits");
        assert_eq!(plain.stats, traced.stats, "{what}: stats");
        let names = check_record(&traced, &what);
        saw_post_filter |= names.iter().any(|n| n == "post_filter");
    }
    assert!(
        saw_post_filter,
        "{name}: some request ran the post-filter stage"
    );
}

#[test]
fn timings_are_sums_of_one_span_record_on_every_engine() {
    let tree = corpus();
    let doc = shred(&tree);
    let dir = TempDir::new("timing-record");
    let manifest = dir.join("corpus.xksm");
    write_sharded(&IndexWriter::new(), &doc, &manifest, 2).unwrap();
    let sharded = ShardedCorpus::open(&manifest).unwrap();

    check_engine(&SearchEngine::new(tree), "tree");
    check_engine(
        &SearchEngine::from_owned_source(MemoryCorpus::new(doc)),
        "memory",
    );
    check_engine(
        &SearchEngine::from_shard_set(sharded.shard_set()),
        "disk-2-shards",
    );
}

#[test]
fn span_names_follow_the_pipeline() {
    let tree = xks::xmltree::parse(
        "<lib><book><title>rust async</title><author>liu</author></book>\
         <book><title>rust</title><note>async</note><author>chen</author></book></lib>",
    )
    .unwrap();
    let engine = SearchEngine::new(tree);
    let names = |text: &str, top_k: bool| {
        let mut request = SearchRequest::parse(text).unwrap().trace(true);
        if top_k {
            request = request.top_k(1);
        }
        check_record(&engine.execute(&request).unwrap(), text)
    };
    let execution = ["plan", "merge_anchor", "rtf_dispatch", "construct", "prune"];
    let resolve = ["parse", "postings_decode", "postings_decode", "resolve"];
    let expect = |tail: &[&str]| -> Vec<String> {
        resolve
            .iter()
            .chain(&execution)
            .chain(tail)
            .map(|s| (*s).to_owned())
            .collect()
    };
    assert_eq!(names("rust async", false), expect(&["rank"]));
    assert_eq!(
        names("rust title:async", false),
        expect(&["post_filter", "rank"])
    );
    // The bounded top-k path scores inside its construct loop.
    assert_eq!(names("rust async", true), expect(&[]));
    // A keyword with no postings ends the query after resolve.
    assert_eq!(
        names("rust nothing", false),
        ["parse", "postings_decode", "postings_decode", "resolve"]
    );
}

#[test]
fn the_widest_query_fits_the_span_buffer() {
    let words: Vec<String> = (0..xks::index::query::MAX_KEYWORDS)
        .map(|i| format!("w{i}"))
        .collect();
    let text = words.join(" ");
    let engine = SearchEngine::new(xks::xmltree::parse(&format!("<r><a>{text}</a></r>")).unwrap());
    let response = engine
        .execute(&SearchRequest::parse(&text).unwrap().trace(true))
        .unwrap();
    assert_eq!(response.hits.len(), 1);
    let trace = response.trace.as_ref().unwrap();
    assert_eq!(trace.dropped(), 0);
    let decodes = trace
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::PostingsDecode)
        .count();
    assert_eq!(decodes, xks::index::query::MAX_KEYWORDS);
    check_record(&response, "64 keywords");
}
