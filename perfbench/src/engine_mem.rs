//! engine-mem: the paper's 43-query Figure 5/6 workload, run in process
//! on `SearchEngine::new(tree)` by one closed-loop client, from query
//! text to rendered JSON bytes. The whole corpus is resident and
//! neither `persist` nor `serve` is on the path, so anchor, fragment
//! construction and pruning, ranking and render do nearly all the work.

use std::time::{Duration, Instant};

use xks::core::engine::SearchEngine;
use xks::core::{valid_rtf, Fragment, SearchRequest};
use xks::index::InvertedIndex;

use crate::common::{
    proc_kib, read_lines, say, search_in_process, search_latency_metrics, timed, EngineTotals,
    Passes, Rng,
};
use crate::heap;
use crate::stats::{median_duration, ratio, Metrics, Samples};
use crate::trace::{report_trace, traced_block, Tracer};
use crate::{Args, Outcome};

/// Set-ups per run: one before the loop, whose engines serve it, and
/// the rest spread evenly through the loop (the loop's clock is paused
/// for them), so that one slow moment of the machine cannot decide the
/// median.
const SETUP_REPS: u32 = 15;
/// Latency limit of one search. Searches slower than this do not count
/// towards `max_rate_rps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(25);

struct Corpus {
    name: &'static str,
    xml_bytes: u64,
    queries: Vec<String>,
}

/// Expected fragments of each query, from the tree reference
/// `validrtf::valid_rtf` over an independently built tree and index.
fn reference(xml: &str, queries: &[String]) -> Result<Vec<Vec<Fragment>>, String> {
    let tree = xks::xmltree::parse(xml).map_err(|e| format!("reference parse: {e}"))?;
    let index = InvertedIndex::build(&tree);
    queries
        .iter()
        .map(|q| {
            let request = SearchRequest::parse(q).map_err(|e| format!("{q:?}: {e}"))?;
            Ok(valid_rtf(&tree, &index, request.query()))
        })
        .collect()
}

/// Times of every set-up of the run.
#[derive(Default)]
struct SetupTimes {
    /// XML bytes on disk to the first correct answer.
    setups: Vec<Duration>,
    parses: Vec<Duration>,
    builds: Vec<Duration>,
}

/// One set-up: read and parse both corpora, build their engines, and
/// answer the first query correctly.
fn set_up(
    args: &Args,
    corpora: &[Corpus],
    first_expected: &[Fragment],
    tracer: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<Vec<SearchEngine>, String> {
    let req = u64::MAX - times.setups.len() as u64;
    let start = Instant::now();
    let root = tracer.open("setup", None, req);
    let (mut parse, mut build) = (Duration::ZERO, Duration::ZERO);
    let mut engines = Vec::new();
    for c in corpora {
        let path = args.input.join(format!("{}.xml", c.name));
        let (xml, _) = timed(tracer, "fs.read", root, req, || {
            std::fs::read_to_string(&path)
        });
        let xml = xml.map_err(|e| format!("{}: {e}", path.display()))?;
        let (tree, t) = timed(tracer, "xmltree.parse", root, req, || {
            xks::xmltree::parse(&xml)
        });
        parse += t;
        let tree = tree.map_err(|e| format!("{}: {e}", c.name))?;
        let (engine, t) = timed(tracer, "core.engine_build", root, req, || {
            SearchEngine::new(tree)
        });
        build += t;
        engines.push(engine);
    }
    let mut totals = EngineTotals::default();
    let first = search_in_process(
        &engines[0],
        &corpora[0].queries[0],
        tracer,
        &mut totals,
        root,
        req,
    )?;
    if first.response.fragments().ne(first_expected.iter()) {
        return Err("set-up: first answer differs from the tree reference".into());
    }
    times.setups.push(start.elapsed());
    tracer.close(root);
    times.parses.push(parse);
    times.builds.push(build);
    Ok(engines)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut corpora = Vec::new();
    let mut expected = Vec::new();
    for name in ["dblp", "xmark"] {
        let queries = read_lines(&args.input.join(format!("{name}.txt")))
            .map_err(|e| format!("{name} queries: {e}"))?;
        let xml = std::fs::read_to_string(args.input.join(format!("{name}.xml")))
            .map_err(|e| format!("{name}.xml: {e}"))?;
        expected.push(reference(&xml, &queries)?);
        corpora.push(Corpus {
            name,
            xml_bytes: xml.len() as u64,
            queries,
        });
    }
    let xml_total: u64 = corpora.iter().map(|c| c.xml_bytes).sum();

    // Set-up: XML bytes on disk → parse → engine → first correct answer.
    let mut times = SetupTimes::default();
    // `space_amp` is the heap the two resident engines hold over their
    // XML bytes: what the first set-up leaves allocated.
    let heap_before = heap::live_bytes();
    let engines = set_up(args, &corpora, &expected[0][0], tracer, &mut times)?;
    let space_amp = heap::live_bytes().saturating_sub(heap_before) as f64 / xml_total as f64;

    // Correctness gate: every query's fragments equal the reference.
    let mut hits = Vec::new();
    let mut totals = EngineTotals::default();
    for (ci, c) in corpora.iter().enumerate() {
        let mut counts = Vec::new();
        for (qi, q) in c.queries.iter().enumerate() {
            let got = search_in_process(&engines[ci], q, tracer, &mut totals, None, 0)?;
            if got.response.fragments().ne(expected[ci][qi].iter()) {
                return Err(format!(
                    "gate: {}/{q:?}: {} fragments, reference has {}",
                    c.name,
                    got.response.hits.len(),
                    expected[ci][qi].len()
                ));
            }
            counts.push(got.response.hits.len());
        }
        hits.push(counts);
    }
    let first_expected = expected.swap_remove(0).swap_remove(0);
    drop(expected);
    say(format!(
        "gate: {} queries match validrtf::valid_rtf",
        hits.iter().map(Vec::len).sum::<usize>()
    ));
    say(format!(
        "sizes: dblp.xml {} B, xmark.xml {} B; {} + {} queries",
        corpora[0].xml_bytes,
        corpora[1].xml_bytes,
        corpora[0].queries.len(),
        corpora[1].queries.len()
    ));

    // Timed closed loop. A traced run alternates untraced and traced
    // blocks; their p50 ratio is the overhead.
    let pairs: Vec<(usize, usize)> = corpora
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| (0..c.queries.len()).map(move |qi| (ci, qi)))
        .collect();
    let mut order = Passes::new(Rng::new(args.seed), pairs.len());
    let mut totals = EngineTotals::default();
    let mut phases = [Samples::new(), Samples::new()];
    let mut on_cpu = Samples::new();
    let mut within = 0u64;
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let was_on = tracer.is_on();
    let setup_every = args.seconds / SETUP_REPS;
    let mut next_setup = setup_every;
    let mut measured = Duration::ZERO;
    let mut resumed = Instant::now();
    while measured + resumed.elapsed() < args.seconds {
        let now = measured + resumed.elapsed();
        if now >= next_setup {
            measured = now;
            tracer.set_on(was_on);
            drop(set_up(args, &corpora, &first_expected, tracer, &mut times)?);
            next_setup += setup_every;
            resumed = Instant::now();
            continue;
        }
        let phase = usize::from(was_on && traced_block(now));
        tracer.set_on(phase == 1);
        let (ci, qi) = pairs[order.next()];
        attempted += 1;
        match search_in_process(
            &engines[ci],
            &corpora[ci].queries[qi],
            tracer,
            &mut totals,
            None,
            attempted,
        ) {
            Ok(s) if s.response.hits.len() == hits[ci][qi] => {
                phases[phase].push(s.latency);
                if phase == 0 {
                    on_cpu.push(s.on_cpu);
                }
                within += u64::from(s.latency <= LATENCY_LIMIT);
            }
            Ok(_) => {
                failed += 1;
                wrong += 1;
            }
            Err(e) => {
                failed += 1;
                say(format!("search failed: {e}"));
            }
        }
    }
    measured += resumed.elapsed();
    tracer.set_on(was_on);
    let [mut untraced, mut traced] = phases;

    let mut m = Metrics::new();
    if args.trace {
        let parse = median_duration(&times.parses);
        m.time("xmltree.parse_s", parse);
        m.value(
            "xmltree.parse_mb_s",
            "MB/s",
            ratio(xml_total as f64 / 1e6, parse.as_secs_f64()),
        );
        m.time("core.engine_build_s", median_duration(&times.builds));
        totals.report(&mut m, untraced.mean(), totals.searches, totals.searches);
        let overhead = ratio(
            traced.median().as_secs_f64(),
            untraced.median().as_secs_f64(),
        );
        m.value("obs.trace_overhead", "ratio", overhead);
        report_trace(tracer, "search", untraced.median(), overhead);
    } else {
        m.time("setup_s", median_duration(&times.setups));
        search_latency_metrics(&mut m, &mut on_cpu, &mut untraced);
        let secs = measured.as_secs_f64();
        m.value("qps", "1/s", untraced.len() as f64 / secs);
        m.value("max_rate_rps", "1/s", within as f64 / secs);
        m.value("space_amp", "ratio", space_amp);
        m.value(
            "peak_rss_mb",
            "MiB",
            proc_kib(None, "VmHWM").unwrap_or(0) as f64 / 1024.0,
        );
        say(format!(
            "closed loop: {} searches in {:.3} s; {} set-ups",
            untraced.len(),
            secs,
            times.setups.len()
        ));
    }
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
        not_on_path: &["store.", "persist.", "serve."],
    })
}
