//! mutate-mixed: one thread runs a seeded closed-loop sequence of
//! searches, WAL-fsynced inserts and deletes over a `MutableCorpus`, with
//! a `compact(4)` every few hundred mutations. Reads span the sealed
//! base, the in-memory delta and tombstones; writes pay parse, WAL
//! append and fsync; compaction rewrites the shards. A read-path gain
//! that costs writes or space shows here.
//!
//! Results are checked against a rebuild-from-scratch memory oracle
//! (the method of the repository's mutable differential test) at every
//! compaction, at the end, and again after `MutableCorpus::open`
//! reopens the directory. The clock is paused while checking.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xks::core::engine::SearchEngine;
use xks::core::{CorpusSource, MemoryCorpus, SearchRequest, SearchResponse};
use xks::persist::{IndexStats, MutableCorpus};
use xks::store::{shred, ShreddedDoc};
use xks::xmltree::writer::to_xml_subtree;

use crate::common::{
    dir_bytes, proc_kib, read_lines, say, search_in_process, search_latency_metrics, timed,
    EngineTotals, Passes, Rng,
};
use crate::stats::{median_duration, ratio, Metrics, Samples};
use crate::trace::{report_trace, traced_block, Tracer};
use crate::{Args, Outcome};

const SHARDS: usize = 4;
const SETUP_REPS: usize = 5;
/// Mutations between two compactions.
const COMPACT_EVERY: u64 = 150;
/// Op mix in percent: searches, then inserts; the rest are deletes.
/// Ops are drawn in seeded shuffled blocks of 20 (14 searches, 5
/// inserts, 1 delete), so that the mix does not depend on the seed.
const SEARCH_PCT: usize = 70;
const INSERT_PCT: usize = 25;
const OP_BLOCK: usize = 20;
/// Latency limit of one search. Searches slower than this do not count
/// towards `max_rate_rps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);

/// The top-level document ordinal of a dotted Dewey string (`None` for
/// the corpus root).
fn top_ordinal(dewey: &str) -> Option<u32> {
    let rest = &dewey[dewey.find('.')? + 1..];
    rest.split('.').next().unwrap_or(rest).parse().ok()
}

/// Rebuild-from-scratch oracle: one memory corpus holding every inserted
/// document at its original ordinal, minus the deleted ones.
fn oracle(
    root: &str,
    inserted: &[String],
    deleted: &BTreeSet<u32>,
) -> Result<MemoryCorpus, String> {
    let xml = format!("<{root}>{}</{root}>", inserted.concat());
    let tree = xks::xmltree::parse(&xml).map_err(|e| format!("oracle parse: {e}"))?;
    let full = shred(&tree);
    let live = |dewey: &str| top_ordinal(dewey).is_none_or(|o| !deleted.contains(&o));
    let elements = full
        .elements
        .iter()
        .filter(|r| live(&r.dewey))
        .cloned()
        .collect();
    let values = full
        .values
        .iter()
        .filter(|r| live(&r.dewey))
        .cloned()
        .collect();
    let mut doc = ShreddedDoc::from_tables(full.labels.clone(), elements, values);
    doc.rebuild_indexes();
    Ok(MemoryCorpus::new(doc))
}

/// Every hit of every query, rendered: what the two backends must agree
/// on.
fn render_all(source: Arc<dyn CorpusSource>, queries: &[String]) -> Result<Vec<String>, String> {
    let engine = SearchEngine::from_source(Arc::clone(&source));
    let mut out = Vec::new();
    for q in queries {
        let request = SearchRequest::parse(q).map_err(|e| format!("{q:?}: {e}"))?;
        let response = engine
            .execute(&request)
            .map_err(|e| format!("{q:?}: {e}"))?;
        out.extend(render_hits(q, &response, source.as_ref()));
    }
    Ok(out)
}

fn render_hits(query: &str, response: &SearchResponse, source: &dyn CorpusSource) -> Vec<String> {
    std::iter::once(format!("## {query}: {} hits", response.hits.len()))
        .chain(
            response
                .hits
                .iter()
                .map(|h| h.fragment.render_source(source)),
        )
        .collect()
}

fn check(
    what: &str,
    corpus: &MutableCorpus,
    root: &str,
    inserted: &[String],
    deleted: &BTreeSet<u32>,
    queries: &[String],
) -> Result<(), String> {
    let want = render_all(Arc::new(oracle(root, inserted, deleted)?), queries)?;
    let got = render_all(corpus.source(), queries)?;
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b).unwrap_or(0);
        return Err(format!(
            "{what}: results differ from the rebuild-from-scratch oracle at line {at}: {:?} vs {:?}",
            got.get(at),
            want.get(at)
        ));
    }
    Ok(())
}

/// Reader counters summed over the shards of the current base.
#[derive(Debug, Default, Clone, Copy)]
struct Reads {
    hits: u64,
    misses: u64,
    pages: u64,
    evictions: u64,
    postings_hits: u64,
    postings_misses: u64,
    element_hits: u64,
    element_misses: u64,
}

impl Reads {
    fn of(corpus: &MutableCorpus) -> Reads {
        let stats: Vec<IndexStats> = corpus.base().map(|b| b.shard_stats()).unwrap_or_default();
        let mut r = Reads::default();
        for s in stats {
            r.hits += s.pool.cache_hits;
            r.misses += s.pool.cache_misses;
            r.pages += s.pool.pages_read;
            r.evictions += s.pool.evictions;
            r.postings_hits += s.postings_cache_hits;
            r.postings_misses += s.postings_cache_misses;
            r.element_hits += s.element_cache_hits;
            r.element_misses += s.element_cache_misses;
        }
        r
    }

    /// Adds `later - earlier` (two readings of one base) to `self`.
    fn add_delta(&mut self, earlier: Reads, later: Reads) {
        self.hits += later.hits - earlier.hits;
        self.misses += later.misses - earlier.misses;
        self.pages += later.pages - earlier.pages;
        self.evictions += later.evictions - earlier.evictions;
        self.postings_hits += later.postings_hits - earlier.postings_hits;
        self.postings_misses += later.postings_misses - earlier.postings_misses;
        self.element_hits += later.element_hits - earlier.element_hits;
        self.element_misses += later.element_misses - earlier.element_misses;
    }
}

fn fsyncs() -> u64 {
    xks::obs::global().counter("wal.fsyncs").get()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let xml_path = args.input.join("corpus.xml");
    let queries =
        read_lines(&args.input.join("queries.txt")).map_err(|e| format!("queries: {e}"))?;
    let xml = std::fs::read_to_string(&xml_path).map_err(|e| format!("corpus.xml: {e}"))?;
    let tree = xks::xmltree::parse(&xml).map_err(|e| format!("corpus.xml: {e}"))?;
    let root = tree.label_name(tree.root()).to_owned();
    let records: Vec<String> = tree
        .node(tree.root())
        .children()
        .iter()
        .map(|&c| to_xml_subtree(&tree, c))
        .collect();
    // store::shred over the workload's XML, timed on its own: the
    // mutable path shreds inside each insert, out of reach of a timer.
    let shred_time = timed(tracer, "store.shred", None, 0, || shred(&tree)).1;
    drop((tree, xml));
    let (base, pool) = records.split_at(records.len() / 2);
    let first_expected = render_all(
        Arc::new(oracle(&root, base, &BTreeSet::new())?),
        &queries[..1],
    )?;

    // Set-up: XML bytes → parse → WAL-backed inserts of the first half →
    // compact(4) → engine → first correct answer.
    let mut setups = Vec::new();
    let (mut parses, mut seals, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut corpus = None;
    let mut dir = args.work.clone();
    for rep in 0..SETUP_REPS {
        drop(corpus.take());
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = args.work.join(format!("corpus{rep}"));
        let req = u64::MAX - rep as u64;
        let start = Instant::now();
        let span = tracer.open("setup", None, req);
        let (xml, _) = timed(tracer, "fs.read", span, req, || {
            std::fs::read_to_string(&xml_path)
        });
        let xml = xml.map_err(|e| format!("corpus.xml: {e}"))?;
        let (tree, t) = timed(tracer, "xmltree.parse", span, req, || {
            xks::xmltree::parse(&xml)
        });
        parses.push(t);
        let tree = tree.map_err(|e| format!("corpus.xml: {e}"))?;
        let (docs, _) = timed(tracer, "xmltree.serialize", span, req, || {
            let kids = tree.node(tree.root()).children();
            kids[..kids.len() / 2]
                .iter()
                .map(|&c| to_xml_subtree(&tree, c))
                .collect::<Vec<_>>()
        });
        let (created, _) = timed(tracer, "persist.create", span, req, || {
            MutableCorpus::create(&dir, &root)
        });
        let mut c = created.map_err(|e| format!("create: {e}"))?;
        let (inserted, _) = timed(tracer, "persist.insert_all", span, req, || {
            docs.iter().try_for_each(|d| c.insert_xml(d).map(drop))
        });
        inserted.map_err(|e| format!("set-up insert: {e}"))?;
        let (sealed, t) = timed(tracer, "persist.compact", span, req, || c.compact(SHARDS));
        seals.push(t);
        sealed.map_err(|e| format!("set-up compact: {e}"))?;
        let (engine, t) = timed(tracer, "core.engine_build", span, req, || {
            SearchEngine::from_source(c.source())
        });
        builds.push(t);
        let mut totals = EngineTotals::default();
        let first = search_in_process(&engine, &queries[0], tracer, &mut totals, span, req)?;
        if render_hits(&queries[0], &first.response, c.source().as_ref()) != first_expected {
            return Err("set-up: first answer differs from the memory oracle".into());
        }
        setups.push(start.elapsed());
        tracer.close(span);
        corpus = Some(c);
    }
    let mut corpus = corpus.expect("at least one set-up");
    let index_bytes = dir_bytes(&dir);
    say(format!(
        "sizes: {} records of {} B XML; base {} records, {index_bytes} B on disk; {} queries",
        records.len(),
        records.iter().map(String::len).sum::<usize>(),
        base.len(),
        queries.len()
    ));

    let engine = SearchEngine::from_source(corpus.source());
    let mut inserted: Vec<String> = base.to_vec();
    let mut deleted: BTreeSet<u32> = BTreeSet::new();
    let mut live: Vec<u32> = (0..base.len() as u32).collect();
    check("gate", &corpus, &root, &inserted, &deleted, &queries)?;
    say("gate: base results match the memory oracle");

    let mut rng = Rng::new(args.seed);
    let mut ops = Passes::new(Rng::new(rng.next()), OP_BLOCK);
    let mut picks = Passes::new(Rng::new(rng.next()), queries.len());
    let mut totals = EngineTotals::default();
    let mut searches = [Samples::new(), Samples::new()];
    let mut on_cpu = Samples::new();
    let mut writes = Samples::new();
    let mut compactions = Samples::new();
    let (mut wal_bytes, mut wal_fsyncs, mut compact_bytes) = (0u64, 0u64, 0u64);
    let (mut within, mut mutations, mut next_doc) = (0u64, 0u64, 0usize);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reads = Reads::default();
    let mut reads_from = Reads::of(&corpus);
    let mut checks = 0;
    let was_on = tracer.is_on();
    let mut measured = Duration::ZERO;
    let mut resumed = Instant::now();
    while measured + resumed.elapsed() < args.seconds {
        let phase = usize::from(was_on && traced_block(measured + resumed.elapsed()));
        tracer.set_on(phase == 1);
        attempted += 1;
        let op = ops.next() * 100 / OP_BLOCK;
        if op < SEARCH_PCT {
            let q = &queries[picks.next()];
            match search_in_process(&engine, q, tracer, &mut totals, None, attempted) {
                Ok(s) => {
                    searches[phase].push(s.latency);
                    if phase == 0 {
                        on_cpu.push(s.on_cpu);
                    }
                    within += u64::from(s.latency <= LATENCY_LIMIT);
                }
                Err(e) => {
                    failed += 1;
                    say(format!("search failed: {e}"));
                }
            }
            continue;
        }
        let (wal_before, fsyncs_before) = (corpus.wal_len(), fsyncs());
        let written = if op < SEARCH_PCT + INSERT_PCT || live.is_empty() {
            let xml = &pool[next_doc % pool.len()];
            next_doc += 1;
            let (r, t) = timed(tracer, "persist.insert", None, attempted, || {
                corpus.insert_xml(xml)
            });
            r.map(|ordinal| {
                inserted.push(xml.clone());
                live.push(ordinal);
                (ordinal, t)
            })
        } else {
            let ordinal = live.swap_remove(rng.below(live.len()));
            let (r, t) = timed(tracer, "persist.delete", None, attempted, || {
                corpus.delete(ordinal)
            });
            r.map(|()| {
                deleted.insert(ordinal);
                (ordinal, t)
            })
        };
        match written {
            Ok((ordinal, t)) => {
                // The oracle places document i at ordinal i.
                if op >= SEARCH_PCT + INSERT_PCT || ordinal as usize + 1 == inserted.len() {
                    writes.push(t);
                    wal_bytes += corpus.wal_len().saturating_sub(wal_before);
                    wal_fsyncs += fsyncs() - fsyncs_before;
                } else {
                    return Err(format!(
                        "insert got ordinal {ordinal}, expected {}",
                        inserted.len() - 1
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                say(format!("write failed: {e}"));
            }
        }
        mutations += 1;
        if mutations % COMPACT_EVERY == 0 {
            reads.add_delta(reads_from, Reads::of(&corpus));
            attempted += 1;
            let (r, t) = timed(tracer, "persist.compact", None, attempted, || {
                corpus.compact(SHARDS)
            });
            match r {
                Ok(_) => {
                    compactions.push(t);
                    compact_bytes += corpus
                        .base()
                        .map_or(0, |b| b.manifest().shards.iter().map(|s| s.file_len).sum());
                }
                Err(e) => {
                    failed += 1;
                    say(format!("compaction failed: {e}"));
                }
            }
            reads_from = Reads::of(&corpus);
            // Pause the clock while checking.
            measured += resumed.elapsed();
            let (r, _) = timed(tracer, "bench.check", None, attempted, || {
                check("compaction", &corpus, &root, &inserted, &deleted, &queries)
            });
            r?;
            checks += 1;
            resumed = Instant::now();
        }
    }
    measured += resumed.elapsed();
    tracer.set_on(was_on);
    reads.add_delta(reads_from, Reads::of(&corpus));

    check("end", &corpus, &root, &inserted, &deleted, &queries)?;
    let live_xml: u64 = inserted
        .iter()
        .enumerate()
        .filter(|(i, _)| !deleted.contains(&(*i as u32)))
        .map(|(_, x)| x.len() as u64)
        .sum();
    let disk = dir_bytes(&dir);
    drop(engine);
    drop(corpus);
    let (reopened, open_time) = timed(tracer, "persist.open", None, 0, || {
        MutableCorpus::open(&dir)
    });
    let reopened = reopened.map_err(|e| format!("reopen: {e}"))?;
    check("reopen", &reopened, &root, &inserted, &deleted, &queries)?;
    say(format!(
        "loop: {} searches, {} writes, {} compactions in {:.3} s measured; {} checks + reopen \
         match the memory oracle; {} live documents, {disk} B on disk",
        searches[0].len() + searches[1].len(),
        writes.len(),
        compactions.len(),
        measured.as_secs_f64(),
        checks + 2,
        live.len()
    ));
    if compactions.is_empty() {
        return Err(format!(
            "no compaction ran in {:.1} s; the run is too short",
            measured.as_secs_f64()
        ));
    }

    let [mut untraced, mut traced] = searches;
    let n_writes = writes.len().max(1) as f64;
    let mut m = Metrics::new();
    if args.trace {
        m.time("xmltree.parse_s", median_duration(&parses));
        let xml_bytes = std::fs::metadata(&xml_path).map_or(0, |md| md.len());
        m.value(
            "xmltree.parse_mb_s",
            "MB/s",
            ratio(
                xml_bytes as f64 / 1e6,
                median_duration(&parses).as_secs_f64(),
            ),
        );
        m.time("store.shred_s", shred_time);
        m.time("persist.write_s", median_duration(&seals));
        m.time("persist.open_s", open_time);
        m.value("persist.index_bytes", "bytes", index_bytes as f64);
        let rate = |h: u64, mi: u64| ratio(h as f64, (h + mi) as f64);
        m.value(
            "persist.pool_hit_rate",
            "ratio",
            rate(reads.hits, reads.misses),
        );
        m.value(
            "persist.pages_read_per_query",
            "count",
            reads.pages as f64 / totals.searches.max(1) as f64,
        );
        m.value("persist.pool_evictions", "count", reads.evictions as f64);
        m.value(
            "persist.postings_hit_rate",
            "ratio",
            rate(reads.postings_hits, reads.postings_misses),
        );
        m.value(
            "persist.element_hit_rate",
            "ratio",
            rate(reads.element_hits, reads.element_misses),
        );
        m.time("persist.write_p50_ms", writes.median());
        m.time("persist.write_p99_ms", writes.percentile(99.0));
        m.value(
            "persist.wal_bytes_per_write",
            "bytes",
            wal_bytes as f64 / n_writes,
        );
        m.value(
            "persist.fsyncs_per_write",
            "count",
            wal_fsyncs as f64 / n_writes,
        );
        m.time("persist.compact_s", compactions.mean());
        m.value(
            "persist.compact_bytes",
            "bytes",
            compact_bytes as f64 / compactions.len() as f64,
        );
        m.time("core.engine_build_s", median_duration(&builds));
        totals.report(&mut m, untraced.mean(), totals.searches, totals.searches);
        let overhead = ratio(
            traced.median().as_secs_f64(),
            untraced.median().as_secs_f64(),
        );
        m.value("obs.trace_overhead", "ratio", overhead);
        report_trace(tracer, "search", untraced.median(), overhead);
    } else {
        m.time("setup_s", median_duration(&setups));
        search_latency_metrics(&mut m, &mut on_cpu, &mut untraced);
        let secs = measured.as_secs_f64();
        m.value("qps", "1/s", untraced.len() as f64 / secs);
        m.value("max_rate_rps", "1/s", within as f64 / secs);
        m.value("space_amp", "ratio", ratio(disk as f64, live_xml as f64));
        m.value(
            "peak_rss_mb",
            "MiB",
            proc_kib(None, "VmHWM").unwrap_or(0) as f64 / 1024.0,
        );
        say(format!(
            "writes: p50 {:.4} ms p99 {:.4} ms; fsyncs/write {:.2}",
            writes.median().as_secs_f64() * 1e3,
            writes.percentile(99.0).as_secs_f64() * 1e3,
            wal_fsyncs as f64 / n_writes
        ));
    }
    Ok(Outcome {
        correct: true,
        attempted,
        failed,
        metrics: m,
        not_on_path: &["serve."],
    })
}
