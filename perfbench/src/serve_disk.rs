//! serve-disk: `POST /search` against the shipped `xks serve --index
//! <manifest>` binary in its own process, over a 4-shard index of the
//! `s100-wide-zipf-multi8` scenario. Each shard is larger than its
//! reader's buffer pool and element cache, and it is the only workload
//! that runs the HTTP layer.
//!
//! Load comes from one process with at most `nproc` connections, each
//! request on its own `Connection: close` socket. The untraced run has
//! two kinds of phase: one closed-loop client (`p50_ms`, `p99_ms`,
//! `qps`), in three groups of passes before, between and after an
//! open-loop ladder of rising fixed rates (`max_rate_rps`), each request
//! of which is timed from when it was due.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xks::core::engine::SearchEngine;
use xks::core::wire;
use xks::core::{MemoryCorpus, RankWeights, SearchRequest};
use xks::persist::{write_sharded, IndexWriter, ReaderOptions, ShardedCorpus};
use xks::store::json::{self, Value};
use xks::store::shred;

use crate::common::{
    dir_bytes, latency_metrics, proc_kib, read_lines, say, stage_spans, timed, EngineTotals,
    Passes, QueryStats, Rng,
};
use crate::http;
use crate::stats::{median_duration, median_f64, ratio, Metrics, Samples};
use crate::trace::{report_trace, Tracer};
use crate::{Args, Outcome};

const SHARDS: usize = 4;
const SETUP_REPS: usize = 3;
const TOP_K: u64 = 10;
/// The ladder's reference rung and the rate of the traced run's open
/// loop: a third of the capacity of `xks serve` on this workload with
/// two connections (125–175/s on a 2-core Xeon VM).
const NOMINAL_RPS: f64 = 50.0;
/// Requests of the traced run's open loop at the nominal rate, which
/// measures the generator's lag.
const LAG_SEARCHES: usize = 250;
/// Fixed offered rates of the ladder, from about a sixth of capacity to
/// about twice it. The gap between the last pass and the first failure
/// is then halved [`REFINE_STEPS`] times to resolve the knee.
const LADDER_RPS: [f64; 6] = [25.0, 50.0, 100.0, 150.0, 200.0, 280.0];
const REFINE_STEPS: usize = 2;
/// Steps the ladder usually takes, the nominal rung included: each gets
/// this share of the run's time left after the closed loop, but never
/// less than [`MIN_STEP`].
const LADDER_STEPS: u32 = 7;
const MIN_STEP: Duration = Duration::from_millis(1_200);
/// The workload's latency limit on p99, timed from when each request
/// was due.
const LATENCY_LIMIT: Duration = Duration::from_millis(250);
/// A step fails when the median lag of the generator over the last
/// quarter of the step exceeds this: its backlog grows.
const LAG_LIMIT: Duration = Duration::from_millis(50);
/// A step stops early once the generator runs this late.
const RUNAWAY_LAG: Duration = Duration::from_secs(1);
/// Passes over the query set by the closed-loop client, in three equal
/// groups: 60 × 22 = 1,320 searches, so that ten samples lie beyond
/// p99. Latencies from a closed loop spread far less from run to run
/// on a shared VM than those of an open loop at a third of capacity: at
/// 50/s the p99 of two sets of ten runs spread by 0.45 and 0.26 of its
/// median.
const CLOSED_PASSES: usize = 60;

/// The server process; killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn start(xks: &Path, manifest: &Path) -> Result<Server, String> {
        let mut child = Command::new(xks)
            .arg("serve")
            .arg("--index")
            .arg(manifest)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", xks.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("xks serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.parse().map_err(|e| format!("address {addr:?}: {e}"))?;
                    }
                }
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn peak_rss_kib(&self) -> u64 {
        proc_kib(Some(self.child.id()), "VmHWM").unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn body_of(query: &str) -> String {
    json::to_string(&Value::Obj(wire::obj([
        ("query", Value::Str(query.to_owned())),
        ("top_k", Value::Num(TOP_K)),
        ("rank", Value::Bool(true)),
    ])))
}

/// A response body without what may differ between a sharded disk
/// engine and a memory engine over the same XML: the wall-clock
/// `timings_us` block, and the two counters of work the backend skipped
/// (`stats.shards_skipped` exists only for shards, and
/// `stats.rtfs_skipped_topk` depends on which path applied the top-k
/// gate). Hits, scores and every other stat must match to the byte.
fn comparable(body: &str) -> Option<String> {
    let mut value = json::parse(body).ok()?;
    if let Value::Obj(fields) = &mut value {
        fields.remove("timings_us");
        if let Some(Value::Obj(stats)) = fields.get_mut("stats") {
            stats.remove("shards_skipped");
            stats.remove("rtfs_skipped_topk");
        }
    }
    Some(json::to_string(&value))
}

/// Where a served body first departs from the expected render.
fn difference(body: &str, expected: &str) -> String {
    let got = comparable(body).unwrap_or_else(|| body.to_owned());
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    let around = |s: &str| {
        let lo = s.floor_char_boundary(at.saturating_sub(60));
        let hi = s.ceil_char_boundary((at + 60).min(s.len()));
        s[lo..hi].to_owned()
    };
    format!(
        "at byte {at}: served …{}… expected …{}…",
        around(&got),
        around(expected)
    )
}

/// What the in-process memory engine renders for each query, and the
/// in-process parse and render times of those queries.
struct Oracle {
    expected: Vec<String>,
    hits: Vec<usize>,
    parse: Duration,
    render: Duration,
}

fn oracle(xml: &str, queries: &[String]) -> Result<Oracle, String> {
    let tree = xks::xmltree::parse(xml).map_err(|e| format!("oracle parse: {e}"))?;
    let engine = SearchEngine::from_source(Arc::new(MemoryCorpus::new(shred(&tree))));
    let mut out = Oracle {
        expected: Vec::new(),
        hits: Vec::new(),
        parse: Duration::ZERO,
        render: Duration::ZERO,
    };
    for q in queries {
        let t = Instant::now();
        let request = SearchRequest::parse(q).map_err(|e| format!("{q:?}: {e}"))?;
        out.parse += t.elapsed();
        let request = request
            .top_k(TOP_K as usize)
            .weights(RankWeights::default());
        let response = engine
            .execute(&request)
            .map_err(|e| format!("oracle {q:?}: {e}"))?;
        let t = Instant::now();
        let rendered = json::to_string(&wire::response_json(
            &engine,
            &request,
            &response,
            usize::MAX,
        ));
        out.render += t.elapsed();
        out.expected
            .push(comparable(&rendered).ok_or("oracle render is not JSON")?);
        out.hits.push(response.hits.len());
    }
    Ok(out)
}

/// One request of a load phase, as the generator saw it.
struct Shot {
    query: usize,
    due: Instant,
    reply: Result<http::Reply, String>,
}

/// Sends `count` requests at `rate` per second (open loop) from `conns`
/// sender threads, or back to back from one thread when `rate` is
/// `None` (closed loop). A step whose generator falls more than
/// [`RUNAWAY_LAG`] behind stops early.
fn load(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    rate: Option<f64>,
    count: usize,
    conns: usize,
) -> (Vec<Shot>, bool) {
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let shots = Mutex::new(Vec::with_capacity(count.min(1 << 16)));
    let t0 = Instant::now() + Duration::from_millis(5);
    let threads = if rate.is_some() { conns } else { 1 };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count || aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    let due = match rate {
                        Some(r) => t0 + Duration::from_secs_f64(i as f64 / r),
                        None => Instant::now(),
                    };
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    } else if now - due > RUNAWAY_LAG {
                        aborted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let query = order[i % order.len()];
                    let reply = http::request(addr, "POST", "/search", &bodies[query])
                        .map_err(|e| e.to_string());
                    mine.push(Shot { query, due, reply });
                }
                shots.lock().expect("no sender panicked").append(&mut mine);
            });
        }
    });
    let mut shots = shots.into_inner().expect("no sender panicked");
    shots.sort_by_key(|s| s.due);
    (shots, aborted.into_inner())
}

/// Checks one reply (status 200, the pre-checked hit count) and reads
/// its `timings_us` (with their total) and `stats`. `Err` carries
/// whether the result was wrong (as opposed to refused or lost).
fn check(shot: &Shot, hits: &[usize]) -> Result<(QueryStats, Duration), bool> {
    let reply = shot.reply.as_ref().map_err(|_| false)?;
    if reply.status != 200 {
        return Err(false);
    }
    let value = json::parse(&reply.body).map_err(|_| true)?;
    let n = value
        .get("hits")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    if n != hits[shot.query] {
        return Err(true);
    }
    let us = |k: &str| {
        Duration::from_micros(
            value
                .get("timings_us")
                .and_then(|t| t.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0),
        )
    };
    let stat = |k: &str| {
        value
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let strategy = value
        .get("stats")
        .and_then(|s| s.get("plan_strategy"))
        .and_then(Value::as_str);
    let stats = QueryStats {
        stages: [
            us("get_keyword_nodes"),
            us("get_lca"),
            us("get_rtf"),
            us("prune_rtf"),
            us("post_process"),
        ],
        fragments: stat("total_before_top_k"),
        filtered_out: stat("filtered_out"),
        gallop: strategy == Some("gallop"),
        postings: stat("plan_postings"),
        shards_skipped: stat("shards_skipped"),
        topk_skipped: stat("rtfs_skipped_topk"),
    };
    Ok((stats, us("total")))
}

/// Latency and failure tallies of one open-loop phase.
#[derive(Default)]
struct Phase {
    /// From when each request was due to its last response byte.
    latency: Samples,
    /// Client latency minus the engine's `timings_us.total`.
    overhead: Samples,
    connect: Samples,
    lag: Samples,
    exchange: Samples,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Lag of the last quarter of the phase's requests.
    late_lag: Samples,
    last_done: Option<Instant>,
}

fn tally(
    shots: &[Shot],
    hits: &[usize],
    phase: &mut Phase,
    totals: &mut EngineTotals,
    tracer: &mut Tracer,
    first_req: u64,
) {
    let late_from = shots.len() - shots.len() / 4;
    for (i, shot) in shots.iter().enumerate() {
        phase.attempted += 1;
        let (stats, engine_total) = match check(shot, hits) {
            Ok(s) => s,
            Err(wrong) => {
                phase.failed += 1;
                phase.wrong += u64::from(wrong);
                continue;
            }
        };
        let reply = shot.reply.as_ref().expect("checked above");
        let latency = reply.done - shot.due;
        let lag = reply.start.saturating_duration_since(shot.due);
        phase.latency.push(latency);
        phase.lag.push(lag);
        if i >= late_from {
            phase.late_lag.push(lag);
        }
        phase.connect.push(reply.connected - reply.start);
        phase.exchange.push(reply.done - reply.start);
        phase
            .overhead
            .push((reply.done - reply.start).saturating_sub(engine_total));
        phase.last_done = phase.last_done.max(Some(reply.done));
        if tracer.is_on() {
            let req = first_req + i as u64;
            let root = tracer.record("serve.request", None, req, shot.due, reply.done);
            tracer.record("serve.gen_lag", root, req, shot.due, reply.start);
            tracer.record("serve.connect", root, req, reply.start, reply.connected);
            let exchange = tracer.record("serve.exchange", root, req, reply.connected, reply.done);
            let engine =
                tracer.record_dur("serve.engine", exchange, req, reply.connected, engine_total);
            stage_spans(tracer, engine, req, reply.connected, stats.stages);
        }
        totals.add(&stats);
    }
}

/// Runs one ladder step at a fixed offered rate and judges it: every
/// request succeeded, p99 met [`LATENCY_LIMIT`] and the generator's lag
/// did not grow past [`LAG_LIMIT`]. Returns the verdict and the achieved
/// rate; the step's tallies go to `phases`.
#[allow(clippy::too_many_arguments)]
fn step(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    hits: &[usize],
    rate: f64,
    count: usize,
    conns: usize,
    totals: &mut EngineTotals,
    tracer: &mut Tracer,
    phases: &mut Vec<Phase>,
) -> (bool, f64) {
    let (shots, aborted) = load(addr, bodies, order, Some(rate), count, conns);
    let mut ph = Phase::default();
    tally(&shots, hits, &mut ph, totals, tracer, 0);
    let achieved = match (shots.first(), ph.last_done) {
        (Some(first), Some(last)) => {
            (ph.attempted - ph.failed) as f64 / (last - first.due).as_secs_f64()
        }
        _ => 0.0,
    };
    let p99 = ph.latency.percentile(99.0);
    let late = ph.late_lag.median();
    let ok = !aborted && ph.failed == 0 && p99 <= LATENCY_LIMIT && late <= LAG_LIMIT;
    say(format!(
        "ladder: offered {rate:.1}/s achieved {achieved:.1}/s over {} requests, p99 {:.2} ms, \
         late lag {:.2} ms, failed {}: {}",
        ph.attempted,
        p99.as_secs_f64() * 1e3,
        late.as_secs_f64() * 1e3,
        ph.failed,
        if ok { "pass" } else { "FAIL" }
    ));
    phases.push(ph);
    (ok, achieved)
}

/// Sum over shards of one `/stats` counter suffix.
fn shard_counter(stats: &Value, suffix: &str) -> u64 {
    stats
        .get("counters")
        .and_then(Value::as_obj)
        .map_or(0, |c| {
            c.iter()
                .filter(|(k, _)| k.starts_with("index.shard.") && k.ends_with(suffix))
                .filter_map(|(_, v)| v.as_u64())
                .sum()
        })
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn get_stats(addr: SocketAddr) -> Result<Value, String> {
    let reply = http::request(addr, "GET", "/stats", "").map_err(|e| format!("/stats: {e}"))?;
    json::parse(&reply.body).map_err(|e| format!("/stats: {e}"))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let xml_path = args.input.join("corpus.xml");
    let queries =
        read_lines(&args.input.join("queries.txt")).map_err(|e| format!("queries: {e}"))?;
    let xml = std::fs::read_to_string(&xml_path).map_err(|e| format!("corpus.xml: {e}"))?;
    let xml_bytes = xml.len() as u64;
    let oracle = oracle(&xml, &queries)?;
    drop(xml);
    let bodies: Vec<String> = queries.iter().map(|q| body_of(q)).collect();

    // Set-up: XML bytes → parse → shred → sharded index → server → first
    // correct answer. The last set-up's server serves the run.
    let mut setups = Vec::new();
    let (mut parses, mut shreds, mut writes, mut starts, mut opens, mut builds) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut server = None;
    let mut index_dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        drop(server.take());
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&index_dir);
        }
        index_dir = args.work.join(format!("index{rep}"));
        std::fs::create_dir_all(&index_dir).map_err(|e| format!("{}: {e}", index_dir.display()))?;
        let manifest = index_dir.join("corpus.xksm");
        let req = u64::MAX - rep as u64;
        let start = Instant::now();
        let root = tracer.open("setup", None, req);
        let (xml, _) = timed(tracer, "fs.read", root, req, || {
            std::fs::read_to_string(&xml_path)
        });
        let xml = xml.map_err(|e| format!("corpus.xml: {e}"))?;
        let (tree, t) = timed(tracer, "xmltree.parse", root, req, || {
            xks::xmltree::parse(&xml)
        });
        parses.push(t);
        let tree = tree.map_err(|e| format!("corpus.xml: {e}"))?;
        let (doc, t) = timed(tracer, "store.shred", root, req, || shred(&tree));
        shreds.push(t);
        drop((tree, xml));
        let (written, t) = timed(tracer, "persist.write_sharded", root, req, || {
            write_sharded(&IndexWriter::new(), &doc, &manifest, SHARDS)
        });
        writes.push(t);
        written.map_err(|e| format!("write_sharded: {e}"))?;
        drop(doc);
        let (started, t) = timed(tracer, "serve.start", root, req, || {
            Server::start(&args.xks, &manifest)
        });
        starts.push(t);
        let started = started?;
        let first = timed(tracer, "serve.first_answer", root, req, || {
            http::request(started.addr, "POST", "/search", &bodies[0])
        })
        .0
        .map_err(|e| format!("set-up: first request: {e}"))?;
        if first.status != 200 || comparable(&first.body).as_ref() != Some(&oracle.expected[0]) {
            return Err(format!(
                "set-up: first answer differs from the in-process memory engine: {}",
                difference(&first.body, &oracle.expected[0])
            ));
        }
        setups.push(start.elapsed());
        tracer.close(root);
        server = Some(started);

        // In-process layer calls on the same files, outside the set-up
        // time: what the server does when it opens the index.
        let (corpus, t) = timed(tracer, "persist.open", None, req, || {
            ShardedCorpus::open(&manifest)
        });
        opens.push(t);
        let corpus = corpus.map_err(|e| format!("open: {e}"))?;
        let shard_stats = corpus.shard_stats();
        let (_engine, t) = timed(tracer, "core.engine_build", None, req, || {
            SearchEngine::from_shard_set(corpus.shard_set())
        });
        builds.push(t);
        if rep == 0 {
            let options = ReaderOptions::default();
            let page = shard_stats.first().map_or(0, |s| s.page_size);
            for (i, s) in shard_stats.iter().enumerate() {
                say(format!(
                    "sizes: shard {i}: {} B file, {} elements, {} keywords; \
                     caps: pool {} pages x {page} B = {} B, element cache {} nodes, postings cache {} keywords",
                    s.file_len,
                    s.element_count,
                    s.keyword_count,
                    options.pool_pages,
                    options.pool_pages as u64 * u64::from(page),
                    options.element_cache_nodes,
                    options.postings_cache_keywords
                ));
            }
        }
    }
    let server = server.expect("at least one set-up");
    let index_bytes = dir_bytes(&index_dir);
    say(format!(
        "sizes: corpus.xml {xml_bytes} B, index {index_bytes} B, {} queries",
        queries.len()
    ));

    // Correctness gate: every query's body, minus `timings_us`, equals
    // the in-process memory engine's render.
    for (i, body) in bodies.iter().enumerate() {
        let reply = http::request(server.addr, "POST", "/search", body)
            .map_err(|e| format!("gate: {:?}: {e}", queries[i]))?;
        if reply.status != 200 || comparable(&reply.body).as_ref() != Some(&oracle.expected[i]) {
            return Err(format!(
                "gate: {:?}: HTTP {} body differs from the in-process memory engine: {}",
                queries[i],
                reply.status,
                difference(&reply.body, &oracle.expected[i])
            ));
        }
    }
    say(format!(
        "gate: {} HTTP bodies match wire::response_json",
        bodies.len()
    ));

    let conns = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Seeded order: back-to-back shuffled passes over the query set, so
    // every phase sees the queries in nearly equal shares.
    let mut passes = Passes::new(Rng::new(args.seed), queries.len());
    let order: Vec<usize> = (0..queries.len() * 200).map(|_| passes.next()).collect();
    // Warm-up, not measured: two passes fill the readers' caches.
    load(server.addr, &bodies, &order, None, 2 * queries.len(), conns);
    let stats_before = get_stats(server.addr)?;
    let mut totals = EngineTotals::default();
    let mut m = Metrics::new();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);

    if args.trace {
        // The closed loop of the untraced run. Spans are built from the
        // generator's own timestamps after the phase, so alternate
        // requests are traced and the rest are the untraced baseline.
        let (shots, _) = load(
            server.addr,
            &bodies,
            &order,
            None,
            CLOSED_PASSES * queries.len(),
            conns,
        );
        let mut halves: [Vec<Shot>; 2] = [Vec::new(), Vec::new()];
        for (i, shot) in shots.into_iter().enumerate() {
            halves[i % 2].push(shot);
        }
        let mut phases = [Phase::default(), Phase::default()];
        for (p, (half, phase)) in halves.iter().zip(&mut phases).enumerate() {
            tracer.set_on(p == 1);
            tally(
                half,
                &oracle.hits,
                phase,
                &mut totals,
                tracer,
                p as u64 * 1_000_000,
            );
        }
        // The generator's lag, from an open loop at the nominal rate.
        let (shots, _) = load(
            server.addr,
            &bodies,
            &order,
            Some(NOMINAL_RPS),
            LAG_SEARCHES,
            conns,
        );
        let mut open = Phase::default();
        tracer.set_on(false);
        tally(&shots, &oracle.hits, &mut open, &mut totals, tracer, 0);
        tracer.set_on(true);
        let stats_after = get_stats(server.addr)?;
        let [mut untraced, mut traced] = phases;
        for ph in [&untraced, &traced, &open] {
            attempted += ph.attempted;
            failed += ph.failed;
            wrong += ph.wrong;
        }
        m.time("xmltree.parse_s", median_duration(&parses));
        m.value(
            "xmltree.parse_mb_s",
            "MB/s",
            ratio(
                xml_bytes as f64 / 1e6,
                median_duration(&parses).as_secs_f64(),
            ),
        );
        m.time("store.shred_s", median_duration(&shreds));
        m.time("persist.write_s", median_duration(&writes));
        m.time("persist.open_s", median_duration(&opens));
        m.value("persist.index_bytes", "bytes", index_bytes as f64);
        let delta = |suffix: &str| {
            shard_counter(&stats_after, suffix).saturating_sub(shard_counter(&stats_before, suffix))
                as f64
        };
        let searches = totals.searches.max(1) as f64;
        let rate = |h: f64, mi: f64| ratio(h, h + mi);
        m.value(
            "persist.pool_hit_rate",
            "ratio",
            rate(delta(".pool.cache_hits"), delta(".pool.cache_misses")),
        );
        m.value(
            "persist.pages_read_per_query",
            "count",
            delta(".pool.pages_read") / searches,
        );
        m.value("persist.pool_evictions", "count", delta(".pool.evictions"));
        m.value(
            "persist.postings_hit_rate",
            "ratio",
            rate(
                delta(".postings_cache.hits"),
                delta(".postings_cache.misses"),
            ),
        );
        m.value(
            "persist.element_hit_rate",
            "ratio",
            rate(delta(".element_cache.hits"), delta(".element_cache.misses")),
        );
        m.time("core.engine_build_s", median_duration(&builds));
        let mut served_totals = totals.clone();
        served_totals.parse = oracle.parse;
        served_totals.render = oracle.render;
        let n = queries.len() as u64;
        served_totals.report(&mut m, untraced.exchange.mean(), n, n);
        m.time("serve.start_s", median_duration(&starts));
        m.time("serve.connect_ms", untraced.connect.mean());
        m.time("serve.overhead_p50_ms", untraced.overhead.median());
        m.time("serve.overhead_p99_ms", untraced.overhead.percentile(99.0));
        m.time("serve.gen_lag_ms", open.lag.mean());
        let http_delta =
            |name: &str| counter(&stats_after, name).saturating_sub(counter(&stats_before, name));
        m.value("serve.shed", "count", http_delta("http.shed_429") as f64);
        m.value(
            "serve.timeouts",
            "count",
            http_delta("http.timeouts_503") as f64,
        );
        let trace_overhead = ratio(
            traced.latency.median().as_secs_f64(),
            untraced.latency.median().as_secs_f64(),
        );
        m.value("obs.trace_overhead", "ratio", trace_overhead);
        report_trace(
            tracer,
            "serve.request",
            untraced.latency.median(),
            trace_overhead,
        );
    } else {
        // Closed loop: one client, back to back, a third of the passes
        // at a time before, between and after the ladder's phases. `qps`
        // is the median of the per-pass rates, so a stall of the machine
        // during part of the run does not decide it.
        let start = Instant::now();
        let mut closed = Phase::default();
        let mut pass_rates = Vec::new();
        let mut closed_passes = |passes: usize, totals: &mut EngineTotals, tracer: &mut Tracer| {
            let n = passes * queries.len();
            let (shots, _) = load(server.addr, &bodies, &order, None, n, conns);
            tally(&shots, &oracle.hits, &mut closed, totals, tracer, 0);
            pass_rates.extend(shots.chunks_exact(queries.len()).filter_map(|pass| {
                let first = pass.first()?.reply.as_ref().ok()?.start;
                let last = pass.last()?.reply.as_ref().ok()?.done;
                let ok = pass
                    .iter()
                    .filter(|s| check(s, &oracle.hits).is_ok())
                    .count();
                Some(ok as f64 / (last - first).as_secs_f64())
            }));
        };
        let group = CLOSED_PASSES / 3;
        closed_passes(group, &mut totals, tracer);
        let closed_time = start.elapsed() * (CLOSED_PASSES / group) as u32;

        // The nominal rate is the ladder's reference rung. From there the
        // ladder climbs (or, if the nominal rate fails, descends) one
        // rung at a time to the first change of verdict, then halves the
        // gap between the last pass and the first failure REFINE_STEPS
        // times. Each step gets an equal share of the run's time left
        // after the closed loop.
        let step_for = args
            .seconds
            .saturating_sub(closed_time)
            .div_f64(f64::from(LADDER_STEPS))
            .max(MIN_STEP);
        let mut ladder_phases = Vec::new();
        let mut run_step = |rate: f64, totals: &mut EngineTotals, tracer: &mut Tracer| {
            let count = (rate * step_for.as_secs_f64()).ceil() as usize;
            step(
                server.addr,
                &bodies,
                &order,
                &oracle.hits,
                rate,
                count,
                conns,
                totals,
                tracer,
                &mut ladder_phases,
            )
        };
        let (nominal_ok, nominal_achieved) = run_step(NOMINAL_RPS, &mut totals, tracer);
        closed_passes(group, &mut totals, tracer);
        let mut best = nominal_ok.then_some((NOMINAL_RPS, nominal_achieved));
        let mut fail = (!nominal_ok).then_some(NOMINAL_RPS);
        let rungs: Vec<f64> = if nominal_ok {
            LADDER_RPS
                .iter()
                .copied()
                .filter(|&r| r > NOMINAL_RPS)
                .collect()
        } else {
            LADDER_RPS
                .iter()
                .rev()
                .copied()
                .filter(|&r| r < NOMINAL_RPS)
                .collect()
        };
        for rate in rungs {
            let mut verdict = run_step(rate, &mut totals, tracer);
            if verdict.0 != nominal_ok {
                // A change of verdict is confirmed by a second attempt,
                // so that one stall of the machine does not end the climb.
                verdict = run_step(rate, &mut totals, tracer);
            }
            let (ok, achieved) = verdict;
            if ok {
                best = Some((rate, achieved));
            } else {
                fail = Some(rate);
            }
            if ok != nominal_ok {
                break;
            }
        }
        if let (Some((mut lo, _)), Some(mut hi)) = (best, fail) {
            if lo < hi {
                for _ in 0..REFINE_STEPS {
                    let mid = (lo + hi) / 2.0;
                    let (ok, achieved) = run_step(mid, &mut totals, tracer);
                    if ok {
                        best = Some((mid, achieved));
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
        closed_passes(CLOSED_PASSES - 2 * group, &mut totals, tracer);
        let qps = median_f64(&pass_rates);
        let nominal = ladder_phases.remove(0);
        say(format!(
            "phases: closed {} searches, {} ladder step(s) of {:.2} s; {:.3} s in all",
            closed.latency.len(),
            ladder_phases.len() + 1,
            step_for.as_secs_f64(),
            start.elapsed().as_secs_f64()
        ));
        for ph in [&closed, &nominal].into_iter().chain(&ladder_phases) {
            attempted += ph.attempted;
            failed += ph.failed;
            wrong += ph.wrong;
        }
        m.time("setup_s", median_duration(&setups));
        latency_metrics(&mut m, &mut closed.latency);
        m.value("qps", "1/s", qps);
        m.value("max_rate_rps", "1/s", best.map_or(0.0, |b| b.1));
        m.value("space_amp", "ratio", index_bytes as f64 / xml_bytes as f64);
        m.value("peak_rss_mb", "MiB", server.peak_rss_kib() as f64 / 1024.0);
        say(format!(
            "nominal rung: gen lag mean {:.3} ms; closed loop: overhead p50 {:.3} ms",
            nominal.lag.mean().as_secs_f64() * 1e3,
            closed.overhead.median().as_secs_f64() * 1e3
        ));
    }
    drop(server);
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
        not_on_path: &[
            "persist.write_p50_ms",
            "persist.compact_s",
            "persist.write_p99_ms",
            "persist.wal_bytes_per_write",
            "persist.fsyncs_per_write",
            "persist.compact_bytes",
        ],
    })
}
