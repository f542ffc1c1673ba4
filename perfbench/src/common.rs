//! Helpers shared by the workloads: the seeded op generator, process
//! memory readings, on-disk sizes and the in-process search path.

use std::path::Path;
use std::time::{Duration, Instant};

use xks::core::engine::SearchEngine;
use xks::core::wire;
use xks::core::{SearchRequest, SearchResponse};
use xks::store::json;

use crate::stats::{ratio, Metrics, Samples};
use crate::trace::{SpanId, Tracer};

/// xorshift64* — the benchmark's own deterministic op sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Endless seeded shuffled passes over `0..n`: each item once per pass,
/// so that every stretch of a run holds nearly the same mix whatever
/// the seed, and the seed decides only the order.
pub struct Passes {
    rng: Rng,
    n: usize,
    left: Vec<usize>,
}

impl Passes {
    pub fn new(rng: Rng, n: usize) -> Self {
        assert!(n > 0, "passes over an empty set");
        Passes {
            rng,
            n,
            left: Vec::new(),
        }
    }

    pub fn next(&mut self) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.left.swap(i, self.rng.below(i + 1));
            }
        }
        self.left.pop().expect("refilled above")
    }
}

/// A `/proc/<pid>/status` field in KiB (`VmHWM` is the peak resident
/// set, `VmRSS` the current one); `pid` `None` is this process.
pub fn proc_kib(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `(all, steal)` CPU ticks of the machine so far, from `/proc/stat`.
/// Steal is time the hypervisor gave this VM's CPUs to others.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// This thread's CPU time so far (`CLOCK_THREAD_CPUTIME_ID`): the user
/// and system time it ran, without time the hypervisor gave this VM's
/// CPUs to other guests (steal) and without time it waited.
pub fn thread_cpu_time() -> Duration {
    // `struct timespec` of 64-bit Linux, the benchmark's platform.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn read_lines(path: &Path) -> std::io::Result<Vec<String>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect())
}

/// Times `f`, recording a span around it.
pub fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.record(name, parent, req, start, end);
    (out, end - start)
}

/// Adds the engine's own stage timings of one response as child spans
/// of `parent`, laid end to end from `start` in pipeline order.
pub fn stage_spans(
    tracer: &mut Tracer,
    parent: SpanId,
    req: u64,
    start: Instant,
    stages: [Duration; 5],
) {
    if !tracer.is_on() {
        return;
    }
    let mut at = start;
    for (name, dur) in STAGE_NAMES.iter().zip(stages) {
        tracer.record_dur(name, parent, req, at, dur);
        at += dur;
    }
}

/// Span names of the engine stages, in `timings` order.
pub const STAGE_NAMES: [&str; 5] = [
    "index.resolve",
    "lca.anchor",
    "core.rtf",
    "core.construct_prune",
    "core.post",
];

/// Per-search counters read from the program's always-on outputs
/// (`timings`, `SearchStats`), summed over a phase.
#[derive(Debug, Default, Clone)]
pub struct EngineTotals {
    pub searches: u64,
    pub parse: Duration,
    pub render: Duration,
    /// `timings` stages, in [`STAGE_NAMES`] order.
    pub stages: [Duration; 5],
    pub fragments: u64,
    pub filtered_out: u64,
    pub gallop: u64,
    pub postings: u64,
    pub shards_skipped: u64,
    pub topk_skipped: u64,
}

/// One search's stage timings and stats, from a `SearchResponse` in
/// process or from the `timings_us` and `stats` of an HTTP body.
pub struct QueryStats {
    /// `timings` stages, in [`STAGE_NAMES`] order.
    pub stages: [Duration; 5],
    /// Fragments before top-k (`total_before_top_k`).
    pub fragments: u64,
    pub filtered_out: u64,
    pub gallop: bool,
    pub postings: u64,
    pub shards_skipped: u64,
    pub topk_skipped: u64,
}

impl QueryStats {
    pub fn of(r: &SearchResponse) -> Self {
        QueryStats {
            stages: [
                r.timings.get_keyword_nodes,
                r.timings.get_lca,
                r.timings.get_rtf,
                r.timings.prune_rtf,
                r.timings.post_process,
            ],
            fragments: r.stats.total_before_top_k as u64,
            filtered_out: r.stats.filtered_out as u64,
            gallop: r.stats.plan_strategy.as_str() == "gallop",
            postings: r.stats.plan_postings,
            shards_skipped: u64::from(r.stats.shards_skipped),
            topk_skipped: u64::from(r.stats.rtfs_skipped_topk),
        }
    }
}

impl EngineTotals {
    pub fn add(&mut self, q: &QueryStats) {
        self.searches += 1;
        for (acc, d) in self.stages.iter_mut().zip(q.stages) {
            *acc += d;
        }
        self.fragments += q.fragments;
        self.filtered_out += q.filtered_out;
        self.gallop += u64::from(q.gallop);
        self.postings += q.postings;
        self.shards_skipped += q.shards_skipped;
        self.topk_skipped += q.topk_skipped;
    }

    /// The `index`, `lca` and `core` per-query metrics. `busy` is the
    /// mean wall time of one search, the base of every stage share.
    /// `parse_n` and `render_n` count the searches whose parse and
    /// render were timed (all of them in process; the oracle's local
    /// parses and renders on serve-disk).
    pub fn report(&self, m: &mut Metrics, busy: Duration, parse_n: u64, render_n: u64) {
        let n = self.searches.max(1) as u32;
        let per = |d: Duration, k: u64| d / (k.max(1) as u32);
        m.time("index.query_parse_us", per(self.parse, parse_n));
        let names = [
            ("index.resolve_ms", "index.resolve_share"),
            ("lca.anchor_ms", "lca.anchor_share"),
            ("core.rtf_ms", "core.rtf_share"),
            ("core.construct_prune_ms", "core.construct_prune_share"),
            ("core.post_ms", "core.post_share"),
        ];
        for ((ms, share), total) in names.into_iter().zip(self.stages) {
            let mean = total / n;
            m.time(ms, mean);
            m.value(
                share,
                "ratio",
                ratio(mean.as_secs_f64(), busy.as_secs_f64()),
            );
        }
        let render = per(self.render, render_n);
        m.time("core.render_ms", render);
        m.value(
            "core.render_share",
            "ratio",
            ratio(render.as_secs_f64(), busy.as_secs_f64()),
        );
        let n = f64::from(n);
        m.value(
            "core.fragments_per_query",
            "count",
            self.fragments as f64 / n,
        );
        m.value(
            "core.keep_ratio",
            "ratio",
            ratio(
                self.fragments as f64,
                (self.fragments + self.filtered_out) as f64,
            ),
        );
        m.value("core.gallop_share", "ratio", self.gallop as f64 / n);
        m.value("core.postings_per_query", "count", self.postings as f64 / n);
        m.value(
            "core.shards_skipped_per_query",
            "count",
            self.shards_skipped as f64 / n,
        );
        m.value(
            "core.topk_skipped_per_query",
            "count",
            self.topk_skipped as f64 / n,
        );
    }
}

/// One in-process search from query text to response bytes:
/// `SearchRequest::parse` → `SearchEngine::execute` →
/// `wire::response_json`, each call timed and traced. The search runs
/// on the calling thread alone, so `on_cpu` is its latency without
/// steal.
pub struct Searched {
    pub response: SearchResponse,
    pub latency: Duration,
    pub on_cpu: Duration,
}

pub fn search_in_process(
    engine: &SearchEngine,
    text: &str,
    tracer: &mut Tracer,
    totals: &mut EngineTotals,
    parent: SpanId,
    req: u64,
) -> Result<Searched, String> {
    let cpu_start = thread_cpu_time();
    let start = Instant::now();
    let root = tracer.open("search", parent, req);
    let (request, parse) = timed(tracer, "index.query_parse", root, req, || {
        SearchRequest::parse(text)
    });
    let request = request.map_err(|e| format!("parse {text:?}: {e}"))?;
    let exec_start = Instant::now();
    let response = engine.execute(&request);
    let exec = tracer.record("core.execute", root, req, exec_start, Instant::now());
    let response = response.map_err(|e| format!("execute {text:?}: {e}"))?;
    let stats = QueryStats::of(&response);
    stage_spans(tracer, exec, req, exec_start, stats.stages);
    let (bytes, render) = timed(tracer, "core.render", root, req, || {
        json::to_string(&wire::response_json(
            engine,
            &request,
            &response,
            usize::MAX,
        ))
    });
    std::hint::black_box(bytes);
    let end = Instant::now();
    let on_cpu = thread_cpu_time() - cpu_start;
    tracer.close_at(root, end);
    totals.parse += parse;
    totals.render += render;
    totals.add(&stats);
    Ok(Searched {
        response,
        latency: end - start,
        on_cpu,
    })
}

/// p50/p99 latency metrics from raw samples.
pub fn latency_metrics(m: &mut Metrics, samples: &mut Samples) {
    m.time("p50_ms", samples.median());
    m.time("p99_ms", samples.percentile(99.0));
}

/// `p50_ms` and `p99_ms` of in-process searches from their on-CPU
/// times. The machine's CPU steal stretches the wall-clock tail most:
/// in ten mutate-mixed runs, the wall p99 spread by 0.15 of its median,
/// with runs at 4.7% and 8.5% steal the two slowest. The wall-clock
/// figures are reported beside them.
pub fn search_latency_metrics(m: &mut Metrics, on_cpu: &mut Samples, wall: &mut Samples) {
    latency_metrics(m, on_cpu);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    say(format!(
        "latency: {} searches, on-CPU p50 {:.4} ms p99 {:.4} ms; wall p50 {:.4} ms p99 {:.4} ms",
        on_cpu.len(),
        ms(on_cpu.median()),
        ms(on_cpu.percentile(99.0)),
        ms(wall.median()),
        ms(wall.percentile(99.0))
    ));
}

/// Prints one report line on standard output.
pub fn say(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_counts_running_not_waiting() {
        let (cpu, wall) = (thread_cpu_time(), Instant::now());
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = thread_cpu_time() - cpu;
        assert!(busy > Duration::from_millis(10) && busy <= wall.elapsed());
        let cpu = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_cpu_time() - cpu < Duration::from_millis(5));
    }

    #[test]
    fn passes_hold_each_item_once_per_pass() {
        let draw = |seed| {
            let mut p = Passes::new(Rng::new(seed), 7);
            (0..21).map(|_| p.next()).collect::<Vec<_>>()
        };
        let a = draw(1);
        for pass in a.chunks(7) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
    }
}
