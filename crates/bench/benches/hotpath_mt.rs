//! Concurrent query-throughput bench: aggregate queries/sec over the
//! 43-query Figure 5/6 workload with the work-stealing executor
//! (`validrtf::executor::run_batch`) sweeping 1/2/4/8 worker threads on
//! both engine backends:
//!
//! * **memory** — `MemoryCorpus` over the shredded tables;
//! * **disk** — an `xks-persist` `.xks` index read through the sharded
//!   buffer pool (ONE reader shared by every thread).
//!
//! This is the scaling companion to `hotpath` (single-thread warm
//! throughput): the engines are identical and warm; only the thread
//! count varies. Results land in `BENCH_concurrency.json` at the
//! workspace root together with the machine's available parallelism —
//! on a 1-core container the sweep still runs (proving correctness
//! under contention) but speedups hover around 1×; read the numbers
//! next to `available_parallelism`.
//!
//! ```sh
//! cargo bench -p xks-bench --bench hotpath_mt            # full run
//! cargo bench -p xks-bench --bench hotpath_mt -- --test  # smoke (1 pass)
//! ```
//!
//! Smoke mode (also what `cargo test` triggers on bench targets) runs a
//! single pass per configuration and writes the JSON to
//! `target/BENCH_concurrency.json` instead, so a test run never dirties
//! the committed numbers.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::executor::run_batch;
use validrtf::{MemoryCorpus, SearchRequest};
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks_persist::{IndexReader, IndexWriter};
use xks_store::shred;

const DBLP_RECORDS: usize = 2_000;
const XMARK_BASE_ITEMS: usize = 40;
const SEED: u64 = 2009;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    memory: SearchEngine,
    disk: SearchEngine,
    requests: Vec<SearchRequest>,
}

fn build_workloads(dir: &Path) -> Vec<Workload> {
    let mut out = Vec::new();
    for (corpus, tree, workload) in [
        (
            "dblp",
            generate_dblp(&DblpConfig::with_records(DBLP_RECORDS, SEED)),
            dblp_workload(),
        ),
        (
            "xmark",
            generate_xmark(&XmarkConfig::sized(
                XmarkSize::Standard,
                XMARK_BASE_ITEMS,
                SEED,
            )),
            xmark_workload(),
        ),
    ] {
        let doc = shred(&tree);
        let path = dir.join(format!("{corpus}.xks"));
        IndexWriter::new().write(&doc, &path).unwrap();
        let requests = workload
            .iter()
            .map(|(_, keywords)| {
                SearchRequest::parse(keywords)
                    .unwrap()
                    .algorithm(AlgorithmKind::ValidRtf)
            })
            .collect();
        out.push(Workload {
            memory: SearchEngine::from_owned_source(MemoryCorpus::new(doc)),
            disk: SearchEngine::from_owned_source(IndexReader::open(&path).unwrap()),
            requests,
        });
    }
    out
}

/// One full sweep: every workload query through the executor with the
/// given fan-out. Returns the fragment total (a cheap checksum).
fn sweep(
    pick: impl Fn(&Workload) -> &SearchEngine,
    workloads: &[Workload],
    threads: usize,
) -> usize {
    let mut fragments = 0usize;
    for w in workloads {
        let results = run_batch(pick(w), &w.requests, threads);
        fragments += results
            .iter()
            .map(|r| r.as_ref().expect("bench request succeeds").hits.len())
            .sum::<usize>();
    }
    fragments
}

/// Measures aggregate queries/sec of `one_sweep` (which must run every
/// workload query once): one untimed warm-up sweep, then repeated
/// sweeps until the budget is spent. All timed configurations —
/// executor at every thread count *and* the plain-loop reference — go
/// through this one timing protocol, so their ratios are comparable.
fn measure(label: &str, per_sweep: usize, smoke: bool, one_sweep: impl Fn() -> usize) -> f64 {
    std::hint::black_box(one_sweep()); // warm-up
    let budget = if smoke {
        Duration::ZERO
    } else {
        Duration::from_secs(2)
    };
    let start = Instant::now();
    let mut sweeps = 0usize;
    loop {
        std::hint::black_box(one_sweep());
        sweeps += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    let qps = (per_sweep * sweeps) as f64 / elapsed.as_secs_f64();
    println!(
        "bench hotpath_mt/{label}: {qps:.0} queries/sec  \
         ({sweeps} sweeps x {per_sweep} queries in {elapsed:?})"
    );
    qps
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_owned()
    }
}

fn output_path(smoke: bool) -> PathBuf {
    if let Ok(path) = std::env::var("XKS_BENCH_OUT") {
        return PathBuf::from(path);
    }
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives two levels under the workspace root")
        .to_path_buf();
    if smoke {
        workspace.join("target").join("BENCH_concurrency.json")
    } else {
        workspace.join("BENCH_concurrency.json")
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = tempdir::TempDir::new("hotpath-mt-bench");
    let workloads = build_workloads(&dir);
    let total_queries: usize = workloads.iter().map(|w| w.requests.len()).sum();
    assert_eq!(total_queries, 43, "the Figure 5/6 workload has 43 queries");
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Sanity: backends and thread counts all agree before timing.
    let expect = sweep(|w| &w.memory, &workloads, 1);
    for threads in THREAD_SWEEP {
        assert_eq!(expect, sweep(|w| &w.memory, &workloads, threads));
        assert_eq!(expect, sweep(|w| &w.disk, &workloads, threads));
    }

    // Reference: the plain `engine.execute` loop (what the
    // single-thread `hotpath` bench times), measured in THIS process
    // and under the same timing protocol, so the "executor adds no
    // single-thread overhead" comparison is immune to cross-run
    // machine noise.
    let reference: Vec<f64> = [("memory", 0), ("disk", 1)]
        .into_iter()
        .map(|(label, which)| {
            measure(
                &format!("{label}/loop-reference"),
                total_queries,
                smoke,
                || {
                    let mut fragments = 0usize;
                    for w in &workloads {
                        let engine = if which == 0 { &w.memory } else { &w.disk };
                        for request in &w.requests {
                            fragments += engine
                                .execute(request)
                                .expect("bench request succeeds")
                                .hits
                                .len();
                        }
                    }
                    fragments
                },
            )
        })
        .collect();

    let mut memory = Vec::new();
    let mut disk = Vec::new();
    for threads in THREAD_SWEEP {
        memory.push(measure(
            &format!("memory/{threads}t"),
            total_queries,
            smoke,
            || sweep(|w| &w.memory, &workloads, threads),
        ));
        disk.push(measure(
            &format!("disk/{threads}t"),
            total_queries,
            smoke,
            || sweep(|w| &w.disk, &workloads, threads),
        ));
    }

    let mut backends = String::new();
    for (label, series) in [("memory", &memory), ("disk", &disk)] {
        let _ = write!(backends, "    \"{label}\": {{ ");
        for (i, threads) in THREAD_SWEEP.iter().enumerate() {
            let sep = if i + 1 == THREAD_SWEEP.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(backends, "\"{threads}\": {}{sep}", jnum(series[i]));
        }
        let _ = writeln!(backends, " }},");
    }

    // Everything derived from THREAD_SWEEP, so editing the sweep can
    // never desynchronize the emitted JSON from what actually ran.
    let sweep_json: Vec<String> = THREAD_SWEEP.iter().map(ToString::to_string).collect();
    let sweep_json = sweep_json.join(", ");
    let idx4 = THREAD_SWEEP
        .iter()
        .position(|&t| t == 4)
        .expect("THREAD_SWEEP includes the 4-thread point the speedup reports");

    let path = output_path(smoke);
    let json = format!(
        "{{\n  \"bench\": \"hotpath_mt\",\n  \"algorithm\": \"ValidRtf\",\n  \
         \"smoke\": {smoke},\n  \
         \"available_parallelism\": {parallelism},\n  \
         \"workload\": {{\n    \"queries\": {total_queries},\n    \
         \"dblp_records\": {DBLP_RECORDS},\n    \
         \"xmark_base_items\": {XMARK_BASE_ITEMS},\n    \"seed\": {SEED}\n  }},\n  \
         \"thread_sweep\": [{sweep_json}],\n  \
         \"aggregate_qps\": {{\n{backends}    \
         \"note\": \"queries/sec over the whole workload; keys are worker threads\"\n  }},\n  \
         \"single_thread_overhead\": {{\n    \
         \"memory_loop_qps\": {mref},\n    \"disk_loop_qps\": {dref},\n    \
         \"memory_1t_vs_loop\": {mrel},\n    \"disk_1t_vs_loop\": {drel},\n    \
         \"note\": \"plain engine.search loop measured in-process; 1t executor should be within ~10%\"\n  }},\n  \
         \"speedup_vs_1_thread\": {{\n    \
         \"memory_4t\": {m4},\n    \"disk_4t\": {d4},\n    \
         \"note\": \"expect ~min(threads, available_parallelism)x; ~1x on 1 core\"\n  }}\n}}\n",
        mref = jnum(reference[0]),
        dref = jnum(reference[1]),
        mrel = jnum(memory[0] / reference[0]),
        drel = jnum(disk[0] / reference[1]),
        m4 = jnum(memory[idx4] / memory[0]),
        d4 = jnum(disk[idx4] / disk[0]),
    );
    std::fs::write(&path, json).unwrap();
    println!("bench hotpath_mt: wrote {}", path.display());
}
