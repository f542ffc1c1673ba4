//! Warm query-throughput bench: queries/sec over the 43-query
//! Figure 5/6 workload (18 DBLP + 25 XMark abbreviations) on both
//! backends of the engine:
//!
//! * **memory** — `MemoryCorpus` over the shredded tables;
//! * **disk** — an `xks-persist` `.xks` index read through the buffer
//!   pool.
//!
//! Unlike `persist_load` (cold-start latency) this bench measures the
//! steady state a server lives in: engines stay warm across queries and
//! the whole workload is swept repeatedly. Results are written to
//! `BENCH_hotpath.json` at the workspace root together with the
//! recorded pre-change baseline, so the speedup of the zero-allocation
//! hot path stays visible in the repo.
//!
//! ```sh
//! cargo bench -p xks-bench --bench hotpath            # full run
//! cargo bench -p xks-bench --bench hotpath -- --test  # smoke (1 pass)
//! ```
//!
//! Smoke mode (also what `cargo test` triggers on bench targets) runs a
//! single pass and writes the JSON to `target/BENCH_hotpath.json`
//! instead, so a test run never dirties the committed numbers.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::{MemoryCorpus, SearchRequest};
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks_obs::{Histogram, HistogramSnapshot};
use xks_persist::{IndexReader, IndexWriter};
use xks_store::shred;

const DBLP_RECORDS: usize = 2_000;
const XMARK_BASE_ITEMS: usize = 40;
const SEED: u64 = 2009;

/// Pre-change baseline, recorded on this machine at the seed of this PR
/// (heap-allocated `Vec<u32>` Dewey codes, per-query postings decode,
/// string-parsed memory postings). The acceptance bar for the
/// zero-allocation hot path is ≥2× both numbers.
const BASELINE_MEMORY_QPS: f64 = 667.0; // mean of two seed runs (695, 638)
const BASELINE_DISK_QPS: f64 = 234.0; // mean of two seed runs (244, 224)

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

/// One full sweep: every workload query against one backend. Timed
/// sweeps pass a histogram to collect each query's engine-side total.
fn sweep(
    pick: impl Fn(&Workload) -> &SearchEngine,
    workloads: &[Workload],
    latency: Option<&Histogram>,
) -> usize {
    let mut fragments = 0usize;
    for w in workloads {
        let engine = pick(w);
        for request in &w.requests {
            let response = engine.execute(request).expect("bench request succeeds");
            fragments += response.hits.len();
            if let Some(latency) = latency {
                latency.record_duration(response.timings.total());
            }
        }
    }
    fragments
}

/// Measures warm queries/sec for one backend: one untimed warm-up
/// sweep, then repeated sweeps until the time budget is spent. Also
/// returns the per-query latency distribution over all timed sweeps.
fn measure(
    name: &str,
    pick: impl Fn(&Workload) -> &SearchEngine,
    workloads: &[Workload],
    smoke: bool,
) -> (f64, HistogramSnapshot) {
    let per_sweep: usize = workloads.iter().map(|w| w.requests.len()).sum();
    std::hint::black_box(sweep(&pick, workloads, None)); // warm-up
    let budget = if smoke {
        Duration::ZERO
    } else {
        Duration::from_secs(3)
    };
    let latency = Histogram::new();
    let start = Instant::now();
    let mut sweeps = 0usize;
    loop {
        std::hint::black_box(sweep(&pick, workloads, Some(&latency)));
        sweeps += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    let qps = (per_sweep * sweeps) as f64 / elapsed.as_secs_f64();
    let lat = latency.snapshot();
    println!(
        "bench hotpath/{name}: {qps:.0} queries/sec  \
         ({sweeps} sweeps x {per_sweep} queries in {elapsed:?}); \
         per-query p50 {}µs p90 {}µs p99 {}µs max {}µs",
        lat.p50() / 1_000,
        lat.p90() / 1_000,
        lat.p99() / 1_000,
        lat.max / 1_000,
    );
    (qps, lat)
}

/// A latency distribution as a JSON object (nanosecond integers).
fn latency_json(lat: &HistogramSnapshot) -> String {
    format!(
        "{{ \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p99_ns\": {}, \"max_ns\": {} }}",
        lat.count,
        lat.mean(),
        lat.p50(),
        lat.p90(),
        lat.p99(),
        lat.max,
    )
}

fn json_escape_free(v: f64) -> String {
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
        workspace.join("target").join("BENCH_hotpath.json")
    } else {
        workspace.join("BENCH_hotpath.json")
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = tempdir::TempDir::new("hotpath-bench");
    let workloads = build_workloads(&dir);
    let total_queries: usize = workloads.iter().map(|w| w.requests.len()).sum();
    assert_eq!(total_queries, 43, "the Figure 5/6 workload has 43 queries");

    // Sanity: both backends agree before we time anything.
    let mem_frags = sweep(|w| &w.memory, &workloads, None);
    let disk_frags = sweep(|w| &w.disk, &workloads, None);
    assert_eq!(mem_frags, disk_frags, "backends disagree on the workload");

    let (memory_qps, memory_lat) = measure("memory_warm", |w| &w.memory, &workloads, smoke);
    let (disk_qps, disk_lat) = measure("disk_warm", |w| &w.disk, &workloads, smoke);

    let path = output_path(smoke);
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"schema_version\": 2,\n  \
         \"algorithm\": \"ValidRtf\",\n  \
         \"smoke\": {smoke},\n  \
         \"workload\": {{\n    \"queries\": {total_queries},\n    \
         \"dblp_records\": {DBLP_RECORDS},\n    \
         \"xmark_base_items\": {XMARK_BASE_ITEMS},\n    \"seed\": {SEED}\n  }},\n  \
         \"baseline\": {{\n    \"memory_qps\": {b_mem},\n    \"disk_qps\": {b_disk},\n    \
         \"note\": \"pre-change seed: Vec<u32> Dewey, per-query postings decode\"\n  }},\n  \
         \"current\": {{\n    \"memory_qps\": {mem},\n    \"disk_qps\": {disk}\n  }},\n  \
         \"latency\": {{\n    \"memory\": {lat_mem},\n    \"disk\": {lat_disk}\n  }},\n  \
         \"speedup\": {{\n    \"memory\": {s_mem},\n    \"disk\": {s_disk}\n  }}\n}}\n",
        b_mem = json_escape_free(BASELINE_MEMORY_QPS),
        b_disk = json_escape_free(BASELINE_DISK_QPS),
        mem = json_escape_free(memory_qps),
        disk = json_escape_free(disk_qps),
        lat_mem = latency_json(&memory_lat),
        lat_disk = latency_json(&disk_lat),
        s_mem = json_escape_free(memory_qps / BASELINE_MEMORY_QPS),
        s_disk = json_escape_free(disk_qps / BASELINE_DISK_QPS),
    );
    std::fs::write(&path, json).unwrap();
    println!("bench hotpath: wrote {}", path.display());
}
