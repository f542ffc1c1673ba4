//! Shard-count sweep: aggregate queries/sec over the 43-query
//! Figure 5/6 workload against partitioned `.xks` corpora at 1/2/4/8
//! shards, searched through the routed `ShardSet`
//! (`SearchEngine::from_shard_set`), against the unsharded monolithic
//! `.xks` reader on the same corpora — the baseline the sweep is
//! judged against. Every configuration is sanity-checked to return
//! the same fragment total before anything is timed (byte-level
//! equality is the job of `tests/sharded_differential.rs`).
//!
//! Results land in `BENCH_shards.json` at the workspace root together
//! with `available_parallelism`.
//!
//! ```sh
//! cargo bench -p xks-bench --bench shards            # full run
//! cargo bench -p xks-bench --bench shards -- --test  # smoke (1 pass)
//! ```
//!
//! Smoke mode writes to `target/BENCH_shards.json` instead, so a test
//! run never dirties the committed numbers.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::SearchRequest;
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks_persist::{write_sharded, IndexReader, IndexWriter, ShardedCorpus};
use xks_store::shred;

const DBLP_RECORDS: usize = 2_000;
const XMARK_BASE_ITEMS: usize = 40;
const SEED: u64 = 2009;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Corpus {
    name: &'static str,
    doc: xks_store::ShreddedDoc,
    requests: Vec<SearchRequest>,
}

fn corpora() -> Vec<Corpus> {
    let mut out = Vec::new();
    for (name, tree, workload) in [
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
        out.push(Corpus {
            name,
            doc: shred(&tree),
            requests: workload
                .iter()
                .map(|(_, keywords)| {
                    SearchRequest::parse(keywords)
                        .unwrap()
                        .algorithm(AlgorithmKind::ValidRtf)
                })
                .collect(),
        });
    }
    out
}

/// One sweep: every workload query once through each corpus's engine.
fn sweep(engines: &[(SearchEngine, &[SearchRequest])]) -> usize {
    let mut fragments = 0usize;
    for (engine, requests) in engines {
        for request in *requests {
            fragments += engine
                .execute(request)
                .expect("bench request succeeds")
                .hits
                .len();
        }
    }
    fragments
}

/// Timing protocol shared with `hotpath_mt`: one untimed warm-up sweep,
/// then repeated sweeps until the budget is spent.
fn measure(label: &str, per_sweep: usize, smoke: bool, one_sweep: impl Fn() -> usize) -> f64 {
    std::hint::black_box(one_sweep());
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
        "bench shards/{label}: {qps:.0} queries/sec  \
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
        workspace.join("target").join("BENCH_shards.json")
    } else {
        workspace.join("BENCH_shards.json")
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = tempdir::TempDir::new("shards-bench");
    let corpora = corpora();
    let total_queries: usize = corpora.iter().map(|c| c.requests.len()).sum();
    assert_eq!(total_queries, 43, "the Figure 5/6 workload has 43 queries");
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Unsharded baseline: one monolithic .xks per corpus.
    let baseline_engines: Vec<(SearchEngine, &[SearchRequest])> = corpora
        .iter()
        .map(|c| {
            let path = dir.join(format!("{}-mono.xks", c.name));
            IndexWriter::new().write(&c.doc, &path).unwrap();
            (
                SearchEngine::from_owned_source(IndexReader::open(&path).unwrap()),
                c.requests.as_slice(),
            )
        })
        .collect();
    let expect = sweep(&baseline_engines);
    let baseline = measure("baseline/mono-1shard", total_queries, smoke, || {
        sweep(&baseline_engines)
    });

    let mut rows = String::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let mut routed_engines: Vec<(SearchEngine, &[SearchRequest])> = Vec::new();
        let mut total_bytes = 0u64;
        let mut actual_shards = 0usize;
        for c in &corpora {
            let manifest = dir.join(format!("{}-{shards}.xksm", c.name));
            let summary = write_sharded(&IndexWriter::new(), &c.doc, &manifest, shards).unwrap();
            total_bytes += summary.total_file_len();
            actual_shards = actual_shards.max(summary.manifest.shards.len());
            let corpus = ShardedCorpus::open(&manifest).unwrap();
            routed_engines.push((
                SearchEngine::from_shard_set(corpus.shard_set()),
                c.requests.as_slice(),
            ));
        }
        // Sanity before timing: the sharded path agrees with baseline.
        assert_eq!(expect, sweep(&routed_engines), "{shards} shards routed");

        let routed = measure(
            &format!("{shards}shards/routed"),
            total_queries,
            smoke,
            || sweep(&routed_engines),
        );
        let sep = if i + 1 == SHARD_SWEEP.len() { "" } else { "," };
        let _ = writeln!(
            rows,
            "    {{ \"shards\": {shards}, \"actual_shards\": {actual_shards}, \
             \"routed_qps\": {}, \"routed_vs_baseline\": {}, \
             \"total_index_bytes\": {total_bytes} }}{sep}",
            jnum(routed),
            jnum(routed / baseline),
        );
    }

    let path = output_path(smoke);
    let json = format!(
        "{{\n  \"bench\": \"shards\",\n  \"algorithm\": \"ValidRtf\",\n  \
         \"smoke\": {smoke},\n  \
         \"available_parallelism\": {parallelism},\n  \
         \"workload\": {{\n    \"queries\": {total_queries},\n    \
         \"dblp_records\": {DBLP_RECORDS},\n    \
         \"xmark_base_items\": {XMARK_BASE_ITEMS},\n    \"seed\": {SEED}\n  }},\n  \
         \"baseline_unsharded_qps\": {base},\n  \
         \"shard_sweep\": [\n{rows}  ],\n  \
         \"note\": \"routed = from_shard_set over the ShardedCorpus readers; \
         baseline = monolithic .xks; results are byte-identical in every configuration \
         (tests/sharded_differential.rs).\"\n}}\n",
        base = jnum(baseline),
    );
    std::fs::write(&path, json).unwrap();
    println!("bench shards: wrote {}", path.display());
}
