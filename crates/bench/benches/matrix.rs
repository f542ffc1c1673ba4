//! Workload-matrix sweep: every scenario cell of
//! `xks_datagen::scenario::ScenarioSpec::matrix` is run on all three
//! backends (memory tables, monolithic `.xks`, 4-shard `.xksm`), per
//! query class (plain / phrase / exclusion / label / adversarial), and
//! every cell is additionally *quality-scored*: ValidRTF vs revised
//! MaxMatch vs SLCA-MaxMatch through `validrtf::quality` (precision /
//! recall / F1 against the paper's Definition-4 semantics plus the
//! four-axiom violation pass). The sweep refuses to emit numbers for a
//! cell whose backends disagree on fragment totals, and asserts that
//! ValidRTF's combined score dominates both baselines — the
//! speed-*and*-quality gate future planner/ingest PRs must pass.
//!
//! Results land in `BENCH_matrix.json` (schema `xks-matrix/2`) at the
//! workspace root: per cell × backend × class throughput and latency
//! percentiles (`*_ns`, nanoseconds), plus per-algorithm quality scores.
//!
//! ```sh
//! cargo bench -p xks-bench --bench matrix            # full 12-cell run
//! cargo bench -p xks-bench --bench matrix -- --test  # CI smoke subset
//! ```
//!
//! Smoke mode sweeps only `ScenarioSpec::smoke` (the scale-1 cells,
//! still covering every shape/skew/tenancy axis) with single-sweep
//! timing, and writes to `target/BENCH_matrix.json` so a test run
//! never dirties the committed numbers.

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::quality::{assess_all, QualityConfig, QualityReport};
use validrtf::wire::obj;
use validrtf::{MemoryCorpus, SearchRequest};
use xks_datagen::scenario::{QueryClass, Scenario, ScenarioSpec};
use xks_index::Query;
use xks_obs::Histogram;
use xks_persist::{write_sharded, IndexReader, IndexWriter, ShardedCorpus};
use xks_store::json::Value;
use xks_store::shred;

/// Shards for the sharded backend (matches the committed shards bench).
const SHARDS: usize = 4;

/// Per-(backend, class) timing budget after the warm-up sweep.
const BUDGET: Duration = Duration::from_millis(300);

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
        workspace.join("target").join("BENCH_matrix.json")
    } else {
        workspace.join("BENCH_matrix.json")
    }
}

/// One timed sweep: executes every request, recording per-query
/// latency, and returns the fragment total (the cross-backend
/// differential signal).
fn sweep(engine: &SearchEngine, requests: &[SearchRequest], hist: Option<&Histogram>) -> usize {
    let mut fragments = 0usize;
    for request in requests {
        let t = Instant::now();
        let response = engine.execute(request).expect("matrix request succeeds");
        if let Some(h) = hist {
            h.record_duration(t.elapsed());
        }
        fragments += response.hits.len();
    }
    fragments
}

/// Warm-up sweep, then timed sweeps until the budget is spent (smoke:
/// exactly one). Returns `(qps, latency histogram)`.
fn measure(engine: &SearchEngine, requests: &[SearchRequest], smoke: bool) -> (f64, Histogram) {
    std::hint::black_box(sweep(engine, requests, None));
    let hist = Histogram::new();
    let budget = if smoke { Duration::ZERO } else { BUDGET };
    let start = Instant::now();
    let mut sweeps = 0usize;
    loop {
        std::hint::black_box(sweep(engine, requests, Some(&hist)));
        sweeps += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let qps = (requests.len() * sweeps) as f64 / start.elapsed().as_secs_f64();
    (qps, hist)
}

fn latency_json(hist: &Histogram) -> Value {
    let snap = hist.snapshot();
    Value::Obj(obj([
        ("count", Value::Num(snap.count)),
        ("p50_ns", Value::Num(snap.p50())),
        ("p90_ns", Value::Num(snap.p90())),
        ("p99_ns", Value::Num(snap.p99())),
        ("max_ns", Value::Num(snap.max)),
    ]))
}

fn float(v: f64) -> Value {
    if v.is_finite() {
        Value::Float((v * 1e4).round() / 1e4)
    } else {
        Value::Null
    }
}

fn quality_json(name: &str, report: &QualityReport) -> Value {
    Value::Obj(obj([
        ("algorithm", Value::Str(name.to_owned())),
        ("queries", Value::Num(report.queries as u64)),
        ("precision", float(report.precision)),
        ("recall", float(report.recall)),
        ("f1", float(report.f1)),
        ("axiom_checks", Value::Num(report.axioms.checks as u64)),
        (
            "axiom_violations",
            Value::Num(report.axioms.violations() as u64),
        ),
        ("score", float(report.score())),
    ]))
}

/// Keyword-only queries for the quality pass: the `Algorithm` contract
/// (tree + index + `Query`) speaks plain conjunctions, so the grammar
/// classes collapse to their keyword sets here; the full grammar is
/// exercised by the throughput sweep above.
fn quality_queries(scenario: &Scenario) -> Vec<Query> {
    let mut queries = Vec::new();
    for class in [QueryClass::Plain, QueryClass::Adversarial] {
        for text in scenario.queries_of(class) {
            if let Ok(q) = Query::parse(text) {
                queries.push(q);
            }
        }
    }
    queries
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = tempdir::TempDir::new("matrix-bench");
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let specs = if smoke {
        ScenarioSpec::smoke()
    } else {
        ScenarioSpec::matrix()
    };

    let mut cells: Vec<Value> = Vec::new();
    for spec in &specs {
        let name = spec.name();
        let scenario = spec.generate();
        let doc = shred(&scenario.tree);

        let mono_path = dir.join(format!("{name}.xks"));
        IndexWriter::new().write(&doc, &mono_path).unwrap();
        let manifest_path = dir.join(format!("{name}.xksm"));
        write_sharded(&IndexWriter::new(), &doc, &manifest_path, SHARDS).unwrap();

        let backends: Vec<(&str, SearchEngine)> = vec![
            (
                "memory",
                SearchEngine::from_owned_source(MemoryCorpus::new(doc.clone())),
            ),
            (
                "disk",
                SearchEngine::from_owned_source(IndexReader::open(&mono_path).unwrap()),
            ),
            (
                "sharded",
                SearchEngine::from_shard_set(
                    ShardedCorpus::open(&manifest_path).unwrap().shard_set(),
                ),
            ),
        ];

        let mut backend_rows: Vec<Value> = Vec::new();
        for (backend, engine) in &backends {
            let mut class_rows: Vec<Value> = Vec::new();
            for class in QueryClass::ALL {
                let requests: Vec<SearchRequest> = scenario
                    .queries_of(class)
                    .iter()
                    .map(|q| {
                        SearchRequest::parse(q)
                            .unwrap()
                            .algorithm(AlgorithmKind::ValidRtf)
                    })
                    .collect();
                assert!(!requests.is_empty(), "{name}: no {} queries", class.name());

                // Differential before timing: every backend must agree
                // with memory on the fragment total for this class.
                let fragments = sweep(engine, &requests, None);
                let expect = sweep(&backends[0].1, &requests, None);
                assert_eq!(
                    fragments,
                    expect,
                    "{name}/{backend}/{} differs from memory",
                    class.name()
                );

                let (qps, hist) = measure(engine, &requests, smoke);
                println!(
                    "bench matrix/{name}/{backend}/{}: {qps:.0} q/s ({fragments} fragments)",
                    class.name()
                );
                class_rows.push(Value::Obj(obj([
                    ("class", Value::Str(class.name().to_owned())),
                    ("queries", Value::Num(requests.len() as u64)),
                    ("fragments", Value::Num(fragments as u64)),
                    ("qps", float(qps)),
                    ("latency", latency_json(&hist)),
                ])));
            }
            backend_rows.push(Value::Obj(obj([
                ("backend", Value::Str((*backend).to_owned())),
                ("classes", Value::Arr(class_rows)),
            ])));
        }

        // Quality pass: score the three algorithms on this cell and
        // enforce the gate — ValidRTF must dominate both baselines.
        let queries = quality_queries(&scenario);
        let cfg = QualityConfig::for_tree(&scenario.tree);
        let reports = assess_all(&scenario.tree, &queries, &cfg);
        let valid_score = reports[0].1.score();
        for (algo, report) in &reports[1..] {
            assert!(
                valid_score >= report.score(),
                "{name}: {algo} scored {} above valid_rtf {valid_score}",
                report.score()
            );
        }
        println!(
            "bench matrix/{name}/quality: valid_rtf {valid_score:.4}, {} {:.4}, {} {:.4}",
            reports[1].0,
            reports[1].1.score(),
            reports[2].0,
            reports[2].1.score(),
        );

        cells.push(Value::Obj(obj([
            ("scenario", Value::Str(name.clone())),
            ("scale", Value::Num(u64::from(spec.scale))),
            ("shape", Value::Str(spec.shape.token().to_owned())),
            ("skew", Value::Str(spec.skew.token().to_owned())),
            ("tenancy", Value::Str(spec.tenancy.token())),
            ("records", Value::Num(scenario.records as u64)),
            ("elements", Value::Num(scenario.tree.len() as u64)),
            ("query_count", Value::Num(scenario.queries.len() as u64)),
            ("backends", Value::Arr(backend_rows)),
            (
                "quality",
                Value::Arr(
                    reports
                        .iter()
                        .map(|(algo, r)| quality_json(algo, r))
                        .collect(),
                ),
            ),
        ])));
    }

    let mut root: BTreeMap<String, Value> = obj([
        ("bench", Value::Str("matrix".to_owned())),
        ("schema", Value::Str("xks-matrix/2".to_owned())),
        (
            "mode",
            Value::Str(if smoke { "smoke" } else { "full" }.to_owned()),
        ),
        ("seed", Value::Num(xks_datagen::scenario::MATRIX_SEED)),
        ("shards", Value::Num(SHARDS as u64)),
        ("available_parallelism", Value::Num(parallelism as u64)),
    ]);
    root.insert("cells".to_owned(), Value::Arr(cells));

    let path = output_path(smoke);
    let json = xks_store::json::to_string(&Value::Obj(root));
    std::fs::write(&path, format!("{json}\n")).unwrap();
    println!("wrote {}", path.display());
}
