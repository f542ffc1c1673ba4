//! Cold-start bench: how fast can a query session come up from a
//! prebuilt corpus?
//!
//! Compares the two persistence paths over the same DBLP-scale shredded
//! corpus:
//!
//! * **JSON snapshot** (`xks-store`): parse the whole snapshot, rebuild
//!   the derived keyword index, answer one query;
//! * **`xks-persist`** (`.xks`): open the paged binary index (header +
//!   label dictionary only) and answer the same query from buffer-pool
//!   reads.
//!
//! ```sh
//! cargo bench -p xks-bench --bench persist_load
//! ```

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::{MemoryCorpus, SearchRequest};
use xks_datagen::{generate_dblp, DblpConfig};
use xks_persist::{IndexReader, IndexWriter};
use xks_store::{shred, snapshot};

const RECORDS: usize = 2_000;
const SEED: u64 = 2009;
const QUERY: &str = "data algorithm";

fn prepare(dir: &Path) -> (PathBuf, PathBuf) {
    let json_path = dir.join("dblp.json");
    let xks_path = dir.join("dblp.xks");
    let doc = shred(&generate_dblp(&DblpConfig::with_records(RECORDS, SEED)));
    snapshot::save(&doc, &json_path).unwrap();
    IndexWriter::new().write(&doc, &xks_path).unwrap();
    eprintln!(
        "corpus: {} elements / {} value rows; snapshot {} bytes, index {} bytes",
        doc.elements.len(),
        doc.values.len(),
        std::fs::metadata(&json_path).unwrap().len(),
        std::fs::metadata(&xks_path).unwrap().len(),
    );
    (json_path, xks_path)
}

fn cold_load(c: &mut Criterion) {
    let dir = tempdir::TempDir::new("persist-bench");
    let (json_path, xks_path) = prepare(&dir);
    let request = SearchRequest::parse(QUERY)
        .unwrap()
        .algorithm(AlgorithmKind::ValidRtf);

    let mut group = c.benchmark_group("cold_load");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(3));

    group.bench_function("json_snapshot_then_query", |b| {
        b.iter(|| {
            let doc = snapshot::load(black_box(&json_path)).expect("snapshot loads");
            let engine = SearchEngine::from_owned_source(MemoryCorpus::new(doc));
            black_box(
                engine
                    .execute(&request)
                    .expect("bench query runs")
                    .hits
                    .len(),
            )
        })
    });
    group.bench_function("xks_open_then_query", |b| {
        b.iter(|| {
            let reader = IndexReader::open(black_box(&xks_path)).expect("index opens");
            let engine = SearchEngine::from_owned_source(reader);
            black_box(
                engine
                    .execute(&request)
                    .expect("bench query runs")
                    .hits
                    .len(),
            )
        })
    });
    // The steady-state comparison: keep the reader (and its warm pool)
    // across queries, as a server would.
    let reader = IndexReader::open(&xks_path).expect("index opens");
    let engine = SearchEngine::from_owned_source(reader);
    group.bench_function("xks_warm_query", |b| {
        b.iter(|| {
            black_box(
                engine
                    .execute(&request)
                    .expect("bench query runs")
                    .hits
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, cold_load);
criterion_main!(benches);
