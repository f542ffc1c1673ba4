//! Closed-loop load generation against a live `xks-serve` instance
//! over real sockets: N client threads issue the 43-query Figure 5/6
//! workload back-to-back (one request in flight per client), sweeping
//! N upward to chart delivered throughput and latency percentiles vs
//! offered load, find the saturation point, and count what admission
//! control sheds once the offered load exceeds the service capacity.
//!
//! Every latency percentile is exact (computed from the full sorted
//! sample vector, never a histogram approximation), and a `429` is
//! recorded as a shed, not an error — shedding under overload is the
//! server *working*.
//!
//! ```sh
//! cargo bench -p xks-bench --bench serve            # full sweep
//! cargo bench -p xks-bench --bench serve -- --test  # smoke (tiny)
//! ```
//!
//! Results land in `BENCH_serve.json` at the workspace root (smoke
//! mode writes to `target/BENCH_serve.json`; `XKS_BENCH_OUT`
//! overrides).

#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use validrtf::engine::SearchEngine;
use xks_datagen::queries::dblp_workload;
use xks_datagen::{generate_dblp, DblpConfig};
use xks_persist::{IndexReader, IndexWriter};
use xks_serve::{client, Server, ServerConfig};
use xks_store::shred;

const DBLP_RECORDS: usize = 2_000;
const SEED: u64 = 2009;
// Small enough that the top of the client sweep overruns it — the
// shed-rate column must show admission control actually firing.
const QUEUE_DEPTH: usize = 16;

/// Offered-load sweep: concurrent closed-loop clients per level.
const CLIENT_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SMOKE_SWEEP: [usize; 2] = [1, 4];

struct LevelResult {
    clients: usize,
    completed: u64,
    shed: u64,
    errors: u64,
    elapsed: Duration,
    /// Sorted request latencies, nanoseconds (completed requests only).
    latencies: Vec<u64>,
}

impl LevelResult {
    fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Exact percentile from the sorted sample vector.
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let rank = ((self.latencies.len() as f64) * p).ceil() as usize;
        self.latencies[rank.clamp(1, self.latencies.len()) - 1]
    }
}

/// One closed-loop level: `clients` threads, each with one request in
/// flight at a time, cycling through the workload bodies.
fn run_level(
    addr: std::net::SocketAddr,
    bodies: &Arc<Vec<Vec<u8>>>,
    clients: usize,
    smoke: bool,
) -> LevelResult {
    let stop = Arc::new(AtomicBool::new(false));
    let shed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = Arc::clone(bodies);
            let stop = Arc::clone(&stop);
            let shed = Arc::clone(&shed);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let mut i = c; // stagger the query mix across clients
                               // Smoke mode: a fixed handful of requests per client;
                               // full mode: run until the timer stops the level.
                let budget = if smoke { 5 } else { u64::MAX };
                let mut done = 0u64;
                while done < budget && !stop.load(Ordering::Relaxed) {
                    let body = &bodies[i % bodies.len()];
                    i += 1;
                    let sent = Instant::now();
                    match client::request(addr, "POST", "/search", body) {
                        Ok(response) if response.status == 200 => {
                            latencies.push(sent.elapsed().as_nanos() as u64);
                            done += 1;
                        }
                        Ok(response) if response.status == 429 => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            // Closed loop with immediate retry would
                            // hammer the acceptor; yield briefly.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
            })
        })
        .collect();
    if !smoke {
        std::thread::sleep(Duration::from_secs(3));
        stop.store(true, Ordering::Relaxed);
    }
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    LevelResult {
        clients,
        completed: latencies.len() as u64,
        shed: shed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        latencies,
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
        workspace.join("target").join("BENCH_serve.json")
    } else {
        workspace.join("BENCH_serve.json")
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dir = tempdir::TempDir::new("serve-bench");

    // A monolithic on-disk index — the deployment shape a resident
    // server exists for.
    let tree = generate_dblp(&DblpConfig::with_records(DBLP_RECORDS, SEED));
    let index_path = dir.join("dblp.xks");
    IndexWriter::new()
        .write(&shred(&tree), &index_path)
        .unwrap();
    let engine = SearchEngine::from_owned_source(IndexReader::open(&index_path).unwrap());

    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 16));
    let config = ServerConfig {
        workers,
        queue_depth: QUEUE_DEPTH,
        ..ServerConfig::default()
    };
    let server = Server::bind(engine, config).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let bodies: Arc<Vec<Vec<u8>>> = Arc::new(
        dblp_workload()
            .iter()
            .map(|(_, keywords)| format!("{{\"query\":{keywords:?}}}").into_bytes())
            .collect(),
    );

    let sweep: &[usize] = if smoke { &SMOKE_SWEEP } else { &CLIENT_SWEEP };
    let mut levels = Vec::new();
    for &clients in sweep {
        let level = run_level(addr, &bodies, clients, smoke);
        println!(
            "bench serve/{clients}clients: {:.0} req/sec  p50 {}µs  p99 {}µs  \
             ({} ok, {} shed, {} errors in {:?})",
            level.qps(),
            level.percentile(0.50) / 1_000,
            level.percentile(0.99) / 1_000,
            level.completed,
            level.shed,
            level.errors,
            level.elapsed,
        );
        assert_eq!(
            level.errors, 0,
            "load generation must see only 200s and 429s"
        );
        levels.push(level);
    }

    shutdown.shutdown();
    let report = server_thread.join().expect("server thread");
    assert!(report.drained_cleanly, "bench server must drain cleanly");

    let saturation = levels
        .iter()
        .max_by(|a, b| a.qps().total_cmp(&b.qps()))
        .map(|l| l.clients)
        .unwrap_or(0);
    let mut rows = String::new();
    for (i, level) in levels.iter().enumerate() {
        let sep = if i + 1 == levels.len() { "" } else { "," };
        let _ = writeln!(
            rows,
            "    {{ \"clients\": {}, \"delivered_qps\": {:.1}, \
             \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
             \"completed\": {}, \"shed_429\": {} }}{sep}",
            level.clients,
            level.qps(),
            level.percentile(0.50) / 1_000,
            level.percentile(0.90) / 1_000,
            level.percentile(0.99) / 1_000,
            level.latencies.last().copied().unwrap_or(0) / 1_000,
            level.completed,
            level.shed,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"smoke\": {smoke},\n  \
         \"workers\": {workers},\n  \"queue_depth\": {QUEUE_DEPTH},\n  \
         \"workload\": {{\n    \"queries\": {queries},\n    \
         \"dblp_records\": {DBLP_RECORDS},\n    \"seed\": {SEED}\n  }},\n  \
         \"saturation_clients\": {saturation},\n  \
         \"server_report\": {{ \"served\": {served}, \"shed\": {shed}, \
         \"timeouts\": {timeouts} }},\n  \
         \"levels\": [\n{rows}  ]\n}}\n",
        queries = bodies.len(),
        served = report.served,
        shed = report.shed,
        timeouts = report.timeouts,
    );
    let path = output_path(smoke);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, json).unwrap();
    println!("bench serve: wrote {}", path.display());
}
