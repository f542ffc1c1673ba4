//! The server-vs-CLI differential, proven over real sockets on the
//! full 43-query golden workload.
//!
//! `POST /search` and `xks search --format json` both render through
//! `xks::core::wire::response_json`, so they are byte-identical by
//! construction — this test closes the loop empirically: for every
//! (corpus, query, algorithm) triple the bytes that come back over a
//! TCP socket must equal the bytes rendered locally from the *same*
//! engine state, modulo the wall-clock `timings_us` block. The local
//! execution is separately pinned to `tests/golden/workload_digest.txt`,
//! so by transitivity the server's results match the golden digest.
//! Both backends are covered: memory-built and sharded-on-disk.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::{digest_line, TempDir, ALGORITHMS, GOLDEN};
use xks::core::wire;
use xks::core::{MemoryCorpus, SearchEngine, SearchRequest};
use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::persist::{write_sharded, IndexWriter, ShardedCorpus};
use xks::serve::{client, Server, ServerConfig};
use xks::store::json::{self, Value};
use xks::store::shred;
use xks::xmltree::XmlTree;

type Workload = Vec<(&'static str, String)>;

fn workloads() -> [(&'static str, XmlTree, Workload); 2] {
    [
        (
            "dblp",
            generate_dblp(&DblpConfig::with_records(1_000, 42)),
            dblp_workload(),
        ),
        (
            "xmark",
            generate_xmark(&XmarkConfig::sized(XmarkSize::Standard, 60, 42)),
            xmark_workload(),
        ),
    ]
}

/// Drops the wall-clock fields (`timings_us`, and the span timings
/// inside `trace`) — everything else must match to the byte.
fn strip_wallclock(value: &mut Value) {
    if let Value::Obj(fields) = value {
        fields.remove("timings_us");
        fields.remove("trace");
    }
}

/// Renders a response object with wall-clock fields removed.
fn comparable(text: &str) -> String {
    let mut value = json::parse(text).expect("valid response JSON");
    strip_wallclock(&mut value);
    json::to_string(&value)
}

fn start_server(
    engine: SearchEngine,
) -> (
    std::net::SocketAddr,
    xks::serve::ShutdownHandle,
    std::thread::JoinHandle<()>,
) {
    let server = Server::bind(engine, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || {
        let report = server.run().expect("server run");
        assert!(report.drained_cleanly, "golden server must drain cleanly");
    });
    (addr, shutdown, thread)
}

/// Replays the workload against `local` (rendering through the wire
/// module) and the server at `addr` (over a socket); every pair must
/// match byte-for-byte after the wall-clock strip. Returns the local
/// digest lines for the golden cross-check.
fn differential_sweep(
    corpus: &str,
    workload: &[(&str, String)],
    local: &SearchEngine,
    addr: std::net::SocketAddr,
) -> Vec<String> {
    let source = local.corpus();
    let mut lines = Vec::new();
    for (abbrev, keywords) in workload {
        for kind in ALGORITHMS {
            let request = SearchRequest::parse(keywords)
                .expect("workload query parses")
                .algorithm(kind);
            let response = local.execute(&request).expect("local execution");
            let local_json =
                json::to_string(&wire::response_json(local, &request, &response, usize::MAX));

            let body = json::to_string(&Value::Obj(wire::obj([
                ("query", Value::Str(keywords.clone())),
                (
                    "algorithm",
                    Value::Str(wire::algorithm_name(kind).to_owned()),
                ),
            ])));
            let over_socket =
                client::request(addr, "POST", "/search", body.as_bytes()).expect("socket request");
            assert_eq!(
                over_socket.status,
                200,
                "{corpus}/{abbrev}/{kind:?}: {}",
                over_socket.text()
            );
            assert_eq!(
                comparable(over_socket.text()),
                comparable(&local_json),
                "{corpus}/{abbrev}/{kind:?}: socket bytes diverged from local render"
            );

            let fragments: Vec<xks::core::Fragment> = response.into_fragments();
            lines.push(digest_line(corpus, abbrev, kind, &fragments, source));
        }
    }
    lines
}

/// Asserts the local side of the differential reproduces the golden
/// digest file — the transitive anchor: socket ≡ local ≡ golden.
fn assert_golden(lines: &[String]) {
    assert_eq!(lines.len(), 43 * 3, "43 workload queries x 3 algorithms");
    let golden = std::fs::read_to_string(GOLDEN).expect("golden digest file");
    for (i, (got, want)) in lines
        .iter()
        .map(String::as_str)
        .zip(golden.lines())
        .enumerate()
    {
        assert_eq!(got, want, "digest line {i} diverged from the golden file");
    }
}

#[test]
fn server_matches_cli_render_on_memory_backend() {
    let mut all_lines = Vec::new();
    for (corpus, tree, workload) in workloads() {
        // One shared source, two engines: the server's and the local
        // renderer's state cannot drift apart.
        let source = Arc::new(MemoryCorpus::new(shred(&tree)));
        let local = SearchEngine::from_source(Arc::clone(&source) as _);
        let (addr, shutdown, thread) =
            start_server(SearchEngine::from_source(Arc::clone(&source) as _));
        all_lines.extend(differential_sweep(corpus, &workload, &local, addr));
        shutdown.shutdown();
        thread.join().unwrap();
    }
    assert_golden(&all_lines);
}

#[test]
fn server_matches_cli_render_on_sharded_disk_backend() {
    let dir = TempDir::new("server_matches_cli_render_on_sharded_disk_backend");
    let mut all_lines = Vec::new();
    for (corpus, tree, workload) in workloads() {
        let manifest: PathBuf = dir.join(format!("{corpus}.xksm"));
        write_sharded(&IndexWriter::new(), &shred(&tree), &manifest, 3)
            .expect("write sharded index");
        let sharded = ShardedCorpus::open(&manifest).expect("open sharded index");
        let local = SearchEngine::from_shard_set(sharded.shard_set());
        let (addr, shutdown, thread) =
            start_server(SearchEngine::from_shard_set(sharded.shard_set()));
        all_lines.extend(differential_sweep(corpus, &workload, &local, addr));
        shutdown.shutdown();
        thread.join().unwrap();
    }
    assert_golden(&all_lines);
}
