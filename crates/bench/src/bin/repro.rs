//! `repro` — regenerates every evaluation artifact of the paper:
//!
//! * **Figure 5(a)–(d)**: per-query elapsed time of ValidRTF vs revised
//!   MaxMatch (measured after keyword-node retrieval, as in §5.3) plus
//!   the RTF count per query;
//! * **Figure 6(a)–(d)**: per-query CFR, APR′ and Max APR;
//! * the **§5.1 keyword frequency table** of the generated corpora.
//!
//! ```sh
//! cargo run --release -p xks-bench --bin repro                 # everything, default scale
//! cargo run --release -p xks-bench --bin repro -- --scale small
//! cargo run --release -p xks-bench --bin repro -- --only dblp  # one dataset
//! cargo run --release -p xks-bench --bin repro -- --freq       # frequency table only
//! ```

use std::sync::Arc;
use std::time::Duration;

use validrtf::engine::{AlgorithmKind, SearchEngine};
use validrtf::TreeCorpus;
use xks_bench::{dataset_name, dblp_tree, xmark_tree, Scale};
use xks_datagen::freq::{PAPER_DBLP_FREQS, PAPER_XMARK_FREQS};
use xks_datagen::queries::{dblp_workload, xmark_workload};
use xks_datagen::XmarkSize;
use xks_index::Query;

/// Repetitions per query; the paper runs 6 and discards the first.
const RUNS: usize = 6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut only: Option<String> = None;
    let mut freq_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use small|default|large");
                    std::process::exit(2);
                });
            }
            "--only" => only = it.next().cloned(),
            "--freq" => freq_only = true,
            "--help" | "-h" => {
                eprintln!("usage: repro [--scale small|default|large] [--only dblp|standard|data1|data2] [--freq]");
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    if want("dblp") {
        eprintln!("[repro] building dblp-alike at {scale:?}…");
        let corpus = Arc::new(TreeCorpus::new(dblp_tree(scale)));
        frequency_table_dblp(&corpus);
        if !freq_only {
            let engine = SearchEngine::from_source(corpus);
            run_dataset("dblp", &engine, &dblp_workload());
        }
    }
    for (name, size) in [
        ("standard", XmarkSize::Standard),
        ("data1", XmarkSize::Data1),
        ("data2", XmarkSize::Data2),
    ] {
        if !want(name) {
            continue;
        }
        eprintln!(
            "[repro] building {}-alike at {scale:?}…",
            dataset_name(size)
        );
        let corpus = Arc::new(TreeCorpus::new(xmark_tree(scale, size)));
        frequency_table_xmark(&corpus, size);
        if !freq_only {
            let engine = SearchEngine::from_source(corpus);
            run_dataset(dataset_name(size), &engine, &xmark_workload());
        }
    }
}

/// §5.1 keyword table: paper frequency vs planted (scaled) frequency.
fn frequency_table_dblp(corpus: &TreeCorpus) {
    println!(
        "\n## Keyword frequencies — dblp ({} nodes)",
        corpus.tree().len()
    );
    println!("{:<16} {:>10} {:>10}", "keyword", "paper", "generated");
    for (kw, paper) in PAPER_DBLP_FREQS {
        println!(
            "{:<16} {:>10} {:>10}",
            kw,
            paper,
            corpus.index().frequency(kw)
        );
    }
}

fn frequency_table_xmark(corpus: &TreeCorpus, size: XmarkSize) {
    println!(
        "\n## Keyword frequencies — {} ({} nodes)",
        dataset_name(size),
        corpus.tree().len()
    );
    println!("{:<16} {:>10} {:>10}", "keyword", "paper", "generated");
    for (kw, freqs) in PAPER_XMARK_FREQS {
        println!(
            "{:<16} {:>10} {:>10}",
            kw,
            freqs[size.column()],
            corpus.index().frequency(kw)
        );
    }
}

/// One Figure 5 + Figure 6 panel.
fn run_dataset(name: &str, engine: &SearchEngine, workload: &[(&str, String)]) {
    println!("\n## Figure 5/6 panel — {name}");
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>6} {:>7} {:>7}",
        "query", "RTFs", "MaxMatch", "ValidRTF", "CFR", "APR'", "MaxAPR"
    );
    for (abbrev, keywords) in workload {
        let query = Query::parse(keywords).expect("workload query parses");
        let (vt, xt) = timed(engine, &query);
        let cmp = engine.compare(&query).expect("comparison runs");
        println!(
            "{:<10} {:>6} {:>14} {:>14} {:>6.2} {:>7.3} {:>7.3}",
            abbrev,
            cmp.rtf_count,
            format!("{:.3?}", xt),
            format!("{:.3?}", vt),
            cmp.effectiveness.cfr,
            cmp.effectiveness.apr_prime,
            cmp.effectiveness.max_apr,
        );
    }
}

/// Average algorithm time (excluding keyword retrieval) over `RUNS`
/// runs, discarding the first — the paper's protocol.
fn timed(engine: &SearchEngine, query: &Query) -> (Duration, Duration) {
    let mut valid = Vec::with_capacity(RUNS);
    let mut mm = Vec::with_capacity(RUNS);
    let request = validrtf::SearchRequest::from_query(query.clone());
    for _ in 0..RUNS {
        valid.push(
            engine
                .execute(&request.clone().algorithm(AlgorithmKind::ValidRtf))
                .expect("workload query runs")
                .timings
                .algorithm_time(),
        );
        mm.push(
            engine
                .execute(&request.clone().algorithm(AlgorithmKind::MaxMatchRtf))
                .expect("workload query runs")
                .timings
                .algorithm_time(),
        );
    }
    (
        average_discarding_first(&valid),
        average_discarding_first(&mm),
    )
}

fn average_discarding_first(times: &[Duration]) -> Duration {
    let rest = &times[1..];
    rest.iter().sum::<Duration>() / rest.len() as u32
}
