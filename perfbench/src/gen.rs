//! Input generation: every corpus and query set, written to disk as XML
//! and query text. It runs in its own process, before the measured one
//! starts, so neither its time nor its memory counts towards set-up or
//! peak resident memory.
//!
//! The corpora are fixed, named cells: the generators make them
//! deterministically from their own committed seeds. The run's `--seed`
//! drives the order of requests and the op sequence instead. A corpus
//! drawn from the run seed would change the workload from run to run:
//! on `s100-wide-zipf-multi8`, two seeds gave closed-loop rates of 37 and
//! 68 searches/s, because each draws a different query set.

use std::path::Path;

use xks::datagen::queries::{dblp_workload, xmark_workload};
use xks::datagen::scenario::ScenarioSpec;
use xks::datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks::xmltree::writer::to_xml;

use crate::Workload;

/// engine-mem's corpora: those of the repository's hot-path bench
/// (2,000 DBLP-alike records; XMark-alike standard with 40 base items;
/// seed 2009).
const DBLP_RECORDS: usize = 2_000;
const XMARK_BASE_ITEMS: usize = 40;
const HOTPATH_SEED: u64 = 2009;

fn write_queries(path: &Path, queries: impl IntoIterator<Item = String>) -> std::io::Result<()> {
    let mut text = String::new();
    for q in queries {
        assert!(!q.contains('\n'), "query text is one line");
        text.push_str(&q);
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Writes a workload-matrix cell (at its committed seed) as
/// `corpus.xml` and `queries.txt`.
fn write_cell(name: &str, dir: &Path) -> std::io::Result<()> {
    let spec = ScenarioSpec::parse(name).expect("a valid cell name");
    let scenario = spec.generate();
    std::fs::write(dir.join("corpus.xml"), to_xml(&scenario.tree))?;
    write_queries(
        &dir.join("queries.txt"),
        scenario.queries.into_iter().map(|q| q.text),
    )
}

pub fn generate(workload: Workload, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match workload {
        Workload::ServeDisk => write_cell("s100-wide-zipf-multi8", dir),
        Workload::MutateMixed => write_cell("s100-flat-zipf-single", dir),
        Workload::EngineMem => {
            let dblp = generate_dblp(&DblpConfig::with_records(DBLP_RECORDS, HOTPATH_SEED));
            std::fs::write(dir.join("dblp.xml"), to_xml(&dblp))?;
            let xmark = generate_xmark(&XmarkConfig::sized(
                XmarkSize::Standard,
                XMARK_BASE_ITEMS,
                HOTPATH_SEED,
            ));
            std::fs::write(dir.join("xmark.xml"), to_xml(&xmark))?;
            write_queries(
                &dir.join("dblp.txt"),
                dblp_workload().into_iter().map(|q| q.1),
            )?;
            write_queries(
                &dir.join("xmark.txt"),
                xmark_workload().into_iter().map(|q| q.1),
            )
        }
    }
}
