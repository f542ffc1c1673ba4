//! Helpers shared by the integration tests: the workload digest
//! (`tests/workload_golden.rs` pins the single-thread results; the
//! differential tests re-derive the same digests from other backends
//! and threads, so the format lives here exactly once) and the
//! per-test [`TempDir`].

#![allow(dead_code, unused_imports)] // each test crate uses a subset

mod tempdir;

pub use tempdir::TempDir;
use xks::core::{AlgorithmKind, CorpusSource, Fragment};

/// The golden digest of the 43-query workload × 3 algorithms, captured
/// before the zero-allocation rewrite (PR 2). Re-bless deliberately
/// with `XKS_BLESS_GOLDEN=1 cargo test -q --test workload_golden`.
pub const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/workload_digest.txt"
);

/// Every algorithm the digest covers, in golden-file order.
pub const ALGORITHMS: [AlgorithmKind; 3] = [
    AlgorithmKind::ValidRtf,
    AlgorithmKind::MaxMatchRtf,
    AlgorithmKind::MaxMatchSlca,
];

/// The algorithm names as they appear in the golden file.
pub fn algorithm_name(kind: AlgorithmKind) -> &'static str {
    match kind {
        AlgorithmKind::ValidRtf => "ValidRtf",
        AlgorithmKind::MaxMatchRtf => "MaxMatchRtf",
        AlgorithmKind::MaxMatchSlca => "MaxMatchSlca",
    }
}

fn fnv1a(bytes: &[u8], hash: &mut u64) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One line of the golden digest: FNV-1a over the rendered fragments
/// of one (corpus, query, algorithm) triple.
pub fn digest_line(
    corpus: &str,
    abbrev: &str,
    kind: AlgorithmKind,
    fragments: &[Fragment],
    source: &dyn CorpusSource,
) -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for fragment in fragments {
        fnv1a(fragment.render_source(source).as_bytes(), &mut hash);
        fnv1a(b"\x1e", &mut hash);
    }
    format!(
        "{corpus}/{abbrev}/{}: fragments={} fnv={hash:016x}",
        algorithm_name(kind),
        fragments.len(),
    )
}
