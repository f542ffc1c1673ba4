//! Shared corpus/bench scaffolding for the Figure 5/6 harness.
//!
//! The criterion benches and the `repro` binary both need the same
//! engines: a DBLP-alike corpus and the three-step XMark ladder, at a
//! scale chosen to finish on a laptop while preserving the paper's
//! relative selectivities (`DESIGN.md` §2).

#![deny(missing_docs)]
#![warn(clippy::all)]

use validrtf::engine::SearchEngine;
use xks_datagen::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig, XmarkSize};
use xks_xmltree::XmlTree;

/// Benchmark scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: seconds to build, sub-second queries.
    Small,
    /// The default harness scale (what `EXPERIMENTS.md` reports).
    Default,
    /// Closer to the paper's corpus sizes (minutes to build).
    Large,
}

impl Scale {
    /// Parses `small` / `default` / `large`.
    #[must_use]
    pub fn parse(text: &str) -> Option<Scale> {
        match text {
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// DBLP record count at this scale.
    #[must_use]
    pub fn dblp_records(self) -> usize {
        match self {
            Scale::Small => 2_000,
            Scale::Default => 30_000,
            Scale::Large => 150_000,
        }
    }

    /// XMark base items per region at this scale.
    #[must_use]
    pub fn xmark_base_items(self) -> usize {
        match self {
            Scale::Small => 40,
            Scale::Default => 300,
            Scale::Large => 1_200,
        }
    }
}

/// Deterministic seed shared by the whole harness.
pub const HARNESS_SEED: u64 = 2009;

/// Generates the DBLP-alike corpus.
#[must_use]
pub fn dblp_tree(scale: Scale) -> XmlTree {
    generate_dblp(&DblpConfig::with_records(
        scale.dblp_records(),
        HARNESS_SEED,
    ))
}

/// Generates one XMark-alike corpus of the ladder.
#[must_use]
pub fn xmark_tree(scale: Scale, size: XmarkSize) -> XmlTree {
    generate_xmark(&XmarkConfig::sized(
        size,
        scale.xmark_base_items(),
        HARNESS_SEED,
    ))
}

/// Builds the DBLP-alike engine.
#[must_use]
pub fn dblp_engine(scale: Scale) -> SearchEngine {
    SearchEngine::new(dblp_tree(scale))
}

/// Builds one XMark-alike engine of the ladder.
#[must_use]
pub fn xmark_engine(scale: Scale, size: XmarkSize) -> SearchEngine {
    SearchEngine::new(xmark_tree(scale, size))
}

/// Dataset labels as the paper names them.
#[must_use]
pub fn dataset_name(size: XmarkSize) -> &'static str {
    match size {
        XmarkSize::Standard => "xmark standard",
        XmarkSize::Data1 => "xmark data1",
        XmarkSize::Data2 => "xmark data2",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn small_engines_build() {
        assert!(dblp_tree(Scale::Small).len() > 10_000);
        assert!(xmark_tree(Scale::Small, XmarkSize::Standard).len() > 3_000);
        let engine = xmark_engine(Scale::Small, XmarkSize::Standard);
        let request = validrtf::SearchRequest::parse("preventions description").unwrap();
        assert!(!engine.execute(&request).unwrap().hits.is_empty());
    }
}
