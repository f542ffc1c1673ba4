//! Failed and timed-out requests are counted and timed like any other:
//! `search.queries` counts every request `SearchEngine` executes, and
//! the latency histograms see it, while `search.empty` and
//! `search.hits` only count requests that produced a result.
//!
//! The metrics registry is process-global, so this file is its own test
//! binary with a single test: no other test can move the counters
//! between a read and the next.

use std::time::{Duration, Instant};

use xks::core::{
    CorpusSource, MemoryCorpus, SearchEngine, SearchError, SearchRequest, SourceElement,
    SourceError,
};
use xks::obs::global;
use xks::xmltree::Dewey;

/// A corpus whose postings lookups fail like a dying disk would.
#[derive(Debug)]
struct FailingPostings(MemoryCorpus);

impl CorpusSource for FailingPostings {
    fn keyword_deweys(&self, _: &str) -> Result<Vec<Dewey>, SourceError> {
        Err(SourceError::new("synthetic postings I/O failure"))
    }
    fn element(&self, dewey: &Dewey) -> Result<Option<SourceElement>, SourceError> {
        self.0.element(dewey)
    }
    fn label_name(&self, label: u32) -> Option<String> {
        self.0.label_name(label)
    }
}

/// The counters and histogram counts this test watches: queries,
/// empty, hits, deadline_exceeded, then the sample counts of
/// `search.total_ns` and `search.get_keyword_nodes_ns`.
fn readings() -> [u64; 6] {
    let registry = global();
    [
        registry.counter("search.queries").get(),
        registry.counter("search.empty").get(),
        registry.counter("search.hits").get(),
        registry.counter("search.deadline_exceeded").get(),
        registry.histogram("search.total_ns").snapshot().count,
        registry
            .histogram("search.get_keyword_nodes_ns")
            .snapshot()
            .count,
    ]
}

/// How far each reading moved while `f` ran.
fn delta(f: impl FnOnce()) -> [u64; 6] {
    let before = readings();
    f();
    let after = readings();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn failed_and_expired_requests_count_once_each() {
    let doc = xks::store::shred(&xks::xmltree::fixtures::publications());
    let request = SearchRequest::parse("liu keyword").unwrap();

    // A backend failure during resolve.
    let failing = SearchEngine::from_owned_source(FailingPostings(MemoryCorpus::new(doc.clone())));
    let moved = delta(|| {
        let err = failing.execute(&request).unwrap_err();
        assert!(matches!(err, SearchError::Backend(_)), "{err}");
    });
    assert_eq!(moved, [1, 0, 0, 0, 1, 1]);

    // A deadline that expired before execution began.
    let engine = SearchEngine::from_owned_source(MemoryCorpus::new(doc));
    let expired = request
        .clone()
        .deadline_at(Instant::now() - Duration::from_millis(1));
    let moved = delta(|| {
        let err = engine.execute(&expired).unwrap_err();
        assert!(matches!(err, SearchError::Timeout(_)), "{err}");
    });
    assert_eq!(moved, [1, 0, 0, 1, 1, 1]);

    // A successful request counts its hits; an empty one counts as empty.
    let mut hits = 0;
    let moved = delta(|| hits = engine.execute(&request).unwrap().hits.len() as u64);
    assert!(hits > 0);
    assert_eq!(moved, [1, 0, hits, 0, 1, 1]);
    let unmatched = SearchRequest::parse("unobtainium").unwrap();
    let moved = delta(|| assert!(engine.execute(&unmatched).unwrap().hits.is_empty()));
    assert_eq!(moved, [1, 1, 0, 0, 1, 1]);
}
