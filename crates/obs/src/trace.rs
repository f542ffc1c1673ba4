//! Per-query stage timing with a preallocated inline span buffer.
//!
//! A [`QueryTrace`] rides inside the per-thread query context and is
//! the engine's **only** timing record: the response's stage timings,
//! the `search.*_ns` histograms and the traced response's spans are
//! all read from it. All storage is inline (`[Span; TRACE_SPAN_CAP]`
//! plus a handful of scalars), so recording performs **zero heap
//! allocations** (`tests/zero_alloc.rs` asserts this). Spans beyond
//! the buffer are counted in [`QueryTrace::dropped`], never grown.
//!
//! Span timestamps are nanosecond offsets from the trace origin
//! ([`QueryTrace::start`]), so a trace is self-contained and
//! serializes directly to the Chrome-trace-event JSON
//! (`chrome://tracing`, Perfetto) via [`QueryTrace::to_chrome_json`].

use std::time::Instant;

/// Maximum spans one query trace can hold without dropping: the nine
/// stage spans of a query plus one [`Stage::PostingsDecode`] per
/// keyword of a 64-keyword query (the query width limit), rounded up.
pub const TRACE_SPAN_CAP: usize = 80;

/// The read-path pipeline stages a trace can attribute time to.
///
/// These are finer-grained than `StageTimings` in the core crate, which
/// sums them per stage (`StageTimings::from_trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query-string parsing (recorded by `SearchRequest::parse`).
    Parse,
    /// Whole keyword-resolution stage (`getKeywordNodes`).
    Resolve,
    /// Cost-based plan selection (term ordering, gallop-vs-merge).
    Plan,
    /// One keyword's postings lookup/decode within resolution.
    PostingsDecode,
    /// Posting-list merge plus anchor computation (`getLCA`).
    MergeAnchor,
    /// Anchor-set dispatch into fragment construction (`getRTF`).
    RtfDispatch,
    /// Fragment construction across all anchors.
    Construct,
    /// Fragment pruning (`pruneRTF`).
    Prune,
    /// Post-filter evaluation.
    PostFilter,
    /// Ranking, top-k selection, and hit materialization.
    Rank,
}

impl Stage {
    /// Stable lowercase name used in every serialized form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Resolve => "resolve",
            Stage::Plan => "plan",
            Stage::PostingsDecode => "postings_decode",
            Stage::MergeAnchor => "merge_anchor",
            Stage::RtfDispatch => "rtf_dispatch",
            Stage::Construct => "construct",
            Stage::Prune => "prune",
            Stage::PostFilter => "post_filter",
            Stage::Rank => "rank",
        }
    }
}

/// One timed stage execution: a `[start, start+dur)` wall-time window
/// relative to the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Nanoseconds from the trace origin to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl Span {
    const EMPTY: Span = Span {
        stage: Stage::Parse,
        start_ns: 0,
        dur_ns: 0,
    };
}

/// The per-query timing record (see the module docs). The engine
/// restarts it for every request ([`QueryTrace::start`]) and closes
/// each top-level stage with a [`QueryTrace::lap`] — one clock read per
/// stage boundary — so consecutive laps tile the execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    origin: Instant,
    /// Where the next lap starts: the end of the last one, or the
    /// origin before the first.
    mark: Instant,
    len: usize,
    dropped: u32,
    spans: [Span; TRACE_SPAN_CAP],
}

impl Default for QueryTrace {
    fn default() -> Self {
        let now = Instant::now();
        QueryTrace {
            origin: now,
            mark: now,
            len: 0,
            dropped: 0,
            spans: [Span::EMPTY; TRACE_SPAN_CAP],
        }
    }
}

impl QueryTrace {
    /// A fresh, empty trace anchored at now.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears recorded spans and anchors the origin (and the lap mark)
    /// at now. Called by the engine at the top of every request, so a
    /// pooled context never carries the previous query's spans.
    pub fn start(&mut self) {
        self.origin = Instant::now();
        self.mark = self.origin;
        self.len = 0;
        self.dropped = 0;
    }

    /// The end of the last lap (the origin before the first).
    #[must_use]
    pub fn mark(&self) -> Instant {
        self.mark
    }

    /// Nanosecond offset of `at` from the trace origin (saturating to
    /// zero if `at` precedes it).
    #[must_use]
    pub fn offset_ns(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.origin))
    }

    /// Closes a top-level stage: records `stage` from the lap mark to
    /// now and moves the mark to now.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        let (start_ns, dur_ns) = self.advance();
        self.push(stage, start_ns, dur_ns);
    }

    /// Closes a lap that splits into two stages laid end to end: `tail`
    /// takes the last `tail_ns` of it (capped at the lap's length) and
    /// `head` the rest. For stages that interleave per item, where
    /// only the tail's share was timed.
    #[inline]
    pub fn lap_split(&mut self, head: Stage, tail: Stage, tail_ns: u64) {
        let (start_ns, total) = self.advance();
        let head_ns = total - tail_ns.min(total);
        self.push(head, start_ns, head_ns);
        self.push(tail, start_ns + head_ns, total - head_ns);
    }

    /// Moves the lap mark to now (one clock read); returns the closed
    /// lap's offset and length.
    fn advance(&mut self) -> (u64, u64) {
        let now = Instant::now();
        let lap = (
            self.offset_ns(self.mark),
            nanos(now.saturating_duration_since(self.mark)),
        );
        self.mark = now;
        lap
    }

    /// Records a span for `stage` covering `started` ..= now, nested
    /// inside the current lap (the mark does not move).
    #[inline]
    pub fn record_since(&mut self, stage: Stage, started: Instant) {
        self.push(stage, self.offset_ns(started), nanos(started.elapsed()));
    }

    /// Records a span from precomputed offsets, for a duration measured
    /// before the trace started (parse time, which
    /// `SearchRequest::parse` captures ahead of execution).
    #[inline]
    pub fn record_manual(&mut self, stage: Stage, start_ns: u64, dur_ns: u64) {
        self.push(stage, start_ns, dur_ns);
    }

    #[inline]
    fn push(&mut self, stage: Stage, start_ns: u64, dur_ns: u64) {
        if self.len < TRACE_SPAN_CAP {
            self.spans[self.len] = Span {
                stage,
                start_ns,
                dur_ns,
            };
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded spans, in record order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// Spans that did not fit in the buffer (zero for every query
    /// within the keyword limit; a nonzero value means
    /// [`TRACE_SPAN_CAP`] needs raising).
    #[must_use]
    pub fn dropped(&self) -> u32 {
        self.dropped
    }

    /// The trace as a Chrome-trace-event JSON document (loadable in
    /// `chrome://tracing` or Perfetto): one complete (`"ph":"X"`)
    /// event per span, timestamps in microseconds relative to the
    /// trace origin, the query string attached as metadata.
    #[must_use]
    pub fn to_chrome_json(&self, query: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"xks\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1}}",
                span.stage.as_str(),
                micros(span.start_ns),
                micros(span.dur_ns),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"query\":");
        crate::snapshot::push_json_string(&mut out, query);
        out.push_str("}}");
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds as a decimal microsecond literal with fixed three
/// fractional digits (Chrome trace timestamps are microseconds).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_clears_spans_and_reanchors() {
        let mut trace = QueryTrace::new();
        trace.record_manual(Stage::Resolve, 0, 100);
        assert_eq!(trace.spans().len(), 1);
        trace.start();
        assert!(trace.spans().is_empty());
        assert_eq!(trace.offset_ns(trace.mark()), 0);
    }

    #[test]
    fn spans_accumulate_in_order_and_cap_without_growing() {
        let mut trace = QueryTrace::new();
        for i in 0..(TRACE_SPAN_CAP as u64 + 3) {
            trace.record_manual(Stage::PostingsDecode, i * 10, 5);
        }
        assert_eq!(trace.spans().len(), TRACE_SPAN_CAP);
        assert_eq!(trace.dropped(), 3);
        assert_eq!(trace.spans()[1].start_ns, 10);
        trace.start();
        assert!(trace.spans().is_empty());
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut trace = QueryTrace::new();
        trace.record_manual(Stage::Parse, 0, 1_500);
        trace.record_manual(Stage::Resolve, 1_500, 42_000);
        let json = trace.to_chrome_json("data \"mining\"");
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"ts\":1.500,\"dur\":42.000"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"query\":\"data \\\"mining\\\"\""));
    }

    #[test]
    fn real_instants_produce_monotonic_offsets() {
        let mut trace = QueryTrace::new();
        trace.start();
        let t0 = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        trace.record_since(Stage::Resolve, t0);
        let t1 = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        trace.record_since(Stage::MergeAnchor, t1);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn laps_tile_from_the_origin_and_nest_inner_spans() {
        let mut trace = QueryTrace::new();
        trace.start();
        let t0 = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        trace.record_since(Stage::PostingsDecode, t0);
        trace.lap(Stage::Resolve);
        std::hint::black_box((0..1000).sum::<u64>());
        trace.lap_split(Stage::Construct, Stage::Prune, 7);
        trace.lap_split(Stage::Construct, Stage::Prune, u64::MAX);
        let spans = trace.spans();
        assert_eq!(spans.len(), 6);
        // The nested span lies inside the lap that encloses it.
        let (decode, resolve) = (spans[0], spans[1]);
        assert_eq!(resolve.start_ns, 0);
        assert!(decode.start_ns + decode.dur_ns <= resolve.dur_ns);
        // Laps and split halves follow each other with no gap, ending
        // at the final mark.
        for pair in spans[1..].windows(2) {
            assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
        }
        let last = spans[5];
        assert_eq!(last.start_ns + last.dur_ns, trace.offset_ns(trace.mark()));
        assert!(trace.offset_ns(trace.mark()) > 0);
        // A split's tail is capped at the lap's length.
        assert_eq!(spans[3].dur_ns, 7.min(spans[2].dur_ns + spans[3].dur_ns));
        assert_eq!(spans[4].dur_ns, 0);
    }
}
