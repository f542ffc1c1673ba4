//! In-memory spans recorded around the benchmark's calls into each
//! layer, with per-layer self time.
//!
//! A span has a name (the layer call it wraps), a start and an end on
//! the run's monotonic clock, the span that caused it, and a request
//! id shared by every span of one operation. Spans are kept in memory
//! and written out once, when the run ends. A disarmed tracer records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::common::say;
use crate::stats::ratio;

/// Index of a recorded span; `None` when the tracer is disarmed.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, start_ns, end_ns)
    }

    /// Records a span of a known duration starting at `start` — used to
    /// turn the program's own stage timings into child spans, laid end
    /// to end in pipeline order.
    pub fn record_dur(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        dur: Duration,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        let end_ns = start_ns + u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.push(name, parent, req, start_ns, end_ns)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let end = self.ns(Instant::now());
            self.spans[i].end_ns = end;
        }
    }

    /// Sets the end of an open span to `end`.
    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            let end = self.ns(end);
            self.spans[i].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as JSON to `path`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// In a traced run, whether the block of the loop at `elapsed` is traced:
/// half-second blocks alternate between untraced and traced, so drift
/// over the run affects both sides of the overhead ratio alike.
pub fn traced_block(elapsed: Duration) -> bool {
    (elapsed.as_millis() / 500) % 2 == 1
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// The blocking-step breakdown of a typical operation: among the root
/// spans named `root`, take those whose duration ranks in the middle
/// tenth (45th to 55th percentile) and average, per span name, the self
/// time of every span in their trees. The per-name means sum to the
/// mean root duration of that band, which is the traced median.
pub fn median_band(spans: &[Span], root: &str) -> (Duration, Vec<(&'static str, Duration)>) {
    let own = self_times(spans);
    // Spans are appended after their parents, so one forward pass finds
    // every span's root.
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
    }
    let mut roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == root)
        .collect();
    if roots.is_empty() {
        return (Duration::ZERO, Vec::new());
    }
    roots.sort_by_key(|&i| spans[i].dur_ns());
    let n = roots.len();
    let lo = (n * 45 / 100).min(n - 1);
    let hi = (n * 55 / 100).max(lo + 1).min(n);
    let band = &roots[lo..hi];
    let mut in_band = vec![false; spans.len()];
    for &r in band {
        in_band[r] = true;
    }
    let mut per_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_band[root_of[i]] {
            *per_name.entry(s.name).or_default() += own[i];
        }
    }
    let k = band.len() as u64;
    let mean_root = band.iter().map(|&r| spans[r].dur_ns()).sum::<u64>() / k;
    let mut steps: Vec<(&'static str, Duration)> = per_name
        .into_iter()
        .map(|(name, total)| (name, Duration::from_nanos(total / k)))
        .collect();
    steps.sort_by_key(|s| std::cmp::Reverse(s.1));
    (Duration::from_nanos(mean_root), steps)
}

/// Prints the per-layer self times of the whole run, then how much of
/// the untraced median the blocking steps of a median `root` operation
/// account for, and the residual.
pub fn report_trace(tracer: &Tracer, root: &str, untraced_p50: Duration, overhead: f64) {
    for (name, (self_ns, count)) in self_by_name(tracer.spans()) {
        say(format!(
            "self time: {name:<26} {:>10.3} ms over {count} span(s)",
            self_ns as f64 / 1e6
        ));
    }
    let (band, steps) = median_band(tracer.spans(), root);
    let p50 = untraced_p50.as_secs_f64();
    for (name, d) in &steps {
        say(format!(
            "median {root}: {name:<26} {:>9.4} ms self = {:>5.1}% of untraced p50",
            d.as_secs_f64() * 1e3,
            ratio(d.as_secs_f64(), p50) * 100.0
        ));
    }
    let sum: Duration = steps.iter().map(|s| s.1).sum();
    say(format!(
        "median {root}: blocking steps sum to {:.4} ms (traced median band {:.4} ms); \
         untraced p50 {:.4} ms; residual {:+.4} ms; trace overhead {:.3}x",
        sum.as_secs_f64() * 1e3,
        band.as_secs_f64() * 1e3,
        p50 * 1e3,
        (p50 - sum.as_secs_f64()) * 1e3,
        overhead
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("d", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
        let by = self_by_name(&spans);
        assert_eq!(by["a"], (22, 1));
    }

    #[test]
    fn median_band_sums_to_the_band_duration() {
        let mut spans = Vec::new();
        for i in 0..20u64 {
            let start = i * 1000;
            let root = spans.len();
            spans.push(span("op", start, start + 100 + i, None));
            spans.push(span("work", start, start + 60, Some(root)));
        }
        let (mean, steps) = median_band(&spans, "op");
        let total: Duration = steps.iter().map(|s| s.1).sum();
        assert_eq!(total, mean);
        assert_eq!(steps[0], ("work", Duration::from_nanos(60)));
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 1);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
