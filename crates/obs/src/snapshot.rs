//! Point-in-time metric snapshots and the `xks-obs/1` JSON schema.
//!
//! A [`Snapshot`] is an ordinary value: sorted maps of counter, gauge,
//! and histogram readings. It can come from a [`crate::Registry`], from
//! components implementing [`MetricSource`], or both merged into one —
//! the CLI's `xks stats` builds exactly that union. Serialization is
//! hand-rolled (no dependencies), emits keys in sorted order, and skips
//! empty histogram buckets, so identical state always produces
//! byte-identical JSON.

use std::collections::BTreeMap;

use crate::metric::HistogramSnapshot;

/// A component that owns counters outside the registry (e.g. the
/// persist layer's per-reader cache statistics) and can contribute
/// them to a snapshot at collection time.
pub trait MetricSource {
    /// Appends this component's metrics to `snap`, with every name
    /// prefixed by `prefix` (callers pass e.g. `"index."` or
    /// `"index.shard.3."` — including the trailing dot).
    fn collect_into(&self, prefix: &str, snap: &mut Snapshot);
}

/// Frozen metric readings with deterministic ordering and a
/// hand-rolled JSON form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    ratios: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counter reading (last write wins on duplicate names).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Records a gauge reading.
    pub fn gauge(&mut self, name: impl Into<String>, value: u64) {
        self.gauges.insert(name.into(), value);
    }

    /// Records a histogram reading.
    pub fn histogram(&mut self, name: impl Into<String>, value: HistogramSnapshot) {
        self.histograms.insert(name.into(), value);
    }

    /// Records a derived ratio (e.g. a cache hit rate in `[0, 1]`) —
    /// the dashboard-ready form of a hits/misses counter pair, emitted
    /// by collectors so consumers never re-derive arithmetic.
    pub fn ratio(&mut self, name: impl Into<String>, value: f64) {
        self.ratios.insert(name.into(), value);
    }

    /// Merges every reading of `other` into `self`.
    pub fn merge(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.ratios.extend(other.ratios);
        self.histograms.extend(other.histograms);
    }

    /// Counter readings in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauge readings in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histogram readings in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Ratio readings in sorted name order.
    pub fn ratios(&self) -> impl Iterator<Item = (&str, f64)> {
        self.ratios.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The snapshot as `xks-obs/1` JSON:
    ///
    /// ```json
    /// {"schema":"xks-obs/1",
    ///  "counters":{"name":value,...},
    ///  "gauges":{"name":value,...},
    ///  "ratios":{"name":0.980392,...},
    ///  "histograms":{"name":{"count":..,"sum":..,"max":..,"mean":..,
    ///                        "p50":..,"p90":..,"p99":..,
    ///                        "buckets":[[lo,hi,count],...]},...}}
    /// ```
    ///
    /// Keys are sorted, empty buckets are skipped, percentiles are
    /// bucket upper bounds clamped to the observed maximum. Ratios are
    /// printed with a fixed six decimal places so identical state stays
    /// byte-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"xks-obs/1\",\"counters\":{");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\"ratios\":{");
        let mut first = true;
        for (name, value) in &self.ratios {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&format!("{value:.6}"));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_string(&mut out, name);
            out.push(':');
            push_histogram(&mut out, hist);
        }
        out.push_str("}}");
        out
    }
}

fn push_scalar_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (name, value) in map {
        if !first {
            out.push(',');
        }
        first = false;
        push_json_string(out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }
}

impl HistogramSnapshot {
    /// This histogram alone in the `xks-obs/1` histogram form — the
    /// object [`Snapshot::to_json`] nests under `histograms`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        push_histogram(&mut out, self);
        out
    }
}

fn push_histogram(out: &mut String, hist: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        hist.count,
        hist.sum,
        hist.max,
        hist.mean(),
        hist.p50(),
        hist.p90(),
        hist.p99()
    ));
    let mut first = true;
    for (lo, hi, n) in hist.nonzero_buckets() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("[{lo},{hi},{n}]"));
    }
    out.push_str("]}");
}

/// Appends `s` as a JSON string literal (metric names are plain
/// dot-paths, but escaping is complete so arbitrary names can't
/// corrupt the document).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut snap = Snapshot::new();
        snap.counter("zebra", 1);
        snap.counter("alpha", 2);
        snap.gauge("mid", 3);
        let h = Histogram::new();
        h.record(100);
        h.record(200);
        snap.histogram("lat", h.snapshot());

        let json = snap.to_json();
        assert_eq!(json, snap.clone().to_json(), "stable across calls");
        let alpha = json.find("\"alpha\"").unwrap();
        let zebra = json.find("\"zebra\"").unwrap();
        assert!(alpha < zebra, "counter keys sorted");
        assert!(json.starts_with("{\"schema\":\"xks-obs/1\""));
        assert!(json.contains("\"lat\":{\"count\":2,\"sum\":300,\"max\":200"));
        // 100 lands in [64,127], 200 in [128,255]; empty buckets skipped.
        assert!(json.contains("\"buckets\":[[64,127,1],[128,255,1]]"));
    }

    #[test]
    fn merge_unions_and_overwrites() {
        let mut a = Snapshot::new();
        a.counter("x", 1);
        let mut b = Snapshot::new();
        b.counter("x", 5);
        b.gauge("y", 7);
        a.merge(b);
        assert_eq!(a.counters().next(), Some(("x", 5)));
        assert_eq!(a.gauges().next(), Some(("y", 7)));
    }

    #[test]
    fn names_are_escaped() {
        let mut snap = Snapshot::new();
        snap.counter("weird\"name\\with\njunk", 1);
        let json = snap.to_json();
        assert!(json.contains("\"weird\\\"name\\\\with\\njunk\":1"));
    }
}
