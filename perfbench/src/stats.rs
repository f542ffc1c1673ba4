//! Raw-sample statistics and unit-tagged metrics.
//!
//! Every timing the benchmark reports is computed here from raw
//! samples (never from the program's power-of-two histogram buckets),
//! and every metric carries its unit. A time metric's unit is taken
//! from its name's suffix (`_s`, `_ms`, `_us`), and the conversion from
//! the raw [`Duration`] follows that suffix, so a name and the scale of
//! its value cannot disagree.

use std::fmt::Write as _;
use std::time::Duration;

/// Raw duration samples with exact nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The nearest-rank `p`-th percentile (0 < p <= 100): the smallest
    /// sample with at least `p`% of all samples at or below it. With
    /// 1,000 samples, p99 is the 990th smallest, so 10 samples lie
    /// beyond it. Zero when there are no samples.
    pub fn percentile(&mut self, p: f64) -> Duration {
        if self.ns.is_empty() {
            return Duration::ZERO;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.ns.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Duration::from_nanos(self.ns[rank.clamp(1, n) - 1])
    }

    pub fn median(&mut self) -> Duration {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> Duration {
        if self.ns.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.ns.iter().map(|&v| u128::from(v)).sum();
        Duration::from_nanos((sum / self.ns.len() as u128) as u64)
    }
}

/// Median of plain values (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of durations (mean of the middle pair for even counts).
pub fn median_duration(values: &[Duration]) -> Duration {
    let secs: Vec<f64> = values.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(median_f64(&secs))
}

/// `part / whole`, or zero when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The unit of a time metric, read from its name's suffix, with the
/// number of nanoseconds in one unit.
fn time_unit(name: &str) -> (&'static str, f64) {
    if name.ends_with("_us") {
        ("us", 1e3)
    } else if name.ends_with("_ms") {
        ("ms", 1e6)
    } else if name.ends_with("_s") {
        ("s", 1e9)
    } else {
        panic!("time metric {name:?} must end in _s, _ms or _us")
    }
}

/// An ordered set of named, unit-tagged metric values.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, String, f64)>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a duration under `name`, converted to the unit its
    /// suffix names.
    pub fn time(&mut self, name: &str, d: Duration) {
        let (unit, ns_per_unit) = time_unit(name);
        self.value(name, unit, d.as_nanos() as f64 / ns_per_unit);
    }

    /// Records a non-time value with an explicit unit.
    pub fn value(&mut self, name: &str, unit: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name.to_owned(), unit.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.entries
            .iter()
            .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = Samples::new();
        // Pushed in reverse so the sort is exercised.
        for ms in (1..=1000u64).rev() {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.median(), Duration::from_millis(500));
        assert_eq!(s.percentile(99.0), Duration::from_millis(990));
        assert_eq!(s.percentile(100.0), Duration::from_millis(1000));
        assert_eq!(s.percentile(0.1), Duration::from_millis(1));
        assert_eq!(s.mean(), Duration::from_micros(500_500));
        // Ten samples lie beyond p99 of 1,000.
        let p99 = s.percentile(99.0);
        assert_eq!(
            s.ns.iter().filter(|&&v| v > p99.as_nanos() as u64).count(),
            10
        );

        let mut odd = Samples::new();
        for ns in [7u64, 3, 5] {
            odd.push(Duration::from_nanos(ns));
        }
        assert_eq!(odd.median(), Duration::from_nanos(5));
        assert_eq!(Samples::new().percentile(99.0), Duration::ZERO);
    }

    #[test]
    fn time_metrics_convert_by_their_suffix() {
        let mut m = Metrics::new();
        let d = Duration::from_micros(1_500); // 1.5 ms
        m.time("a_s", d);
        m.time("b_ms", d);
        m.time("c_us", d);
        m.time("d_us", Duration::from_nanos(2_500));
        assert_eq!(m.get("a_s"), Some(0.0015));
        assert_eq!(m.get("b_ms"), Some(1.5));
        assert_eq!(m.get("c_us"), Some(1_500.0));
        // Nanoseconds must never pass through unscaled as microseconds.
        assert_eq!(m.get("d_us"), Some(2.5));
        let units: Vec<&str> = m.iter().map(|(_, u, _)| u).collect();
        assert_eq!(units, ["s", "ms", "us", "us"]);
    }

    #[test]
    fn percentile_feeds_the_reported_value() {
        let mut s = Samples::new();
        for us in 1..=200u64 {
            s.push(Duration::from_micros(us * 10));
        }
        let mut m = Metrics::new();
        m.time("p50_ms", s.median());
        m.time("p99_ms", s.percentile(99.0));
        assert_eq!(m.get("p50_ms"), Some(1.0));
        assert_eq!(m.get("p99_ms"), Some(1.98));
        assert_eq!(
            m.to_json(),
            "{\"p50_ms\": {\"value\": 1, \"unit\": \"ms\"}, \
             \"p99_ms\": {\"value\": 1.98, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "must end in")]
    fn time_metric_without_unit_suffix_is_rejected() {
        Metrics::new().time("latency", Duration::from_millis(1));
    }

    #[test]
    fn medians_of_values() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            median_duration(&[Duration::from_millis(2), Duration::from_millis(4)]),
            Duration::from_millis(3)
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
