//! Sample summaries and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (average of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency: the highest percentile with at least 10 samples
/// beyond it, i.e. the sample at rank `n − 10` (1-based) in ascending
/// order. Returns `(value, percentile, n)`. Samples of 10 or fewer have
/// no such percentile; their tail is the maximum, reported as p100.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// The median over `windows` consecutive equal slices of `xs` of each
/// slice's [`tail`]. Returns `(value, percentile, samples per slice)`;
/// with too few samples for every slice to have one, the whole
/// sample's [`tail`].
pub fn windowed_tail(xs: &[f64], windows: usize) -> (f64, f64, usize) {
    let size = xs.len() / windows.max(1);
    if size <= 10 {
        return tail(xs);
    }
    let tails: Vec<(f64, f64, usize)> = xs.chunks_exact(size).take(windows).map(tail).collect();
    let value = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    (value, tails[0].1, size)
}

/// One reported metric value.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A measured number.
    Num(f64),
    /// The source (e.g. `/proc`) is missing on this platform.
    Unavailable,
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<Option<f64>> for Value {
    fn from(x: Option<f64>) -> Value {
        x.map_or(Value::Unavailable, Value::Num)
    }
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, Value, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: impl Into<Value>, unit: &'static str) {
        debug_assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "{name} twice"
        );
        self.entries.push((name, value.into(), unit));
    }

    /// Human-readable lines, one per metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = match value {
                Value::Num(x) => writeln!(out, "  {name:<34} {x:>14.6} {unit}"),
                Value::Unavailable => writeln!(out, "  {name:<34} {:>14} {unit}", "unavailable"),
            };
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, attempted: u64, failed: u64, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = match value {
                Value::Num(x) if x.is_finite() => format!("{x}"),
                // JSON has no NaN/inf; neither is ever a measurement.
                Value::Num(_) | Value::Unavailable => "\"unavailable\"".to_string(),
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
    }

    #[test]
    fn windowed_tail_is_the_median_of_slice_tails() {
        // Four slices of 20; each slice's tail is its 10th value.
        let xs: Vec<f64> = (0..80)
            .map(|i| f64::from(i % 20 + 100 * (i / 20)))
            .collect();
        assert_eq!(windowed_tail(&xs, 4), ((109.0 + 209.0) / 2.0, 50.0, 20));
        assert_eq!(windowed_tail(&xs[..30], 4), tail(&xs[..30]));
    }

    #[test]
    fn quantiles_and_medians() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 1.25, "ms");
        m.put("peak_rss_mb", None, "MiB");
        let line = m.result_line(4, 1, false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"peak_rss_mb\": {\"value\": \"unavailable\", \"unit\": \"MiB\"}}}"
        );
    }
}
