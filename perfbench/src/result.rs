//! The result object every benchmark run prints as its last line.

use std::fmt::Write as _;

/// A benchmark run's result and the spans it recorded.
#[derive(Debug)]
pub struct Report {
    /// Metrics and gate outcomes.
    pub result: BenchResult,
    /// Every measured run's spans, as JSON lines.
    pub spans_jsonl: String,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `%`, `count`.
    pub unit: &'static str,
}

/// Outcome of one benchmark run: how many checked operations were
/// attempted, how many failed a gate, and the metrics.
#[derive(Debug, Default)]
pub struct BenchResult {
    /// Checked operations (measured runs).
    pub attempted: u64,
    /// Operations that failed a validity or determinism gate.
    pub failed: u64,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl BenchResult {
    /// Records one checked operation and the gates it violated.
    pub fn check(&mut self, what: &str, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            for v in violations {
                self.errors.push(format!("{what}: {v}"));
            }
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends an exact count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation passed its gates.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics as one JSON object keyed by name, each with its value
    /// and unit.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The one-line JSON object with keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// A finite JSON number; non-finite values (which no metric should
/// produce) become `null` so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Median of `values` (the mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = BenchResult::default();
        r.check("run 1", vec![]);
        r.push("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check("run 2", vec!["broken".into()]);
        assert!(!r.correct());
        assert_eq!(r.errors, vec!["run 2: broken".to_owned()]);
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
