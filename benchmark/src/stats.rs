//! Order statistics over timing samples, and the JSON the benchmark prints.

use crate::metrics::unit_of;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `None` for
/// no samples — a median of nothing is not zero.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile, `pct` in (0, 100]; `None` for no samples.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(pct, v.len()).clamp(1, v.len()) - 1])
}

/// Nearest rank of `pct` among `n` samples. The epsilon keeps products that
/// are whole numbers on paper (99.9 % of 10 000) from rounding up a rank.
fn rank(pct: f64, n: usize) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// The percentiles a timing may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder with at least ten samples beyond it,
/// and its value; `None` below twenty samples, where not even the median has
/// ten beyond it.
pub fn top_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    LADDER.into_iter().find_map(|pct| {
        (n >= rank(pct, n) + 10).then(|| (pct, percentile(values, pct).expect("n >= 10")))
    })
}

/// A timing as the benchmark reports it: median, the highest percentile with
/// at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub samples: usize,
    pub median: f64,
    /// (percentile, value); `None` below twenty samples.
    pub top: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(values: &[f64]) -> Option<Timing> {
        Some(Timing {
            samples: values.len(),
            median: median(values)?,
            top: top_percentile(values),
        })
    }
}

/// `true` for names the benchmark contract accepts: starts with a letter or a
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// What one run of one workload found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Reps or sessions attempted.
    pub attempted: u64,
    /// Those that errored, missed their target, were refused, or broke a
    /// correctness check.
    pub failed: u64,
    /// What failed, for the operator (stderr).
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// Records a declared metric; its unit comes from the vocabulary.
    ///
    /// # Panics
    ///
    /// Panics on a name [`crate::metrics`] does not declare — a bug here.
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Replaces non-finite values by 0 and records each as an error, so the
    /// JSON never carries NaN or inf and the run cannot pass with one.
    pub fn sanitize(&mut self) {
        for (name, metric) in &mut self.metrics {
            if !metric.value.is_finite() {
                self.errors
                    .push(format!("metric {name} is not finite: {}", metric.value));
                metric.value = 0.0;
            }
        }
    }

    /// The result line of the benchmark contract: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Call [`sanitize`](Self::sanitize)
    /// first.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        write_metrics(&mut out, &self.metrics);
        out.push('}');
        out
    }
}

/// Writes `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn write_metrics(out: &mut String, metrics: &Metrics) {
    out.push('{');
    for (i, (name, metric)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        debug_assert!(valid_name(name), "metric name {name:?}");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(metric.value),
            metric.unit
        );
    }
    out.push('}');
}

/// A finite number with all its digits; non-finite input (a bug upstream —
/// [`RunResult::sanitize`] removes it) renders as 0 rather than invalid JSON.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal for free text (host facts, error messages).
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_nothing_is_absent() {
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(top_percentile(&[]), None);
        assert_eq!(Timing::of(&[]), None);
    }

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(top_percentile(&samples(9)), None);
        assert_eq!(top_percentile(&samples(19)), None, "median has 9 beyond");
        assert_eq!(top_percentile(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(top_percentile(&samples(40)), Some((75.0, 30.0)));
        assert_eq!(top_percentile(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(top_percentile(&samples(199)), Some((90.0, 180.0)));
        assert_eq!(top_percentile(&samples(200)), Some((95.0, 190.0)));
        assert_eq!(top_percentile(&samples(300)), Some((95.0, 285.0)));
        assert_eq!(top_percentile(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(top_percentile(&samples(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "host_kcps",
            "channel.reliable-shm.pingpong_rtt_ns",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_never_carries_nan_or_inf() {
        let mut run = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        run.put("session_p50_ms", 1.25);
        run.put("session_p90_ms", f64::NAN);
        run.put("host_kcps", f64::INFINITY);
        run.put("model_kcps", f64::NEG_INFINITY);
        run.sanitize();
        let line = run.to_json_line();
        for bad in ["NaN", "nan", "inf"] {
            assert!(!line.contains(&format!(": {bad}")), "{line}");
        }
        assert!(line.contains("\"correct\": false"), "{line}");
        assert_eq!(run.errors.len(), 3);
        assert!(line.contains("\"session_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = RunResult::default();
        run.put("setup_s", 0.5);
        let line = run.to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_plain() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.00000012), "0.00000012");
        assert_eq!(json_number(3e20), "300000000000000000000");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
