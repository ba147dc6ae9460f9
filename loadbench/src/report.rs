//! One result schema for every workload: named metrics with units and
//! sample counts, per-phase open-loop accounting, failures by cause, and
//! the stamp that makes a result comparable across commits.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`ask_p50_ms`, `llm.translate_ms`, ...).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `ratio`, `count`, `MiB`, `us`).
    pub unit: &'static str,
    /// Samples behind the value, when it summarizes a distribution.
    pub samples: Option<usize>,
}

/// Collects metrics in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a scalar metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds a metric backed by `n` samples.
    pub fn put_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Adds `<prefix>_p50_ms` and the highest nameable tail percentile of
    /// `samples_ms` (the tail's name says which percentile it is); a
    /// percentile with too few samples beyond it is left out.
    pub fn put_latency(&mut self, prefix: &str, samples_ms: &[f64]) {
        let n = samples_ms.len();
        if let Some(p50) = stats::percentile(samples_ms, 50.0) {
            self.put_n(format!("{prefix}_p50_ms"), p50, "ms", n);
        }
        if let Some((p, v)) = stats::highest_tail(samples_ms) {
            self.put_n(format!("{prefix}_{}_ms", stats::label(p)), v, "ms", n);
        }
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One open-loop (or paced) phase: what was due, sent, answered, and how
/// late the generator ran.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase label (`base`, `rung-200`, `ingest`, ...).
    pub name: String,
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub succeeded: u64,
    /// Requests failed (status, transport or oracle).
    pub failed: u64,
    /// Median generator lateness (ms past the due time at send).
    pub lateness_p50_ms: f64,
    /// Worst generator lateness (ms).
    pub lateness_max_ms: f64,
    /// Lateness kept growing through the phase.
    pub backlogged: bool,
    /// Median latency (ms) and the highest nameable tail `(percentile,
    /// ms)`, when there are enough samples to name them.
    pub latency: (Option<f64>, Option<(f64, f64)>),
}

impl Phase {
    /// A phase's accounting from its latencies and lateness (ms).
    pub fn new(
        name: String,
        rate: f64,
        failed: u64,
        latency_ms: &[f64],
        lateness_ms: &[f64],
    ) -> Phase {
        let sent = latency_ms.len() as u64;
        Phase {
            name,
            rate,
            sent,
            succeeded: sent - failed,
            failed,
            lateness_p50_ms: stats::median(lateness_ms),
            lateness_max_ms: lateness_ms.iter().cloned().fold(0.0, f64::max),
            backlogged: backlogged(lateness_ms),
            latency: (
                stats::percentile(latency_ms, 50.0),
                stats::highest_tail(latency_ms),
            ),
        }
    }
}

/// Is the generator falling behind? True when the last quarter of the
/// phase's sends ran clearly later than the first quarter: a queue that
/// keeps growing, not one-off jitter.
pub fn backlogged(lateness_ms: &[f64]) -> bool {
    let n = lateness_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = stats::mean(&lateness_ms[..q]);
    let last = stats::mean(&lateness_ms[n - q..]);
    last > 2.0 * first + 2.0
}

/// Failure counts by cause (`status-429`, `transport`, `mismatch-answer`, ...).
pub type Failures = BTreeMap<String, u64>;

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Failures by cause.
    pub failures: Failures,
    /// End-to-end metrics (untraced measurement).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Open-loop / paced phase accounting.
    pub phases: Vec<Phase>,
    /// Provenance stamp (JSON object entries).
    pub stamp: Vec<(String, serde_json::Value)>,
}

impl Outcome {
    /// Total failures over all causes.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Counts one failure of `cause`.
    pub fn fail(&mut self, cause: impl Into<String>) {
        *self.failures.entry(cause.into()).or_insert(0) += 1;
    }

    /// Adds a stamp entry.
    pub fn stamp(&mut self, key: &str, value: serde_json::Value) {
        self.stamp.push((key.to_string(), value));
    }

    /// The human-readable report: stamp, phases, every metric with unit
    /// and sample count, failures by cause.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let stamp = serde_json::Value::Map(self.stamp.clone());
        writeln!(out, "stamp {stamp}").unwrap();
        for p in &self.phases {
            let mut latency = String::new();
            if let Some(v) = p.latency.0 {
                write!(latency, " p50_ms={v:.3}").unwrap();
            }
            if let Some((q, v)) = p.latency.1 {
                write!(latency, " {}_ms={v:.3}", stats::label(q)).unwrap();
            }
            writeln!(
                out,
                "phase {} rate={}/s sent={} succeeded={} failed={} lateness_p50_ms={:.3} lateness_max_ms={:.3} backlogged={}{latency}",
                p.name, p.rate, p.sent, p.succeeded, p.failed, p.lateness_p50_ms, p.lateness_max_ms, p.backlogged
            )
            .unwrap();
        }
        for (kind, metrics) in [("e2e", &self.e2e), ("layer", &self.layers)] {
            for m in &metrics.0 {
                let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
                writeln!(out, "{kind} {} {} {}{n}", m.name, fmt_num(m.value), m.unit).unwrap();
            }
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        writeln!(
            out,
            "failed_ratio {} ({} of {} attempted) causes: {}",
            fmt_num(ratio(self.failed(), self.attempted)),
            self.failed(),
            self.attempted,
            if failures.is_empty() {
                "none".to_string()
            } else {
                failures.join(", ")
            }
        )
        .unwrap();
        out
    }

    /// The machine-readable last line: `correct`, `attempted`, `failed`
    /// and exactly the metrics named in `wanted` (all must exist). A run
    /// that attempted nothing checked nothing, so it has no result.
    pub fn result_line(&self, from: &Metrics, wanted: &[&str]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let mut entries = Vec::new();
        for name in wanted {
            let m = from
                .0
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            entries.push((
                m.name.clone(),
                serde_json::json!({"value": m.value, "unit": m.unit}),
            ));
        }
        let line = serde_json::json!({
            "correct": self.failed() == 0,
            "attempted": self.attempted,
            "failed": self.failed(),
            "metrics": serde_json::Value::Map(entries),
        });
        Ok(line.to_string())
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 100.0 || v == 0.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_lateness_is_not_a_backlog_but_growth_is() {
        let steady = vec![0.1; 100];
        assert!(!backlogged(&steady));
        let growing: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(backlogged(&growing));
    }

    #[test]
    fn result_line_requires_every_wanted_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.e2e.put("a_ms", 1.5, "ms");
        assert!(o
            .result_line(&o.e2e, &["a_ms"])
            .unwrap()
            .contains("\"a_ms\""));
        assert!(o.result_line(&o.e2e, &["b_ms"]).is_err());
    }

    #[test]
    fn a_run_that_attempted_nothing_has_no_result() {
        let mut o = Outcome::default();
        o.e2e.put("a_ms", 1.5, "ms");
        assert!(o.result_line(&o.e2e, &["a_ms"]).is_err());
    }
}
