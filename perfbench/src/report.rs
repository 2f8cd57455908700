//! What a workload hands back, and the one-line JSON result.

use crate::checks::Checks;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of running a workload once.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measurements.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a measurement.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    /// Adds a line of text to the report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line. A non-finite value marks the run incorrect,
    /// since JSON cannot carry it.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.ok() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut o = Outcome { attempted: 3, failed: 1, ..Outcome::default() };
        o.metric("setup_s", "s", 0.25);
        o.metric("latency_p50_ms", "ms", 12.0);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"latency_p50_ms\": {\"value\": 12.0, \"unit\": \"ms\"}}}"
        );
        o.metric("bad", "ms", f64::NAN);
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
