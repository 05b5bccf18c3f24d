//! The result document: the one-line JSON object that ends every run.

use xbc_sim::json::escape;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Doc {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted (cells in sweeps, requests in `serve_mix`).
    pub attempted: u64,
    /// Ops that errored, were refused or failed the output check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; JSON has no NaN or infinity, so those read as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl Doc {
    /// The document as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(m.name),
                    number(m.value),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_sim::json::Json;

    #[test]
    fn document_round_trips_through_the_in_tree_parser() {
        let doc = Doc {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                metric("latency_ms", 1.2034567891234, "ms"),
                metric("setup_s", 0.8127, "s"),
                metric("muops_per_s", 31.25, "Muops/s"),
                metric("tiny", 1.5e-7, "count"),
                metric("nan", f64::NAN, "count"),
            ],
        };
        let text = doc.to_json();
        assert!(!text.contains('\n'));
        let j = Json::parse(&text).expect("valid JSON");
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(1234));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
        let m = j.get("metrics").expect("metrics");
        for want in &doc.metrics {
            let got = m.get(want.name).expect("metric present");
            let value = got.get("value").and_then(Json::as_f64).expect("numeric value");
            if want.value.is_finite() {
                assert_eq!(value, want.value, "{} keeps all its digits", want.name);
            } else {
                assert_eq!(value, 0.0);
            }
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
        }
        let Json::Obj(fields) = &j else { panic!("top level is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
