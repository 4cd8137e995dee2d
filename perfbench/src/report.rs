//! The run's result: named metrics with units, op counts, and the detail
//! record printed ahead of the final JSON line.

use fsi_runtime::trace::Json;

/// Metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    not_applicable: Vec<String>,
}

impl Metrics {
    /// Records `name = value unit`. A non-finite value (a ratio over zero
    /// events) is recorded as not applicable.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.entries.push((name, value, unit));
        } else {
            self.na(name, unit);
        }
    }

    /// Records a metric the workload does not exercise: reported as 0 and
    /// listed under `not_applicable` in the detail record.
    pub fn na(&mut self, name: impl Into<String>, unit: &'static str) {
        let name = name.into();
        self.entries.push((name.clone(), 0.0, unit));
        self.not_applicable.push(name);
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Names of all recorded metrics.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// Names recorded as not applicable.
    pub fn not_applicable(&self) -> &[String] {
        &self.not_applicable
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*v)),
                            ("unit".into(), Json::Str((*u).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Everything one run prints.
pub struct RunResult {
    /// Every op passed its check and every self-check held.
    pub correct: bool,
    /// Ops attempted in the measured phase(s).
    pub attempted: u64,
    /// Ops that errored or failed their reference check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Free-form detail: fingerprint, sample counts, ledger, failures.
    pub detail: Vec<(String, Json)>,
}

impl RunResult {
    /// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted)),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), self.metrics.to_json()),
        ])
        .to_string()
    }

    /// The detail record, one JSON line.
    pub fn detail_line(&self) -> String {
        let mut d = self.detail.clone();
        d.push((
            "not_applicable".into(),
            Json::Arr(
                self.metrics
                    .not_applicable()
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ));
        Json::Obj(d).to_string()
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.metrics.entries {
            let na = if self.metrics.not_applicable.contains(n) {
                "  (n/a)"
            } else {
                ""
            };
            out.push_str(&format!("  {n:<34} {v:>16.6} {u}{na}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 3.25, "1/s");
        m.set("ratio", f64::NAN, "ratio");
        m.na("absent", "s");
        let r = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: m,
            detail: vec![],
        };
        let j = Json::parse(&r.summary_line()).unwrap();
        let Json::Obj(kv) = &j else { panic!() };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let ops = j.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(3.25));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(r.metrics.not_applicable(), ["ratio", "absent"]);
        let d = Json::parse(&r.detail_line()).unwrap();
        assert_eq!(
            d.get("not_applicable").unwrap().as_array().unwrap().len(),
            2
        );
    }
}
