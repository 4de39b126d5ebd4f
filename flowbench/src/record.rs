//! The run record: what one workload run measured and checked, as one
//! JSON line.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use ind101_netlist::{parse_json, Value};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Median (or the single measured value).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
    /// First quartile of the samples.
    pub p25: f64,
    /// Third quartile of the samples.
    pub p75: f64,
}

impl Metric {
    /// A metric from a sample summary.
    #[must_use]
    pub fn from_summary(s: &Summary, unit: &str) -> Self {
        Self {
            value: s.median,
            unit: unit.to_owned(),
            n: s.n,
            p25: s.p25,
            p75: s.p75,
        }
    }

    /// A single value (a count, a ratio, one measurement).
    #[must_use]
    pub fn single(value: f64, unit: &str) -> Self {
        Self {
            value,
            unit: unit.to_owned(),
            n: 1,
            p25: value,
            p75: value,
        }
    }
}

/// What one workload run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations (iterations or jobs) attempted.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// Worst relative deviation of a checked output from its reference.
    pub max_rel_err: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

impl Record {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed operations over attempted ones.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full record as one JSON line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    obj(vec![
                        ("value", num(m.value)),
                        ("unit", Value::Str(m.unit.clone())),
                        ("n", num(m.n as f64)),
                        ("p25", num(m.p25)),
                        ("p75", num(m.p75)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", num(self.seed as f64)),
            ("trace", num(if self.traced { 1.0 } else { 0.0 })),
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("fail_ratio", num(self.fail_ratio())),
            ("max_rel_err", num(self.max_rel_err)),
            (
                "failures",
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }

    /// Parses a line written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = parse_json(line).map_err(|e| format!("record: {e}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record: missing `{k}`"));
        let number = |k: &str| {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("record: `{k}` must be a number"))
        };
        let mut metrics = BTreeMap::new();
        if let Some(Value::Obj(map)) = v.get("metrics") {
            for (name, m) in map {
                let f = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("record: metric `{name}` lacks `{k}`"))
                };
                metrics.insert(
                    name.clone(),
                    Metric {
                        value: f("value")?,
                        unit: m
                            .get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_owned(),
                        n: f("n")? as usize,
                        p25: f("p25")?,
                        p75: f("p75")?,
                    },
                );
            }
        }
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("record: `workload` must be a string")?
                .to_owned(),
            seed: number("seed")? as u64,
            traced: number("trace")? != 0.0,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            max_rel_err: number("max_rel_err")?,
            failures: field("failures")?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect(),
            metrics,
        })
    }

    /// The one-line result that ends a run's output: `correct`,
    /// `attempted`, `failed`, and every end-to-end metric (untraced) or
    /// every per-layer metric (traced) as `{"value", "unit"}`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let names = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics = names
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).map_or(0.0, |m| m.value);
                (
                    d.name.to_owned(),
                    obj(vec![
                        ("value", num(value)),
                        ("unit", Value::Str(d.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_result_line_is_complete() {
        let mut metrics = BTreeMap::new();
        metrics.insert("iter_s".to_owned(), Metric::single(1.2034, "s"));
        metrics.insert("peec_rc_s".to_owned(), Metric::single(0.1, "s"));
        let r = Record {
            workload: "table1_peec".to_owned(),
            seed: 3,
            traced: false,
            attempted: 12,
            failed: 0,
            max_rel_err: 0.0,
            failures: vec!["x".to_owned()],
            metrics,
        };
        assert_eq!(Record::from_json(&r.to_json()).unwrap(), r);
        let line = parse_json(&r.result_line()).unwrap();
        let m = line.get("metrics").unwrap();
        for d in END_TO_END {
            assert!(m.get(d.name).is_some(), "{}", d.name);
        }
        assert!(m.get("peec_rc_s").is_none());
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}
