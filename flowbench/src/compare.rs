//! `flowbench compare A.jsonl B.jsonl`: applies the benchmark's bounds
//! to every metric × workload of two result sets.
//!
//! A side's median and quartiles are taken across its runs of a
//! workload, or from the run's own samples when a set holds one run
//! per workload. A metric may worsen by its relative bound times A's
//! median, but never by less than an absolute floor for times. It is
//! `worse` when B's median is worse than A's by more than that, and
//! `unresolved` when A's own interquartile range already exceeds it. A
//! workload or metric that only one set reports is `missing`, which
//! fails the comparison like `worse`.

use crate::metrics::{Better, FLOW};
use crate::record::Record;
use crate::stats::{median, quartiles};
use ind101_netlist::{parse_json, Value};
use std::collections::BTreeSet;

/// A checked output may deviate from its reference by at most this
/// much before a set counts as worse.
pub const MAX_REL_ERR: f64 = 1e-6;

/// Smallest allowed worsening of a time metric, seconds: below this a
/// relative bound on a short time only measures timer and scheduler
/// noise.
pub const TIME_FLOOR_S: f64 = 0.005;

/// Smallest allowed worsening of `setup_s`, seconds.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// A metric's regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed relative worsening.
    pub bound: f64,
    /// Allowed absolute worsening, in the metric's unit, when that is
    /// larger than the relative one.
    pub floor: f64,
}

impl Bound {
    fn new(name: &str, unit: &str, better: Better, bound: f64) -> Self {
        let floor_s = if name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            TIME_FLOOR_S
        };
        let floor = match unit {
            "s" => floor_s,
            "ms" => floor_s * 1e3,
            _ => 0.0,
        };
        Self {
            name: name.to_owned(),
            better,
            bound,
            floor,
        }
    }

    /// How much worse than `median` a value may be.
    #[must_use]
    pub fn allowed(&self, median: f64) -> f64 {
        (self.bound * median.abs()).max(self.floor)
    }
}

/// Reads the end-to-end bounds from `BENCHMARK.json` and adds the
/// per-flow metrics, each with the bound of the end-to-end metric it
/// is a part of.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let root = parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: `end_to_end` must be a list")?;
    let mut out = Vec::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("BENCHMARK.json: metric without a name")?;
        let better = m
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::parse)
            .ok_or_else(|| format!("BENCHMARK.json: `{name}` needs better = lower|higher"))?;
        let bound = m
            .get("bound")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("BENCHMARK.json: `{name}` needs a numeric bound"))?;
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        out.push(Bound::new(name, unit, better, bound));
    }
    for d in FLOW {
        let bound = out
            .iter()
            .find(|b| b.name == d.moves)
            .ok_or_else(|| format!("BENCHMARK.json: no bound for `{}`", d.moves))?
            .bound;
        out.push(Bound::new(d.name, d.unit, d.better, bound));
    }
    Ok(out)
}

/// One side of a comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
}

/// The verdict on one metric × workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// A's own spread exceeds the bound.
    Unresolved,
    /// Reported by one set only: a workload that crashed or timed out,
    /// or a metric that disappeared. Counts as worse.
    Missing,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
            Self::Missing => "missing",
        }
    }

    /// Whether the row fails the comparison.
    #[must_use]
    pub fn fails(self) -> bool {
        matches!(self, Self::Worse | Self::Missing)
    }
}

/// Applies one bound to a pair of sides.
#[must_use]
pub fn verdict(a: &Side, b: &Side, bound: &Bound) -> Verdict {
    let allowed = bound.allowed(a.median);
    if (a.p75 - a.p25).abs() > allowed {
        return Verdict::Unresolved;
    }
    let worse = match bound.better {
        Better::Lower => b.median > a.median + allowed,
        Better::Higher => b.median < a.median - allowed,
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One compared metric × workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Set A (`None` when A does not report the metric).
    pub a: Option<Side>,
    /// Set B (`None` when B does not report the metric).
    pub b: Option<Side>,
    /// Bound applied.
    pub bound: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// Side statistics of `metric` over the untraced runs of `workload`.
/// With several runs, the quartiles are across runs. With one, they
/// come from the run's record: there `p25`/`p75` spread the statistic
/// over quarters of the run, and the whole run pins it down about
/// twice as tightly, so the side's interquartile range is half of
/// theirs, centred on the value.
fn side(set: &[Record], workload: &str, metric: &str) -> Option<Side> {
    let runs: Vec<&crate::record::Metric> = set
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.get(metric))
        .collect();
    match runs.as_slice() {
        [] => None,
        [one] => {
            let half_width = 0.25 * (one.p75 - one.p25);
            Some(Side {
                median: one.value,
                p25: one.value - half_width,
                p75: one.value + half_width,
            })
        }
        many => {
            let v: Vec<f64> = many.iter().map(|m| m.value).collect();
            let (p25, p75) = quartiles(&v)?;
            Some(Side {
                median: median(&v)?,
                p25,
                p75,
            })
        }
    }
}

/// Worst value of a per-run field over the untraced runs of `workload`,
/// or `None` when the set has no such run.
fn worst(set: &[Record], workload: &str, f: impl Fn(&Record) -> f64) -> Option<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .map(f)
        .reduce(f64::max)
}

/// Compares two result sets, one row per metric × workload that either
/// set reports, plus the correctness rows (`fail_ratio`: any increase
/// is worse; `max_rel_err`: worse above [`MAX_REL_ERR`]). A row with a
/// side missing is [`Verdict::Missing`].
#[must_use]
pub fn compare(a: &[Record], b: &[Record], bounds: &[Bound]) -> Vec<Row> {
    let workloads: BTreeSet<&str> = a
        .iter()
        .chain(b)
        .filter(|r| !r.traced)
        .map(|r| r.workload.as_str())
        .collect();
    let mut rows = Vec::new();
    for w in workloads {
        for bd in bounds {
            let (sa, sb) = (side(a, w, &bd.name), side(b, w, &bd.name));
            if sa.is_some() || sb.is_some() {
                rows.push(row(w, &bd.name, sa, sb, bd.bound, |x, y| verdict(x, y, bd)));
            }
        }
        let point = |v: f64| Side {
            median: v,
            p25: v,
            p75: v,
        };
        let worse_if = |worse: bool| if worse { Verdict::Worse } else { Verdict::Ok };
        let fail = |set| worst(set, w, Record::fail_ratio).map(point);
        rows.push(row(w, "fail_ratio", fail(a), fail(b), 0.0, |x, y| {
            worse_if(y.median > x.median)
        }));
        let err = |set| worst(set, w, |r| r.max_rel_err).map(point);
        rows.push(row(
            w,
            "max_rel_err",
            err(a),
            err(b),
            MAX_REL_ERR,
            |_, y| worse_if(y.median > MAX_REL_ERR),
        ));
    }
    rows
}

/// One row: `judge` decides when both sides are present.
fn row(
    workload: &str,
    metric: &str,
    a: Option<Side>,
    b: Option<Side>,
    bound: f64,
    judge: impl Fn(&Side, &Side) -> Verdict,
) -> Row {
    let verdict = match (&a, &b) {
        (Some(sa), Some(sb)) => judge(sa, sb),
        _ => Verdict::Missing,
    };
    Row {
        workload: workload.to_owned(),
        metric: metric.to_owned(),
        a,
        b,
        bound,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, p25: f64, p75: f64) -> Side {
        Side { median, p25, p75 }
    }

    #[test]
    fn verdicts() {
        let lower = Bound::new("iter_s", "s", Better::Lower, 0.1);
        let higher = Bound::new("jobs_per_s", "1/s", Better::Higher, 0.1);
        let a = s(1.0, 0.99, 1.01);
        assert_eq!(verdict(&a, &s(1.05, 1.0, 1.1), &lower), Verdict::Ok);
        assert_eq!(verdict(&a, &s(1.2, 1.1, 1.3), &lower), Verdict::Worse);
        assert_eq!(verdict(&a, &s(0.8, 0.7, 0.9), &higher), Verdict::Worse);
        assert_eq!(verdict(&s(1.0, 0.8, 1.2), &a, &lower), Verdict::Unresolved);
    }

    #[test]
    fn short_times_get_an_absolute_floor() {
        // 2 ms → 6 ms is +200 %, but within the 5 ms floor.
        let ms = Bound::new("job_latency_ms.p50", "ms", Better::Lower, 0.1);
        let a = s(2.0, 1.9, 2.1);
        assert_eq!(verdict(&a, &s(6.0, 5.9, 6.1), &ms), Verdict::Ok);
        assert_eq!(verdict(&a, &s(7.5, 7.4, 7.6), &ms), Verdict::Worse);
        let setup = Bound::new("setup_s", "s", Better::Lower, 0.25);
        assert_eq!(setup.allowed(0.006), SETUP_FLOOR_S);
        assert_eq!(setup.allowed(1.0), 0.25);
        // Counts and ratios have no floor.
        let count = Bound::new("jobs_per_s", "1/s", Better::Higher, 0.1);
        assert_eq!(count.allowed(100.0), 10.0);
    }

    fn record(workload: &str, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_owned(),
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            max_rel_err: 0.0,
            failures: Vec::new(),
            metrics: metrics
                .iter()
                .map(|&(n, v)| ((*n).to_owned(), crate::record::Metric::single(v, "s")))
                .collect(),
        }
    }

    fn verdicts_of(rows: &[Row], workload: &str) -> Vec<(String, Verdict)> {
        rows.iter()
            .filter(|r| r.workload == workload)
            .map(|r| (r.metric.clone(), r.verdict))
            .collect()
    }

    #[test]
    fn a_workload_or_metric_on_one_side_only_is_missing() {
        let bounds = [Bound::new("iter_s", "s", Better::Lower, 0.1)];
        let a = [
            record("loop_rl", &[("iter_s", 0.5)]),
            record("deck_serve", &[("iter_s", 0.6)]),
            record("sec4_sparsify", &[("iter_s", 6.0)]),
        ];
        // deck_serve crashed in B, and sec4_sparsify lost `iter_s`.
        let b = [
            record("loop_rl", &[("iter_s", 0.5)]),
            record("sec4_sparsify", &[]),
        ];
        let rows = compare(&a, &b, &bounds);
        let missing = |m: &str| (m.to_owned(), Verdict::Missing);
        assert_eq!(
            verdicts_of(&rows, "deck_serve"),
            vec![
                missing("iter_s"),
                missing("fail_ratio"),
                missing("max_rel_err")
            ]
        );
        assert_eq!(verdicts_of(&rows, "sec4_sparsify")[0], missing("iter_s"));
        assert!(verdicts_of(&rows, "loop_rl")
            .iter()
            .all(|(_, v)| *v == Verdict::Ok));
        // A workload only B ran is missing too.
        let rows = compare(&b, &a, &bounds);
        assert_eq!(verdicts_of(&rows, "deck_serve")[0], missing("iter_s"));
        assert!(rows.iter().any(|r| r.verdict.fails()));
    }

    #[test]
    fn one_run_spreads_half_as_much_as_its_quarters() {
        let mut r = record("loop_rl", &[("iter_s", 1.0)]);
        if let Some(m) = r.metrics.get_mut("iter_s") {
            (m.p25, m.p75) = (0.5, 1.5);
        }
        assert_eq!(side(&[r], "loop_rl", "iter_s"), Some(s(1.0, 0.75, 1.25)));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let b = bounds(text).unwrap();
        let setup = b.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.bound > 0.0 && setup.bound <= 0.25);
        assert_eq!(setup.floor, SETUP_FLOOR_S);
        let bound_of = |name: &str| b.iter().find(|b| b.name == name).unwrap().bound;
        assert_eq!(bound_of("peec_rc_s"), bound_of("iter_s"));
    }
}
