//! Span self-time arithmetic, job-stream determinism, and agreement
//! between `BENCHMARK.json` and the metric catalog.

use flowbench::deck_serve::{JobStream, BATCH_JOBS};
use flowbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use flowbench::trace::{self_times, Span, Tracer};
use flowbench::WORKLOADS;
use ind101_netlist::{parse_json, Value};
use std::collections::BTreeSet;

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s",
        start_ns,
        end_ns,
        iter: 0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // root [0, 100] ⊃ a [10, 40], b [50, 90] ⊃ c [60, 70]
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(0), 50, 90),
        span(3, Some(2), 60, 70),
    ];
    let got: Vec<f64> = self_times(&spans)
        .iter()
        .map(|s| (s * 1e9).round())
        .collect();
    assert_eq!(got, vec![30.0, 30.0, 30.0, 10.0]);
    // Self times add up to the root's duration.
    assert_eq!(got.iter().sum::<f64>(), 100.0);
}

#[test]
fn tracer_self_times_cover_the_root() {
    let mut t = Tracer::new(true);
    t.span("iteration", |t| {
        t.span("a", |_| std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.span("b", |t| {
            t.span("c", |_| {
                std::hint::black_box((0..10_000u64).product::<u64>())
            })
        });
    });
    let selfs = t.self_times();
    let root = t.spans()[0].secs();
    assert!(selfs.iter().all(|s| *s >= 0.0));
    assert!((selfs.iter().sum::<f64>() - root).abs() <= 1e-9 * t.spans().len() as f64);
    let totals = t.totals_by_iter(|_| true);
    assert_eq!(
        totals.keys().copied().collect::<Vec<_>>(),
        vec!["a", "b", "c", "iteration"]
    );
}

#[test]
fn job_stream_is_seeded() {
    let take = |seed| {
        JobStream::new(seed)
            .take(3 * BATCH_JOBS)
            .collect::<Vec<_>>()
    };
    assert_eq!(take(7), take(7));
    assert_ne!(take(7), take(8));
}

#[test]
fn job_stream_batches_have_a_fixed_mix() {
    let jobs: Vec<_> = JobStream::new(3).take(4 * BATCH_JOBS).collect();
    let mut seen = BTreeSet::new();
    for (b, batch) in jobs.chunks(BATCH_JOBS).enumerate() {
        let repeats = batch.iter().filter(|j| j.repeat).count();
        if b > 0 {
            assert_eq!(repeats, 30, "batch {b}");
        }
        for j in batch {
            if j.repeat {
                assert!(seen.contains(&j.id), "repeat of an unseen job {}", j.id);
            } else {
                assert!(seen.insert(j.id), "fresh id {} reused", j.id);
            }
        }
    }
}

fn listed(bench: &Value, key: &str) -> Vec<(String, String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_owned(),
                d.unit.to_owned(),
                d.better.as_str().to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let text = include_str!("../../BENCHMARK.json");
    let bench = parse_json(text).unwrap();
    assert_eq!(listed(&bench, "end_to_end"), catalog(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), catalog(PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(Better::parse("higher"), Some(Better::Higher));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}
