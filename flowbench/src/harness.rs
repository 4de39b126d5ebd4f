//! The measurement loop shared by every workload: repeated set-up, a
//! warm-up, timed iterations for a fixed wall-clock budget, output
//! checks, and (traced runs) probes and per-layer metrics.

use crate::metrics::{FLOW, PER_LAYER};
use crate::record::{Metric, Record};
use crate::reference::{
    parse_reference, rel_err, Output, Reference, CANONICAL_SEED, REFERENCE_JSON,
};
use crate::stats::{median, quarter, quartered, quartiles, summarize, Summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Iteration ids at and above this tag set-up runs (set-up `k` is
/// `SETUP_ITER + k`).
pub const SETUP_ITER: usize = 1 << 40;
/// Iteration ids at and above this tag probe repetitions (probe
/// repetition `k` is `PROBE_ITER + k`).
pub const PROBE_ITER: usize = 1 << 41;

/// Failure messages kept per run (the count is always exact).
const MAX_REPORTED_FAILURES: usize = 8;

/// After each timed iteration the run builds and drops fresh inputs
/// until it has spent this share of the iteration's wall time on them
/// (at least once), so the `setup_s` samples spread over the whole run
/// and cost about 1 % of it.
const SETUP_SHARE: f64 = 0.01;

/// How one workload run is measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget for the timed iterations, seconds (at least
    /// one iteration always runs). A run with no budget also skips the
    /// warm-up.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced iterations, then run
    /// the probes, and report per-layer metrics.
    pub traced: bool,
}

impl RunConfig {
    /// One set-up and one iteration, no warm-up: the tests' setting.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            seconds: 0.0,
            traced: false,
        }
    }
}

/// Tally of checked operations.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    max_rel_err: f64,
    failures: Vec<String>,
    current_failed: bool,
}

impl Checks {
    /// Starts a new operation (an iteration or a job).
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.current_failed = false;
    }

    /// Marks the current operation failed.
    pub fn fail(&mut self, what: String) {
        if !self.current_failed {
            self.failed += 1;
            self.current_failed = true;
        }
        if self.failures.len() < MAX_REPORTED_FAILURES {
            self.failures.push(what);
        }
    }

    /// Fails the current operation unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Compares `got` with `want` to relative tolerance `rtol`,
    /// recording the deviation.
    pub fn close(&mut self, key: &str, got: f64, want: f64, rtol: f64) {
        let e = rel_err(got, want);
        self.max_rel_err = self.max_rel_err.max(e);
        if e > rtol {
            self.fail(format!("{key}: got {got:e}, want {want:e} (rtol {rtol:e})"));
        }
    }
}

/// What a workload iteration works with.
pub struct Ctx {
    /// Span recorder (enabled on traced iterations, set-up and probes
    /// of a traced run).
    pub tr: Tracer,
    /// Check tally.
    pub checks: Checks,
    seed: u64,
    workload: &'static str,
    reference: Reference,
    first: Option<Vec<Output>>,
    sampling: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ctx {
    fn new(workload: &'static str, seed: u64) -> Result<Self, String> {
        Ok(Self {
            tr: Tracer::new(false),
            checks: Checks::default(),
            seed,
            workload,
            reference: parse_reference(REFERENCE_JSON)?,
            first: None,
            sampling: false,
            samples: BTreeMap::new(),
        })
    }

    /// Records one sample of a per-flow metric or a stage
    /// ([`Workload::STAGES`]). Only untraced timed iterations keep
    /// samples.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.sampling && !self.tr.enabled() {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Whether the current iteration is a timed one (not the warm-up).
    #[must_use]
    pub fn timed(&self) -> bool {
        self.sampling
    }

    /// The samples recorded for `name`.
    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Checks one iteration's outputs: against `reference.json` on the
    /// canonical seed, against `invariants` on any other, and against
    /// the run's first iteration on every seed (the flows are
    /// deterministic, so a repeat must reproduce every bit).
    pub fn check_outputs(
        &mut self,
        outs: Vec<Output>,
        invariants: impl FnOnce(&[Output], &mut Checks),
    ) {
        if self.seed == CANONICAL_SEED {
            for o in &outs {
                let key = format!("{}.{}", self.workload, o.key);
                match self.reference.get(&key) {
                    Some(&(want, rtol)) => self.checks.close(&key, o.value, want, rtol),
                    None => self.checks.fail(format!("{key}: no reference value")),
                }
            }
        } else {
            invariants(&outs, &mut self.checks);
        }
        match &self.first {
            None => self.first = Some(outs),
            Some(first) => {
                let same_keys = first.len() == outs.len()
                    && first.iter().zip(&outs).all(|(a, b)| a.key == b.key);
                if same_keys {
                    for (a, b) in first.iter().zip(&outs) {
                        let e = rel_err(b.value, a.value);
                        if e > 0.0 && !(a.value.is_nan() && b.value.is_nan()) {
                            self.checks.fail(format!(
                                "{}: iteration differs from the first ({e:e})",
                                b.key
                            ));
                        }
                    }
                } else {
                    self.checks
                        .fail("outputs changed shape between iterations".to_owned());
                }
            }
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Workload name.
    const NAME: &'static str;

    /// Whether a run starts with one untimed iteration. A workload
    /// whose iterations keep no state between them and fill no cache
    /// has nothing to warm up.
    const WARMUP: bool;

    /// Names of the samples ([`Ctx::sample`]) that split an iteration
    /// into consecutive stages. With stages, `iter_s` is the sum of the
    /// stage medians, so a short slowdown of the host spoils one stage
    /// sample rather than a whole iteration. Without, it is the median
    /// of the iteration times.
    const STAGES: &'static [&'static str] = &[];

    /// Builds the inputs for `seed`. Calls into a layer are spans of
    /// `tr` (recorded on traced runs).
    ///
    /// # Errors
    ///
    /// A message when an input cannot be built.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;

    /// Runs one iteration and returns the time it counts towards
    /// `iter_s`, seconds on `ctx.tr`'s clock. Every end-to-end time is
    /// read off that clock ([`crate::clock`]).
    fn iteration(&mut self, ctx: &mut Ctx) -> f64;

    /// Traced runs only, after the timed iterations: extra layer
    /// measurements tagged with [`PROBE_ITER`] ids.
    fn probes(&mut self, _ctx: &mut Ctx) {}

    /// Adds workload-specific metrics to the record.
    fn finish(&self, _traced: bool, _metrics: &mut BTreeMap<String, Metric>) {}
}

/// A finished run: the record, plus the recorder for the trace file.
pub struct Run {
    /// What was measured and checked.
    pub record: Record,
    /// The run's spans (empty unless traced).
    pub tracer: Tracer,
    /// Outputs of the first checked iteration.
    pub outputs: Vec<Output>,
}

/// Measures one workload.
///
/// # Errors
///
/// A message when set-up fails (iteration failures are counted in the
/// record instead).
pub fn run<W: Workload>(cfg: &RunConfig) -> Result<Run, String> {
    let mut ctx = Ctx::new(W::NAME, cfg.seed)?;
    ctx.tr.set_enabled(cfg.traced);
    // The instance the iterations use comes from an untimed set-up.
    // The timed set-ups build and drop instances of their own after
    // each timed iteration (see `SETUP_SHARE`).
    ctx.tr.set_iter(SETUP_ITER);
    let mut work = W::setup(cfg.seed, &mut ctx.tr)?;
    let mut setup_s = Vec::new();

    if W::WARMUP && cfg.seconds > 0.0 {
        ctx.tr.set_enabled(false);
        work.iteration(&mut ctx);
    }

    ctx.sampling = true;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut peak_mb = None;
    let start = Instant::now();
    for i in 0.. {
        let on = cfg.traced && i % 2 == 1;
        ctx.tr.set_enabled(on);
        ctx.tr.set_iter(i);
        let wall = Instant::now();
        let root = ctx.tr.enter("iteration");
        let t = work.iteration(&mut ctx);
        ctx.tr.exit(root);
        let wall = wall.elapsed().as_secs_f64();
        // Peak memory over a fixed amount of work — set-up, warm-up and
        // one iteration — so it does not depend on how many iterations
        // fit in the time budget.
        if i == 0 {
            peak_mb = peak_rss_mb();
        }
        if on {
            traced.push(t);
        } else {
            plain.push(t);
        }
        let mut spent = timed_setup::<W>(&mut ctx, cfg, &mut setup_s)?;
        while spent < SETUP_SHARE * wall {
            spent += timed_setup::<W>(&mut ctx, cfg, &mut setup_s)?;
        }
        // Stop at the iteration count whose total is nearest the budget:
        // a run of few long iterations neither drops one that mostly
        // fits nor overruns by a whole one.
        let both = !cfg.traced || !traced.is_empty();
        if both && start.elapsed().as_secs_f64() + 0.5 * wall > cfg.seconds {
            break;
        }
    }
    ctx.sampling = false;

    if cfg.traced {
        ctx.tr.set_enabled(true);
        work.probes(&mut ctx);
    }

    let mut metrics = BTreeMap::new();
    if cfg.traced {
        layer_metrics(&ctx.tr, &mut metrics);
        if let (Some(t), Some(p)) = (median(&traced), median(&plain)) {
            metrics.insert("trace.overhead".to_owned(), Metric::single(t / p, "ratio"));
        }
        metrics.insert(
            "trace.coverage".to_owned(),
            Metric::single(coverage(&ctx.tr), "fraction"),
        );
    } else {
        // Untraced quartiles say how well the run pins each median down
        // (see `quartered`), which is what `compare` needs.
        if let Some(s) = quartered(&setup_s, median) {
            metrics.insert("setup_s".to_owned(), Metric::from_summary(&s, "s"));
        }
        let iter = if W::STAGES.is_empty() {
            quartered(&plain, median)
        } else {
            stage_sum(&ctx, W::STAGES)
        };
        if let Some(s) = iter {
            metrics.insert("iter_s".to_owned(), Metric::from_summary(&s, "s"));
        }
        if let Some(mb) = peak_mb {
            metrics.insert("peak_rss_mb".to_owned(), Metric::single(mb, "MiB"));
        }
        if let Some(s) = quartered(ctx.tr.clock().slowness(), median) {
            metrics.insert(
                "clock.slowness".to_owned(),
                Metric::from_summary(&s, "ratio"),
            );
        }
        let flow = FLOW.iter().map(|d| (d.name, d.unit));
        for (name, unit) in flow.chain(W::STAGES.iter().map(|&s| (s, "s"))) {
            if let Some(s) = quartered(ctx.samples(name), median) {
                metrics.insert(name.to_owned(), Metric::from_summary(&s, unit));
            }
        }
    }
    work.finish(cfg.traced, &mut metrics);
    if cfg.traced {
        for d in PER_LAYER {
            metrics
                .entry(d.name.to_owned())
                .or_insert_with(|| Metric::single(0.0, d.unit));
        }
    }

    let record = Record {
        workload: W::NAME.to_owned(),
        seed: cfg.seed,
        traced: cfg.traced,
        attempted: ctx.checks.attempted,
        failed: ctx.checks.failed,
        max_rel_err: ctx.checks.max_rel_err,
        failures: ctx.checks.failures.clone(),
        metrics,
    };
    let outputs = ctx.first.take().unwrap_or_default();
    Ok(Run {
        record,
        tracer: ctx.tr,
        outputs,
    })
}

/// The sum of the stages' medians, with quartiles over the iterations'
/// interleaved quarters as in [`quartered`]; `None` when a stage has no
/// samples. Every iteration samples every stage once, so a stage's
/// `k`-th quarter comes from the same iterations as any other's.
fn stage_sum(ctx: &Ctx, stages: &[&str]) -> Option<Summary> {
    let sum = |part: &dyn Fn(&[f64]) -> Vec<f64>| -> Option<f64> {
        stages.iter().map(|s| median(&part(ctx.samples(s)))).sum()
    };
    let parts: Vec<f64> = (0..4).filter_map(|k| sum(&|xs| quarter(xs, k))).collect();
    let (p25, p75) = quartiles(&parts)?;
    Some(Summary {
        median: sum(&<[f64]>::to_vec)?,
        p25,
        p75,
        n: ctx.samples(stages.first()?).len(),
    })
}

/// Builds and drops one workload instance, recording and returning the
/// time on the tracer's clock, seconds.
fn timed_setup<W: Workload>(
    ctx: &mut Ctx,
    cfg: &RunConfig,
    setup_s: &mut Vec<f64>,
) -> Result<f64, String> {
    ctx.tr.set_enabled(cfg.traced);
    ctx.tr.set_iter(SETUP_ITER + 1 + setup_s.len());
    let t0 = ctx.tr.now();
    let instance = W::setup(cfg.seed, &mut ctx.tr)?;
    let secs = ctx.tr.now() - t0;
    setup_s.push(secs);
    drop(instance);
    Ok(secs)
}

/// Which phase an iteration id belongs to: timed iterations first,
/// then set-up runs, then probe repetitions.
fn phase(iter: usize) -> usize {
    if iter >= PROBE_ITER {
        2
    } else if iter >= SETUP_ITER {
        1
    } else {
        0
    }
}

/// Per-layer metrics that follow from spans and counters by name: a
/// metric `<span>.s` or `<span>.ms` is the median, over the iterations
/// of the first phase that called the layer, of the per-iteration total
/// time in spans named `<span>`; a `count` metric is the median of the
/// per-iteration counter total of the same name.
fn layer_metrics(tr: &Tracer, out: &mut BTreeMap<String, Metric>) {
    for p in 0..3 {
        let in_phase = |i: usize| phase(i) == p;
        let times = tr.totals_by_iter(in_phase);
        let counts = tr.counts_by_iter(in_phase);
        for d in PER_LAYER {
            if out.contains_key(d.name) {
                continue;
            }
            let (per_iter, scale) = match d.unit {
                "s" | "ms" => {
                    let suffix = format!(".{}", d.unit);
                    let Some(base) = d.name.strip_suffix(suffix.as_str()) else {
                        continue;
                    };
                    let scale = if d.unit == "ms" { 1e3 } else { 1.0 };
                    (times.get(base), scale)
                }
                "count" => (counts.get(d.name), 1.0),
                _ => continue,
            };
            let Some(per_iter) = per_iter else { continue };
            let values: Vec<f64> = per_iter.values().map(|v| v * scale).collect();
            if let Some(s) = summarize(&values) {
                out.insert(d.name.to_owned(), Metric::from_summary(&s, d.unit));
            }
        }
    }
}

/// Smallest share, over traced iterations, of the iteration's wall time
/// that its layer spans cover (1 − the root span's self time share).
fn coverage(tr: &Tracer) -> f64 {
    let selfs = tr.self_times();
    tr.spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == "iteration")
        .map(|(s, self_s)| {
            if s.secs() > 0.0 {
                1.0 - self_s / s.secs()
            } else {
                1.0
            }
        })
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
