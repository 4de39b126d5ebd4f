//! `sec4_sparsify`: the Section-4 sparsification study.
//!
//! Part A compares the paper's sparsifiers on the Medium clock/grid
//! partial-inductance matrix, each followed by the eigenvalue stability
//! report and the Cholesky passivity audit. Part B reproduces the
//! paper's warning on a long tightly coupled bus: relative truncation
//! destroys positive definiteness and the transient generates energy.
//!
//! Almost all the time is sparsify, eigen and verify. The PEEC
//! transient of each sparsified matrix is left out on purpose (it is
//! `table1_peec`'s layer). Large scale is excluded: there
//! `shell_auto_radius` alone takes minutes.

use crate::geometry::{ClockCase, ClockGeometry};
use crate::harness::{Checks, Ctx, Workload};
use crate::record::Metric;
use crate::reference::{exact, val, Output};
use crate::trace::Tracer;
use ind101_circuit::{Circuit, CircuitError, InductorSystem, SourceWave, TranOptions};
use ind101_core::PeecParasitics;
use ind101_extract::PartialInductance;
use ind101_geom::generators::{generate_bus, BusSpec};
use ind101_geom::{um, Technology};
use ind101_numeric::Matrix;
use ind101_sparsify::block_diagonal::{block_diagonal, sections_by_signal_distance};
use ind101_sparsify::halo::halo_sparsify;
use ind101_sparsify::hierarchical::hierarchical_sparsify;
use ind101_sparsify::kmatrix::k_sparsify;
use ind101_sparsify::shell::shell_auto_radius;
use ind101_sparsify::truncation::truncate_relative;
use ind101_sparsify::{matrix_error, stability_report, Sparsified};
use ind101_verify::{audit_sparsified, MatrixAuditConfig};
use std::collections::BTreeMap;

/// Part A truncation thresholds; the one nearest 50 % retention is
/// kept.
pub const TRUNC_SCAN: [f64; 5] = [0.05, 0.1, 0.2, 0.3, 0.4];
const TRUNC_TARGET_RETENTION: f64 = 0.5;
/// Block-diagonal / hierarchical sections by distance from the clock.
const SECTIONS: usize = 3;
/// Shell radius search: stop at this retention.
const SHELL_MAX_RETENTION: f64 = 0.6;
/// K-matrix truncation threshold.
const K_MIN: f64 = 0.02;
/// Part B truncation thresholds, scanned until one loses definiteness.
const BUS_TRUNC_SCAN: [f64; 6] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
/// Part B blow-up criterion: truncated peak over full-matrix peak.
const BLOW_UP_RATIO: f64 = 10.0;
/// Part B transient: step and stop time, seconds.
const BUS_DT_S: f64 = 1e-12;
const BUS_T_STOP_S: f64 = 2e-9;
/// Part B bus stimulus: 0 → 1.8 V step, delay and rise time, seconds.
const BUS_EDGE_S: f64 = 20e-12;
const BUS_VDD: f64 = 1.8;
/// Part B terminations: near-end resistance, far-end load and leak.
const BUS_NEAR_OHM: f64 = 25.0;
const BUS_FAR_CAP_F: f64 = 50e-15;
const BUS_LEAK_OHM: f64 = 1e6;

/// The Section-4 Part-B bus: 10 signals, 3 mm long, 1 µm spacing.
#[must_use]
pub fn bus_spec() -> BusSpec {
    BusSpec {
        signals: 10,
        length_nm: um(3000),
        spacing_nm: um(1),
        ..BusSpec::default()
    }
}

/// Part B's coupled-bus circuit over inductance matrix `m`: a step into
/// wire 0, every wire terminated near and loaded far. Returns the
/// circuit and the far-end nodes.
///
/// # Errors
///
/// [`CircuitError::BadInductorSystem`] when `m` is not symmetric with a
/// positive diagonal.
pub fn bus_circuit(
    m: &Matrix<f64>,
    ac_mag: f64,
) -> Result<(Circuit, Vec<ind101_circuit::NodeId>), CircuitError> {
    let mut c = Circuit::new();
    let stim = c.node("stim");
    c.vsrc_ac(
        stim,
        Circuit::GND,
        SourceWave::step(0.0, BUS_VDD, BUS_EDGE_S, BUS_EDGE_S),
        ac_mag,
    );
    let mut branches = Vec::with_capacity(m.nrows());
    let mut far_nodes = Vec::with_capacity(m.nrows());
    for k in 0..m.nrows() {
        let near = c.node(format!("near{k}"));
        let far = c.node(format!("far{k}"));
        branches.push((near, far));
        far_nodes.push(far);
        c.capacitor(far, Circuit::GND, BUS_FAR_CAP_F);
        if k == 0 {
            c.resistor(stim, near, BUS_NEAR_OHM);
        } else {
            c.resistor(near, Circuit::GND, BUS_NEAR_OHM);
        }
        c.resistor(far, Circuit::GND, BUS_LEAK_OHM);
    }
    c.add_inductor_system(InductorSystem {
        branches,
        m: m.clone(),
    })?;
    Ok((c, far_nodes))
}

/// Part A's sparsified matrices, in report order.
pub struct PartA {
    /// Every truncation of the threshold scan, as `(threshold, result)`.
    pub scan: Vec<(f64, Sparsified)>,
    /// Index into `scan` of the threshold nearest 50 % retention.
    pub chosen: usize,
    /// Block-diagonal, shell, halo and hierarchical results, tagged.
    pub others: Vec<(&'static str, Sparsified)>,
    /// Radius the shell search picked, meters.
    pub shell_r0_m: f64,
    /// K-matrix result: retention of K, and the effective L.
    pub k: Result<(f64, Sparsified), String>,
    /// Time of each method's sparsification on the tracer's clock,
    /// seconds, by tag.
    pub secs: Vec<(&'static str, f64)>,
}

/// Runs `f`, adding its time on `tr`'s clock to `secs` under `tag`.
fn timed<T>(
    tr: &mut Tracer,
    secs: &mut Vec<(&'static str, f64)>,
    tag: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> T {
    let t0 = tr.now();
    let out = f(tr);
    secs.push((tag, tr.now() - t0));
    out
}

/// Runs Part A's sparsifiers on the case's partial-inductance matrix.
pub fn part_a(tr: &mut Tracer, par: &PeecParasitics) -> PartA {
    let l = &par.partial_l;
    let mut secs = Vec::new();
    let scan: Vec<(f64, Sparsified)> = timed(tr, &mut secs, "truncation", |tr| {
        TRUNC_SCAN
            .iter()
            .map(|&k| {
                (
                    k,
                    tr.span("sparsify.truncate_relative", |_| truncate_relative(l, k)),
                )
            })
            .collect()
    });
    let chosen = scan
        .iter()
        .enumerate()
        .min_by(|a, b| {
            let da = (a.1 .1.stats.retention() - TRUNC_TARGET_RETENTION).abs();
            let db = (b.1 .1.stats.retention() - TRUNC_TARGET_RETENTION).abs();
            da.total_cmp(&db)
        })
        .map_or(0, |(i, _)| i);
    let (labels, bd) = timed(tr, &mut secs, "block_diagonal", |tr| {
        let labels = tr.span("sparsify.block_diagonal", |_| {
            sections_by_signal_distance(l, &par.layout, SECTIONS)
        });
        let bd = tr.span("sparsify.block_diagonal", |_| block_diagonal(l, &labels));
        (labels, bd)
    });
    let (shell_r0_m, shell) = timed(tr, &mut secs, "shell", |tr| {
        tr.span("sparsify.shell_auto_radius", |_| {
            shell_auto_radius(l, SHELL_MAX_RETENTION)
        })
    });
    let halo = timed(tr, &mut secs, "halo", |tr| {
        tr.span("sparsify.halo_sparsify", |_| halo_sparsify(l, &par.layout))
    });
    let hier = timed(tr, &mut secs, "hierarchical", |tr| {
        tr.span("sparsify.hierarchical_sparsify", |_| {
            hierarchical_sparsify(l, &labels)
        })
    });
    let k = timed(tr, &mut secs, "kmatrix", |tr| {
        tr.span("sparsify.k_sparsify", |_| k_sparsify(l, K_MIN))
    })
    .map(|ks| (ks.k_stats.retention(), ks.effective_l))
    .map_err(|e| format!("K-matrix sparsification: {e}"));
    PartA {
        secs,
        scan,
        chosen,
        others: vec![
            ("block_diagonal", bd),
            ("shell", shell),
            ("halo", halo),
            ("hierarchical", hier),
        ],
        shell_r0_m,
        k,
    }
}

/// Stability report and passivity audit of one sparsified matrix:
/// `(min eigenvalue, eigen verdict PD, audit verdict passive)`.
fn assess(tr: &mut Tracer, s: &Sparsified) -> (f64, bool, bool) {
    let rep = tr.span("sparsify.stability_report", |_| stability_report(&s.matrix));
    tr.count("sparsify.stability_report.calls", 1.0);
    let audit = tr.span("verify.audit_sparsified", |_| {
        audit_sparsified(s, &MatrixAuditConfig::default())
    });
    if !audit.passive {
        tr.count("verify.non_passive", 1.0);
    }
    (rep.min_eigenvalue, rep.positive_definite, audit.passive)
}

/// Peak |v| over the bus far ends with the mutuals stamped from `m`;
/// infinite when the circuit is rejected or the transient fails.
fn bus_peak(tr: &mut Tracer, m: &Matrix<f64>) -> f64 {
    let Ok((c, far)) = bus_circuit(m, 0.0) else {
        return f64::INFINITY;
    };
    match tr.span("circuit.transient.bus", |_| {
        c.transient(&TranOptions::new(BUS_DT_S, BUS_T_STOP_S))
    }) {
        Err(_) => f64::INFINITY,
        Ok(res) => far
            .iter()
            .map(|&f| {
                let v = res.voltage(f);
                v.max().abs().max(v.min().abs())
            })
            .fold(0.0, f64::max),
    }
}

/// The workload state.
pub struct Sec4 {
    case: ClockCase,
    tech: Technology,
}

impl Workload for Sec4 {
    const NAME: &'static str = "sec4_sparsify";
    // Every iteration recomputes the study from the extracted matrix; a
    // warm-up would only take one of the few iterations a run has time
    // for.
    const WARMUP: bool = false;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            case: ClockGeometry::medium(seed).extract(tr),
            tech: Technology::example_copper_6lm(),
        })
    }

    // A study takes seconds, so a run holds only a few. Timing each
    // method and Part B as a stage of its own gives `iter_s` medians
    // that one slow second of the host does not move.
    const STAGES: &'static [&'static str] = &[
        "sec4.truncation_s",
        "sec4.block_diagonal_s",
        "sec4.shell_s",
        "sec4.halo_s",
        "sec4.hierarchical_s",
        "sec4.kmatrix_s",
        "sec4.part_b_s",
    ];

    fn iteration(&mut self, ctx: &mut Ctx) -> f64 {
        ctx.checks.begin();
        let t0 = ctx.tr.now();
        let mut outs = Vec::new();
        let full = self.case.par.partial_l.matrix();

        // Part A: a stage per method, its sparsification plus its
        // assessment below.
        let a = part_a(&mut ctx.tr, &self.case.par);
        let mut stage_s: BTreeMap<&str, f64> = a.secs.iter().copied().collect();
        let mut assessed: Vec<(&str, &Sparsified, f64)> = Vec::new();
        if let Some((k, s)) = a.scan.get(a.chosen) {
            outs.push(val("trunc_threshold", *k));
            assessed.push(("truncation", s, s.stats.retention()));
        }
        for (tag, s) in &a.others {
            assessed.push((tag, s, s.stats.retention()));
        }
        match &a.k {
            Ok((k_retention, s)) => assessed.push(("kmatrix", s, *k_retention)),
            Err(e) => ctx.checks.fail(e.clone()),
        }
        outs.push(val("shell_r0_m", a.shell_r0_m));
        let mut mismatches = 0usize;
        let mut non_passive = 0usize;
        for (tag, s, retention) in assessed {
            let t = ctx.tr.now();
            let err = ctx
                .tr
                .span("sparsify.matrix_error", |_| matrix_error(full, &s.matrix));
            let (min_eig, pd, passive) = assess(&mut ctx.tr, s);
            *stage_s.entry(tag).or_default() += ctx.tr.now() - t;
            mismatches += usize::from(pd != passive);
            non_passive += usize::from(!passive);
            outs.push(val(format!("{tag}_retention"), retention));
            outs.push(val(format!("{tag}_error"), err));
            outs.push(val(format!("{tag}_min_eig_h"), min_eig));
            outs.push(exact(format!("{tag}_pd"), f64::from(u8::from(pd))));
        }

        // Part B.
        let part_b = ctx.tr.now();
        let bus = ctx.tr.span("extract.bus_inductance", |_| {
            let layout = generate_bus(&self.tech, &bus_spec());
            PartialInductance::extract(&self.tech, layout.segments())
        });
        let mut unstable = None;
        for k_min in BUS_TRUNC_SCAN {
            let s = ctx.tr.span("sparsify.truncate_relative", |_| {
                truncate_relative(&bus, k_min)
            });
            let rep = ctx
                .tr
                .span("sparsify.stability_report", |_| stability_report(&s.matrix));
            ctx.tr.count("sparsify.stability_report.calls", 1.0);
            if s.stats.dropped > 0 && !rep.positive_definite {
                unstable = Some((k_min, s, rep.min_eigenvalue));
                break;
            }
        }
        let full_peak = bus_peak(&mut ctx.tr, bus.matrix());
        outs.push(val("partb_full_peak_v", full_peak));
        match unstable {
            Some((k_min, s, min_eig)) => {
                let (_, pd, passive) = assess(&mut ctx.tr, &s);
                mismatches += usize::from(pd != passive);
                non_passive += usize::from(!passive);
                let trunc_peak = bus_peak(&mut ctx.tr, &s.matrix);
                outs.push(val("partb_threshold", k_min));
                outs.push(val("partb_retention", s.stats.retention()));
                outs.push(val("partb_min_eig_h", min_eig));
                let blows_up = trunc_peak.is_nan() || trunc_peak > BLOW_UP_RATIO * full_peak;
                outs.push(exact("partb_blows_up", f64::from(u8::from(blows_up))));
            }
            None => ctx
                .checks
                .fail("Part B: no truncation threshold lost definiteness".to_owned()),
        }
        stage_s.insert("part_b", ctx.tr.now() - part_b);
        outs.push(exact("non_passive", non_passive as f64));
        outs.push(exact("audit_cholesky_mismatches", mismatches as f64));
        let t = ctx.tr.now() - t0;
        for stage in Self::STAGES {
            let tag = stage.trim_start_matches("sec4.").trim_end_matches("_s");
            if let Some(&secs) = stage_s.get(tag) {
                ctx.sample(stage, secs);
            }
        }
        ctx.check_outputs(outs, invariants);
        t
    }

    fn finish(&self, traced: bool, metrics: &mut BTreeMap<String, Metric>) {
        // The study is the whole iteration.
        if let (false, Some(iter)) = (traced, metrics.get("iter_s")) {
            metrics.insert("sec4_study_s".to_owned(), iter.clone());
        }
    }
}

/// Seeds without reference values: Part B's truncation must lose
/// definiteness and blow up the transient, and every audit verdict must
/// match the eigenvalue verdict.
fn invariants(outs: &[Output], checks: &mut Checks) {
    let get = |key: &str| outs.iter().find(|o| o.key == key).map(|o| o.value);
    checks.expect(get("partb_blows_up") == Some(1.0), || {
        format!("Part B truncated transient must exceed {BLOW_UP_RATIO}× the full-matrix peak")
    });
    checks.expect(get("audit_cholesky_mismatches") == Some(0.0), || {
        "a passivity audit disagrees with the eigenvalue verdict".to_owned()
    });
    checks.expect(get("partb_min_eig_h").is_some_and(|e| e <= 0.0), || {
        "Part B truncation kept the bus matrix positive definite".to_owned()
    });
}
