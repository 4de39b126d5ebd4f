//! `table1_peec`: the three PEEC rows of Table 1 on the Medium clock
//! net — PEEC (RC), PEEC (RLC) and the block-diagonal accelerated RLC.
//!
//! Almost all the time is `Circuit::transient`: MNA stamping and the
//! per-step solves. RC takes the sparse/banded solver rung and RLC the
//! dense one, so the same layer is exercised two ways. Loop extraction,
//! the deck frontend and the server stay idle.

use crate::flows::{accel_flow, peec_flow, testbench_spec, FlowOut, DT_S};
use crate::geometry::{receiver_cap_f, ClockCase, ClockGeometry};
use crate::harness::{Checks, Ctx, Workload, PROBE_ITER};
use crate::reference::{exact, val, Output};
use crate::trace::Tracer;
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::InductanceMode;
use ind101_numeric::{SparseLu, SymbolicLu, Triplets};
use std::sync::Arc;

/// Transient steps per fixed-step flow (900 ps at 2 ps).
const STEPS_PER_FLOW: f64 = 450.0;
/// Repetitions of each numeric-probe call (the reported time is the
/// median).
const PROBE_REPEATS: usize = 5;
/// Residual bound for the probe's sparse solve, relative to `‖b‖∞`.
const PROBE_RESIDUAL_TOL: f64 = 1e-9;
/// Thévenin output resistance of the probe's linear testbench, ohms.
const PROBE_R_OUT_OHM: f64 = 50.0;

/// The workload state.
pub struct Table1 {
    case: ClockCase,
    spec: TestbenchSpec,
}

impl Workload for Table1 {
    const NAME: &'static str = "table1_peec";
    const WARMUP: bool = true;
    const STAGES: &'static [&'static str] = &["peec_rc_s", "peec_rlc_s", "peec_accel_s"];

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            case: ClockGeometry::medium(seed).extract(tr),
            spec: testbench_spec(receiver_cap_f(seed)),
        })
    }

    fn iteration(&mut self, ctx: &mut Ctx) -> f64 {
        ctx.checks.begin();
        let t0 = ctx.tr.now();
        let rc = peec_flow(
            &mut ctx.tr,
            &self.case.par,
            InductanceMode::None,
            &self.spec,
            "circuit.transient.rc",
        );
        let t1 = ctx.tr.now();
        let rlc = peec_flow(
            &mut ctx.tr,
            &self.case.par,
            InductanceMode::Full,
            &self.spec,
            "circuit.transient.rlc",
        );
        let t2 = ctx.tr.now();
        let accel = accel_flow(&mut ctx.tr, &self.case, &self.spec);
        let t3 = ctx.tr.now();
        ctx.sample("peec_rc_s", t1 - t0);
        ctx.sample("peec_rlc_s", t2 - t1);
        ctx.sample("peec_accel_s", t3 - t2);
        match (rc, rlc, accel) {
            (Ok(rc), Ok(rlc), Ok(accel)) => {
                ctx.check_outputs(outputs(&rc, &rlc, &accel), invariants);
            }
            (rc, rlc, accel) => {
                for e in [rc.err(), rlc.err(), accel.err()].into_iter().flatten() {
                    ctx.checks.fail(e);
                }
            }
        }
        t3 - t0
    }

    fn probes(&mut self, ctx: &mut Ctx) {
        for (mode, tag) in [
            (InductanceMode::None, Probe::Rc),
            (InductanceMode::Full, Probe::Rlc),
        ] {
            if let Err(e) = numeric_probe(&mut ctx.tr, &mut ctx.checks, &self.case, mode, tag) {
                ctx.checks.fail(format!("numeric probe: {e}"));
            }
        }
    }
}

/// The checked outputs of one iteration.
fn outputs(rc: &FlowOut, rlc: &FlowOut, accel: &FlowOut) -> Vec<Output> {
    vec![
        val("peec_rc_delay_s", rc.worst_delay_s),
        val("peec_rc_skew_s", rc.worst_skew_s),
        val("peec_rlc_delay_s", rlc.worst_delay_s),
        val("peec_rlc_skew_s", rlc.worst_skew_s),
        val("accel_delay_s", accel.worst_delay_s),
        val("accel_skew_s", accel.worst_skew_s),
        exact("peec_rlc_mutuals", rlc.mutuals as f64),
        exact("accel_mutuals", accel.mutuals as f64),
        exact("steps", (rc.steps + rlc.steps + accel.steps) as f64),
        exact(
            "rejected",
            (rc.rejected + rlc.rejected + accel.rejected) as f64,
        ),
    ]
}

fn get(outs: &[Output], key: &str) -> f64 {
    outs.iter()
        .find(|o| o.key == key)
        .map_or(f64::NAN, |o| o.value)
}

/// Physical invariants for seeds without reference values: inductance
/// adds delay (RLC slower than RC), every delay is a positive finite
/// time, and each fixed-step flow takes exactly its 450 steps.
fn invariants(outs: &[Output], checks: &mut Checks) {
    let rc = get(outs, "peec_rc_delay_s");
    let rlc = get(outs, "peec_rlc_delay_s");
    let accel = get(outs, "accel_delay_s");
    for (name, d) in [("rc", rc), ("rlc", rlc), ("accel", accel)] {
        checks.expect(d.is_finite() && d > 0.0, || {
            format!("{name} delay {d:e} is not a positive time")
        });
    }
    checks.expect(rlc > rc, || {
        format!("RLC delay {rlc:e} must exceed RC delay {rc:e}")
    });
    let steps = get(outs, "steps");
    checks.expect(steps == 3.0 * STEPS_PER_FLOW, || {
        format!("{steps} steps, want 3×{STEPS_PER_FLOW}")
    });
    let rejected = get(outs, "rejected");
    checks.expect(rejected == 0.0, || {
        format!("{rejected} rejected steps on a fixed-step flow")
    });
}

#[derive(Clone, Copy)]
enum Probe {
    Rc,
    Rlc,
}

impl Probe {
    fn names(self) -> [&'static str; 6] {
        match self {
            Self::Rc => [
                "numeric.dense_lu.rc",
                "numeric.sparse_analyze.rc",
                "numeric.sparse_factor.rc",
                "numeric.sparse_solve.rc",
                "numeric.unknowns.rc",
                "numeric.factor_nnz.rc",
            ],
            Self::Rlc => [
                "numeric.dense_lu.rlc",
                "numeric.sparse_analyze.rlc",
                "numeric.sparse_factor.rlc",
                "numeric.sparse_solve.rlc",
                "numeric.unknowns.rlc",
                "numeric.factor_nnz.rlc",
            ],
        }
    }
}

/// Numeric probe on the Medium linear (Thévenin-driven) testbench: the
/// trapezoidal step matrix `G + (2/dt)·C` through the dense LU and
/// through sparse analyze / factor / solve, with a residual check.
fn numeric_probe(
    tr: &mut Tracer,
    checks: &mut Checks,
    case: &ClockCase,
    mode: InductanceMode,
    probe: Probe,
) -> Result<(), String> {
    let [dense, analyze, factor, solve, unknowns, nnz] = probe.names();
    let spec = TestbenchSpec {
        driver: DriverKind::Thevenin {
            r_out: PROBE_R_OUT_OHM,
        },
        input_ac_mag: 1.0,
        ..TestbenchSpec::default()
    };
    let tb = build_testbench(&case.par, mode, &spec).map_err(|e| e.to_string())?;
    let sys = tb.circuit.mna_system().map_err(|e| e.to_string())?;
    let mut a = Triplets::new(sys.n, sys.n);
    for &(i, j, v) in sys.g.entries() {
        a.push(i, j, v);
    }
    for &(i, j, v) in sys.c.entries() {
        a.push(i, j, v * 2.0 / DT_S);
    }
    let csr = a.to_csr();
    let mut b = vec![0.0; sys.n];
    for col in &sys.b_cols {
        for &(i, v) in col {
            b[i] += v;
        }
    }
    for rep in 0..PROBE_REPEATS {
        checks.begin();
        tr.set_iter(PROBE_ITER + rep);
        let dense_m = a.to_dense();
        tr.span(dense, |_| dense_m.lu())
            .map_err(|e| e.to_string())?;
        let sym = tr
            .span(analyze, |_| SymbolicLu::analyze(&csr))
            .map_err(|e| e.to_string())?;
        let sym = Arc::new(sym);
        let lu = tr
            .span(factor, |_| SparseLu::factor_with(Arc::clone(&sym), &csr))
            .map_err(|e| e.to_string())?;
        let x = tr
            .span(solve, |_| lu.solve(&b))
            .map_err(|e| e.to_string())?;
        let ax = csr.matvec(&x).map_err(|e| e.to_string())?;
        let bnorm = b
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let resid = ax
            .iter()
            .zip(&b)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
            / bnorm;
        checks.expect(resid <= PROBE_RESIDUAL_TOL, || {
            format!("{solve}: residual {resid:e} exceeds {PROBE_RESIDUAL_TOL:e}")
        });
        tr.count(unknowns, sys.n as f64);
        tr.count(nnz, lu.stats().factor_nnz as f64);
    }
    Ok(())
}
