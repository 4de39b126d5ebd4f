//! DC operating-point analysis (Newton–Raphson) with a convergence
//! rescue ladder.
//!
//! [`Circuit::dc_op`] runs plain damped Newton exactly as it always has.
//! [`Circuit::dc_op_with`] takes a [`RescuePolicy`] and, when plain
//! Newton fails, escalates through gmin-stepping and source-stepping
//! homotopies (see [`crate::rescue`] for the rationale), returning a
//! [`RescueReport`] alongside the operating point so callers can see
//! which rung converged and what it cost. It also takes the symbolic
//! analysis of a structurally identical circuit as a hint
//! ([`Circuit::dc_symbolic`]), as the AC sweep does, so a job server
//! analyzes each DC pattern once.

use crate::elements::{Element, Mosfet};
use crate::error::CircuitError;
use crate::mna::{annotate_singular, assemble_static, stamp_current, MnaLayout, Scheme};
use crate::nonlinear::WoodburySolver;
use crate::netlist::{Circuit, NodeId};
use crate::rescue::{RescuePolicy, RescueReport, RescueRung, RungTrace};
use crate::solver::{factor_planned, SolvePlan};
use crate::Result;
use ind101_numeric::{norm_inf, SymbolicLu, Triplets};
use std::sync::Arc;

/// Maximum Newton iterations for the operating point, and for each
/// homotopy solve of the rescue rungs.
const MAX_ITER: usize = 200;
/// Per-iteration cap on any unknown's change, volts/amperes.
const DAMP_LIMIT: f64 = 1.0;
/// Absolute convergence tolerance.
const ABS_TOL: f64 = 1e-9;
/// Relative convergence tolerance.
const REL_TOL: f64 = 1e-6;

/// Solved DC operating point.
#[derive(Clone, Debug)]
pub struct DcOperatingPoint {
    pub(crate) x: Vec<f64>,
    pub(crate) layout: MnaLayout,
}

impl DcOperatingPoint {
    /// Node voltage at the operating point (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.node(node).map_or(0.0, |i| self.x[i])
    }

    /// Current through voltage source `idx` (in the order sources were
    /// added), flowing from the positive terminal through the source.
    pub fn vsrc_current(&self, idx: usize) -> f64 {
        self.x[self.layout.vsrc_rows[idx]]
    }

    /// Current through branch `branch` of inductor system `sys`.
    pub fn inductor_current(&self, sys: usize, branch: usize) -> f64 {
        self.x[self.layout.ind_offsets[sys] + branch]
    }

    /// The raw unknown vector (node voltages then source/branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Outcome of one damped-Newton run.
struct NewtonOutcome {
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    /// Infinity norm of the last (damped) update.
    final_delta: f64,
    /// Per-iteration damped update norms.
    residuals: Vec<f64>,
}

/// Initial shunt conductance for gmin-stepping, siemens — large enough
/// to tame any reasonable MOS Jacobian, then relaxed a decade per solve.
const GMIN_START_S: f64 = 1e-3;
/// Geometric gmin relaxation steps before the unmodified solve.
const GMIN_STEPS: usize = 10;
/// Uniform source-ramp steps; bisection may insert more when a ramp
/// step fails.
const SOURCE_STEPS: usize = 10;
/// Extra solves the source-stepping bisection may spend on top of the
/// uniform ramp before the rung gives up.
const MAX_BISECTIONS: usize = 40;
/// Source-stepping gives up when the bisected ramp step shrinks below
/// this fraction of the full ramp — further halving cannot converge.
const MIN_ALPHA_STEP: f64 = 1e-6;

/// Damped Newton from `x0`: one base solve of `rhs`, then each of at
/// most [`MAX_ITER`] iterations solves the exact linearized system (via
/// Woodbury) and applies the update with a per-component clamp of
/// [`DAMP_LIMIT`]. A singular Jacobian or a non-finite update ends the
/// run as a failed iteration, so plain `dc_op` reports divergence and
/// the rescue ladder moves on.
fn damped_newton(
    wb: &WoodburySolver,
    mosfets: &[Mosfet],
    rhs: &[f64],
    mut x: Vec<f64>,
) -> Result<NewtonOutcome> {
    let n = x.len();
    let y0 = wb.base_solve(rhs)?;
    let mut residuals = Vec::new();
    let mut final_delta = f64::INFINITY;
    for iter in 0..MAX_ITER {
        let Some(x_new) = wb.newton_update(mosfets, &x, &y0) else {
            residuals.push(f64::INFINITY);
            return Ok(NewtonOutcome {
                x,
                converged: false,
                iterations: iter + 1,
                final_delta: f64::INFINITY,
                residuals,
            });
        };
        let mut delta_inf = 0.0f64;
        for i in 0..n {
            let d = (x_new[i] - x[i]).clamp(-DAMP_LIMIT, DAMP_LIMIT);
            delta_inf = delta_inf.max(d.abs());
            x[i] += d;
        }
        residuals.push(delta_inf);
        final_delta = delta_inf;
        if delta_inf < ABS_TOL + REL_TOL * norm_inf(&x) {
            return Ok(NewtonOutcome {
                x,
                converged: true,
                iterations: iter + 1,
                final_delta,
                residuals,
            });
        }
    }
    Ok(NewtonOutcome {
        x,
        converged: false,
        iterations: MAX_ITER,
        final_delta,
        residuals,
    })
}

impl Circuit {
    /// Computes the DC operating point with sources at their `t = 0`
    /// values; capacitors open, inductors (nearly) short. Plain damped
    /// Newton only — see [`Circuit::dc_op_with`] for the rescue ladder.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NewtonDiverged`] if the Newton iteration fails,
    /// [`CircuitError::SingularSystem`] for structurally singular
    /// circuits (with the offending node named).
    pub fn dc_op(&self) -> Result<DcOperatingPoint> {
        self.dc_op_with(&RescuePolicy::disabled(), None)
            .map(|(op, _)| op)
    }

    /// The symbolic analysis a DC operating point of this circuit plans,
    /// for reuse across structurally identical circuits as the `hint` of
    /// [`Circuit::dc_op_with`]. `None` when that plan has no symbolic
    /// analysis — its rung is dense — or when planning fails.
    #[must_use]
    pub fn dc_symbolic(&self) -> Option<Arc<SymbolicLu>> {
        let layout = MnaLayout::build(self);
        let t = assemble_static(self, &layout, Scheme::Dc, 0.0);
        SolvePlan::new(&t, self.effective_backend())
            .ok()?
            .symbolic()
            .cloned()
    }

    /// Computes the DC operating point, escalating through the rescue
    /// ladder configured in `policy` when plain Newton fails.
    ///
    /// The plain rung always runs first with the standard iteration
    /// budget, so whenever it suffices the result is bit-identical to
    /// [`Circuit::dc_op`]. The report records every rung attempted.
    ///
    /// `hint` seeds the analysis's one plan with a symbolic
    /// factorization held from a structurally identical circuit
    /// ([`Circuit::dc_symbolic`]), as the `hint` of
    /// [`Circuit::ac_sweep_resilient`] does: it is used when the plan
    /// lands on the sparse rung and its stored pattern equals this
    /// circuit's exactly, and the pattern is analyzed afresh otherwise,
    /// so the answer is the same bits either way.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NewtonDiverged`] when every enabled rung fails
    /// (carrying the iteration total and last update norm), or
    /// [`CircuitError::SingularSystem`] for singular circuits.
    pub fn dc_op_with(
        &self,
        policy: &RescuePolicy,
        hint: Option<Arc<SymbolicLu>>,
    ) -> Result<(DcOperatingPoint, RescueReport)> {
        let layout = MnaLayout::build(self);
        let static_t = assemble_static(self, &layout, Scheme::Dc, 0.0);
        // Static RHS: independent sources at t = 0.
        let mut rhs0 = vec![0.0; layout.n];
        let mut vseq = 0usize;
        for e in self.elements() {
            match e {
                Element::Vsrc { wave, .. } => {
                    rhs0[layout.vsrc_rows[vseq]] = wave.dc_value();
                    vseq += 1;
                }
                Element::Isrc { from, into, wave, .. } => {
                    stamp_current(&mut rhs0, &layout, *from, *into, wave.dc_value());
                }
                _ => {}
            }
        }

        let backend = self.effective_backend();
        let mosfets = self.mosfets();
        let annotate = |e| annotate_singular(self, &layout, e);
        // One plan for every rung: gmin stepping adds only to diagonals
        // the static matrix stamps. The rescue rungs refine their solves.
        let mut plan = None;
        let mut rung_solver = |t: &Triplets, refine: bool| {
            let base = factor_planned(&mut plan, t, backend, hint.as_ref())?;
            let base = if refine { base.with_refinement() } else { base };
            WoodburySolver::new(base, &layout, &mosfets)
        };
        let wb = rung_solver(&static_t, false).map_err(annotate)?;

        if mosfets.is_empty() {
            let sol = wb.base_solve(&rhs0).map_err(annotate)?;
            let report = RescueReport {
                converged_by: RescueRung::PlainNewton,
                rungs: vec![RungTrace {
                    rung: RescueRung::PlainNewton,
                    converged: true,
                    iterations: 0,
                    steps: 1,
                    residuals: vec![],
                }],
                total_iterations: 0,
            };
            return Ok((DcOperatingPoint { x: sol, layout }, report));
        }

        let mut rungs: Vec<RungTrace> = Vec::new();
        let mut total_iterations = 0usize;

        // Rung 1: plain damped Newton, standard budget.
        let plain = damped_newton(&wb, &mosfets, &rhs0, vec![0.0; layout.n])?;
        #[cfg(feature = "solver-faults")]
        let plain_converged = plain.converged && !crate::faults::plain_newton_forced_fail();
        #[cfg(not(feature = "solver-faults"))]
        let plain_converged = plain.converged;
        total_iterations += plain.iterations;
        let mut last_delta = plain.final_delta;
        rungs.push(RungTrace {
            rung: RescueRung::PlainNewton,
            converged: plain_converged,
            iterations: plain.iterations,
            steps: 1,
            residuals: plain.residuals,
        });
        if plain_converged {
            let report = RescueReport {
                converged_by: RescueRung::PlainNewton,
                rungs,
                total_iterations,
            };
            return Ok((DcOperatingPoint { x: plain.x, layout }, report));
        }

        // Rung 2: gmin-stepping — strengthen every node's path to ground,
        // then relax the extra conductance geometrically to zero,
        // warm-starting each solve from the previous one.
        if policy.gmin_stepping {
            let mut trace = RungTrace {
                rung: RescueRung::GminStepping,
                converged: false,
                iterations: 0,
                steps: 0,
                residuals: vec![],
            };
            let mut x = vec![0.0; layout.n];
            for k in 0..=GMIN_STEPS {
                // Decades down from GMIN_START_S; the last pass solves
                // the *unmodified* system so the answer is the true one.
                let extra = if k == GMIN_STEPS {
                    0.0
                } else {
                    GMIN_START_S * 0.1f64.powi(k as i32)
                };
                let mut t = static_t.clone();
                if extra > 0.0 {
                    for i in 0..layout.n_nodes {
                        t.push(i, i, extra);
                    }
                }
                let Ok(wb_g) = rung_solver(&t, true) else {
                    trace.converged = false;
                    break;
                };
                let out = damped_newton(&wb_g, &mosfets, &rhs0, x.clone())?;
                trace.steps += 1;
                trace.iterations += out.iterations;
                trace.residuals.push(out.final_delta);
                last_delta = out.final_delta;
                trace.converged = out.converged;
                if !out.converged {
                    break;
                }
                x = out.x;
            }
            total_iterations += trace.iterations;
            if trace.converged {
                rungs.push(trace);
                let report = RescueReport {
                    converged_by: RescueRung::GminStepping,
                    rungs,
                    total_iterations,
                };
                return Ok((DcOperatingPoint { x, layout }, report));
            }
            rungs.push(trace);
        }

        // Rung 3: source-stepping — ramp all independent sources from
        // zero (where x = 0 solves the circuit) to full value, bisecting
        // the ramp step whenever a solve fails along the way.
        if policy.source_stepping {
            // Refinement enabled: homotopy steps may pass through
            // marginal bias points where the plain solve loses digits.
            let wb_s = rung_solver(&static_t, true).map_err(annotate)?;
            let mut trace = RungTrace {
                rung: RescueRung::SourceStepping,
                converged: false,
                iterations: 0,
                steps: 0,
                residuals: vec![],
            };
            let uniform = 1.0 / SOURCE_STEPS as f64;
            let mut alpha = 0.0f64;
            let mut d_alpha = uniform;
            let mut bisections = 0usize;
            let mut x = vec![0.0; layout.n];
            let mut done = false;
            while !done {
                let target = (alpha + d_alpha).min(1.0);
                let rhs: Vec<f64> = rhs0.iter().map(|v| v * target).collect();
                let out = damped_newton(&wb_s, &mosfets, &rhs, x.clone())?;
                trace.steps += 1;
                trace.iterations += out.iterations;
                trace.residuals.push(out.final_delta);
                last_delta = out.final_delta;
                if out.converged {
                    x = out.x;
                    alpha = target;
                    done = alpha >= 1.0;
                    // Recover toward the uniform ramp after bisections.
                    d_alpha = (d_alpha * 2.0).min(uniform);
                } else {
                    bisections += 1;
                    d_alpha *= 0.5;
                    if bisections > MAX_BISECTIONS || d_alpha < MIN_ALPHA_STEP {
                        break;
                    }
                }
            }
            total_iterations += trace.iterations;
            if done {
                trace.converged = true;
                rungs.push(trace);
                let report = RescueReport {
                    converged_by: RescueRung::SourceStepping,
                    rungs,
                    total_iterations,
                };
                return Ok((DcOperatingPoint { x, layout }, report));
            }
            rungs.push(trace);
        }

        Err(CircuitError::NewtonDiverged {
            time: f64::NAN,
            iterations: total_iterations,
            residual: last_delta,
            damping_limit: DAMP_LIMIT,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{MosPolarity, Mosfet};
    use crate::netlist::InverterParams;
    use crate::waveform::SourceWave;

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsrc(top, Circuit::GND, SourceWave::dc(2.0));
        c.resistor(top, mid, 1_000.0);
        c.resistor(mid, Circuit::GND, 3_000.0);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(top) - 2.0).abs() < 1e-9);
        assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
        // Source current: 2 V / 4 kΩ = 0.5 mA flowing out of plus.
        assert!((op.vsrc_current(0) + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.isrc(Circuit::GND, n, SourceWave::dc(1e-3));
        c.resistor(n, Circuit::GND, 2_000.0);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.inductor(a, b, 1e-9);
        c.resistor(b, Circuit::GND, 100.0);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-3);
        assert!((op.inductor_current(0, 0) - 10e-3).abs() < 1e-6);
    }

    #[test]
    fn floating_cap_node_is_well_posed() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor(a, Circuit::GND, 1e-12);
        let op = c.dc_op().unwrap();
        assert_eq!(op.voltage(a), 0.0);
    }

    #[test]
    fn nmos_saturation_bias() {
        // Vdd -- R -- drain, gate at 1.2 V: device in saturation.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
        c.resistor(vdd, d, 1_000.0);
        c.mosfet(Mosfet {
            d,
            g,
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 0.5e-3,
            vt: 0.5,
            lambda: 0.0,
        });
        let op = c.dc_op().unwrap();
        // Ids = 0.5·β·(0.7)² ≈ 0.1225 mA → Vd = 1.8 − 0.1225 ≈ 1.6775.
        assert!((op.voltage(d) - 1.6775).abs() < 1e-3, "vd = {}", op.voltage(d));
    }

    #[test]
    fn inverter_transfer_endpoints() {
        let p = InverterParams::default();
        for (vin, expect_high) in [(0.0, true), (1.8, false)] {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
            c.vsrc(inp, Circuit::GND, SourceWave::dc(vin));
            c.inverter(inp, out, vdd, Circuit::GND, p);
            c.resistor(out, Circuit::GND, 1e9); // probe load
            let op = c.dc_op().unwrap();
            let vo = op.voltage(out);
            if expect_high {
                assert!(vo > 1.7, "vin={vin} vo={vo}");
            } else {
                assert!(vo < 0.1, "vin={vin} vo={vo}");
            }
        }
    }

    #[test]
    fn rescue_report_plain_for_easy_circuits() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
        c.resistor(vdd, d, 1_000.0);
        c.mosfet(Mosfet {
            d,
            g,
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 0.5e-3,
            vt: 0.5,
            lambda: 0.0,
        });
        let (op, report) = c.dc_op_with(&RescuePolicy::full(), None).unwrap();
        assert!(report.plain_sufficed(), "{}", report.summary());
        assert_eq!(report.rungs.len(), 1);
        assert!(report.rungs[0].converged);
        assert!(report.total_iterations > 0);
        // Bit-identical to the plain path when plain suffices.
        let plain = c.dc_op().unwrap();
        assert_eq!(op.unknowns(), plain.unknowns());
    }

    /// A circuit whose solution (`amps` · 1 kΩ, `ladder` resistors off
    /// the gate) is farther from the origin than the damped iteration can
    /// travel within its budget (1 V/iteration × 200 iterations): plain
    /// Newton genuinely fails. At 1 A gmin stepping fails too, and the
    /// source-stepping rung drags the solution along the homotopy path.
    fn far_operating_point_circuit(amps: f64, ladder: usize) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let hi = c.node("hi");
        let g = c.node("g");
        c.isrc(Circuit::GND, hi, SourceWave::dc(amps));
        c.resistor(hi, Circuit::GND, 1_000.0);
        c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
        c.mosfet(Mosfet {
            d: hi,
            g,
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 1e-9,
            vt: 0.5,
            lambda: 0.0,
        });
        let mut prev = g;
        for k in 0..ladder {
            let n = c.node(format!("lad{k}"));
            c.resistor(prev, n, 50.0);
            prev = n;
        }
        (c, hi)
    }

    #[test]
    fn plain_newton_fails_far_from_origin() {
        let (c, _) = far_operating_point_circuit(1.0, 0);
        match c.dc_op() {
            Err(CircuitError::NewtonDiverged {
                iterations,
                residual,
                damping_limit,
                ..
            }) => {
                assert_eq!(iterations, MAX_ITER);
                assert!(residual > 0.0);
                assert_eq!(damping_limit, DAMP_LIMIT);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn rescue_ladder_solves_far_operating_point() {
        let (c, hi) = far_operating_point_circuit(1.0, 0);
        let (op, report) = c.dc_op_with(&RescuePolicy::full(), None).unwrap();
        assert!(!report.plain_sufficed());
        // The plain rung must be recorded as attempted and failed.
        assert_eq!(report.rungs[0].rung, RescueRung::PlainNewton);
        assert!(!report.rungs[0].converged);
        assert_eq!(report.converged_by, RescueRung::SourceStepping);
        let v = op.voltage(hi);
        // ~1 kV (MOSFET at β=1e-9 draws negligible current).
        assert!((v - 1_000.0).abs() < 1.0, "v = {v}");
    }

    /// One plan and one symbolic analysis per rescued operating point
    /// under forced `Sparse`, whichever rungs run: plain Newton plans the
    /// pattern, and every gmin step and source stepping only refactor
    /// it. At 0.3 A gmin stepping wins, as no decade moves the far node
    /// by the 200 V a rung can travel; at 1 A source stepping does.
    #[test]
    fn rescue_ladder_plans_once() {
        for (amps, rung) in [(0.3, RescueRung::GminStepping), (1.0, RescueRung::SourceStepping)] {
            let (mut c, hi) = far_operating_point_circuit(amps, 60);
            c.set_solver_backend(crate::solver::SolverBackend::Sparse);
            let (res, plans, analyses) =
                crate::solver::probe::count_planning(|| c.dc_op_with(&RescuePolicy::full(), None));
            let (op, report) = res.unwrap();
            assert_eq!(report.converged_by, rung, "{}", report.summary());
            assert_eq!((plans, analyses), (1, 1), "{}", report.summary());
            let v = op.voltage(hi);
            assert!((v - 1_000.0 * amps).abs() < 1e-3 * amps, "v = {v}");
        }
    }

    /// A NaN source makes every Newton update non-finite, which fails
    /// the iteration instead of counting as converged: on the plain
    /// rung, on every rescue rung, and at a transient's first step.
    #[test]
    fn nan_source_diverges_instead_of_converging() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::dc(f64::NAN));
        c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
        c.capacitor(out, Circuit::GND, 50e-15);
        let diverged = |r: Result<_>| matches!(r, Err(CircuitError::NewtonDiverged { .. }));
        assert!(diverged(c.dc_op().map(drop)));
        assert!(diverged(c.dc_op_with(&RescuePolicy::full(), None).map(drop)));
        let mut opts = crate::tran::TranOptions::new(1e-12, 10e-12);
        opts.start_from_dc = false;
        match c.transient(&opts) {
            Err(CircuitError::NewtonDiverged { time, residual, .. }) => {
                assert_eq!((time, residual), (1e-12, f64::INFINITY));
            }
            other => panic!("expected divergence at the first step, got {other:?}"),
        }
    }
    #[test]
    fn dc_hint_skips_the_analysis_and_keeps_the_bits() {
        // A resistive ladder past the small-dense floor, on the sparse
        // rung, and a copy with other values but the same topology.
        let ladder = |scale: f64| {
            let mut c = Circuit::new();
            let nodes: Vec<NodeId> = (0..80).map(|i| c.node(format!("n{i}"))).collect();
            c.vsrc(nodes[0], Circuit::GND, SourceWave::dc(1.0));
            for (i, w) in nodes.windows(2).enumerate() {
                c.resistor(w[0], w[1], scale * (1.0 + 0.1 * i as f64));
                c.resistor(w[1], Circuit::GND, 50.0 * scale);
            }
            c.set_solver_backend(crate::SolverBackend::Sparse);
            c
        };
        let (a, b) = (ladder(1.0), ladder(2.5));
        let hint = a.dc_symbolic().unwrap();
        let policy = RescuePolicy::disabled();
        let ((seeded, _), plans, analyses) = crate::solver::probe::count_planning(|| {
            b.dc_op_with(&policy, Some(Arc::clone(&hint))).unwrap()
        });
        assert_eq!((plans, analyses), (1, 0));
        let plain = b.dc_op().unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(seeded.unknowns()), bits(plain.unknowns()));
        // A stale hint is analyzed away, to the same bits.
        let mut other = ladder(1.0);
        other.resistor(NodeId(3), NodeId(40), 7.0);
        let ((stale, _), _, analyses) = crate::solver::probe::count_planning(|| {
            other.dc_op_with(&policy, Some(Arc::clone(&hint))).unwrap()
        });
        assert_eq!(analyses, 1);
        assert_eq!(bits(stale.unknowns()), bits(other.dc_op().unwrap().unknowns()));
        // A dense plan has no analysis to hand out.
        let mut small = Circuit::new();
        let x = small.node("x");
        small.resistor(x, Circuit::GND, 1.0);
        assert!(small.dc_symbolic().is_none());
    }

}
