//! Transient analysis: fixed-step trapezoidal integration plus an
//! adaptive local-truncation-error (LTE) step controller.
//!
//! Companion-model formulation: capacitors become conductances with
//! history currents, inductive branches keep their currents as MNA
//! unknowns so mutual coupling stamps the inductance matrix directly.
//! The first step uses backward Euler (self-starting, damps the
//! inconsistent-initial-condition ringing trapezoidal is prone to);
//! subsequent steps use the trapezoidal rule (A-stable, no numerical
//! damping — important because the paper's waveforms *are* ringing and
//! artificial damping would fake the RC-like behaviour).
//!
//! Two step-control modes ([`StepControl`]):
//!
//! * **Fixed** (the default) — every step is exactly `dt`, a Newton
//!   failure is fatal. For linear circuits the historical arithmetic is
//!   preserved bit-for-bit; nonlinear circuits share one base solve per
//!   time point across their Newton iterations (see `crate::nonlinear`),
//!   which moves their waveforms at rounding level only.
//! * **Adaptive** — each trapezoidal step is checked against a linear
//!   predictor; when the predictor–corrector difference (an LTE proxy)
//!   exceeds tolerance, or Newton fails to converge, the step is
//!   rejected and retried at half the size. Accepted steps regrow
//!   geometrically toward `dt_max`. Falling below `dt_min` aborts with
//!   [`CircuitError::StepUnderflow`] rather than looping forever.

use crate::elements::{Element, Mosfet};
use crate::error::CircuitError;
use crate::mna::{annotate_singular, assemble_static, stamp_current, MnaLayout, Scheme};
use crate::nonlinear::WoodburySolver;
use crate::netlist::{Circuit, NodeId};
use crate::rescue::{RescuePolicy, RescueReport};
use crate::solver::{Solver, SolverBackend};
use crate::waveform::Trace;
use crate::Result;
use ind101_numeric::{dot, SymbolicLu, Triplets};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Newton convergence tolerance per time point (infinity norm of the
/// iterate update, volts/amperes).
const NEWTON_TOL: f64 = 1e-6;

/// Step-size control for [`Circuit::transient`].
#[derive(Clone, Debug, PartialEq)]
pub enum StepControl {
    /// Every step is exactly `dt` (the historical behaviour, default).
    Fixed,
    /// LTE-driven step rejection/halving and geometric regrowth.
    Adaptive(AdaptiveOptions),
}

/// Tuning for [`StepControl::Adaptive`].
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative LTE tolerance (per unknown, against its magnitude).
    pub lte_rel: f64,
    /// Absolute LTE tolerance, volts/amperes.
    pub lte_abs: f64,
    /// Smallest allowed step, seconds. `0.0` = auto (`dt · 2⁻⁴⁰`).
    pub dt_min: f64,
    /// Largest allowed step, seconds. `0.0` = auto (`64 · dt`).
    pub dt_max: f64,
    /// Geometric regrowth factor applied after comfortably accepted
    /// steps (must exceed 1).
    pub growth: f64,
}

/// Relative slack at the end of the sweep: a remaining interval below
/// this fraction of `t_stop` is rounding noise, not a step to take.
const END_OF_SWEEP_REL_TOL: f64 = 1e-12;

/// Default relative local-truncation-error target per step.
const DEFAULT_LTE_REL: f64 = 1e-3;
/// Default absolute LTE floor, volts — keeps near-zero nodes from
/// demanding infinite accuracy.
const DEFAULT_LTE_ABS: f64 = 1e-6;

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self {
            lte_rel: DEFAULT_LTE_REL,
            lte_abs: DEFAULT_LTE_ABS,
            dt_min: 0.0,
            dt_max: 0.0,
            growth: 1.5,
        }
    }
}

/// Options for [`Circuit::transient`].
#[derive(Clone, Debug, PartialEq)]
pub struct TranOptions {
    /// Time step, seconds (fixed mode: every step; adaptive mode: the
    /// initial step and the regrowth reference).
    pub dt: f64,
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Maximum Newton iterations per time point.
    pub max_newton: usize,
    /// Record every `record_stride`-th accepted step (1 = every step).
    pub record_stride: usize,
    /// Start from the DC operating point (default) or from all-zero
    /// state (useful for quiet-power-grid noise studies).
    pub start_from_dc: bool,
    /// Step-size control mode (default [`StepControl::Fixed`]).
    pub step_control: StepControl,
    /// DC convergence-rescue ladder for the operating-point solve that
    /// seeds the transient (default disabled: plain Newton only).
    pub rescue: RescuePolicy,
}

impl TranOptions {
    /// Creates options with the given step and stop time.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        Self {
            dt,
            t_stop,
            max_newton: 60,
            record_stride: 1,
            start_from_dc: true,
            step_control: StepControl::Fixed,
            rescue: RescuePolicy::disabled(),
        }
    }

    /// Same options with default adaptive step control enabled.
    #[must_use]
    pub fn adaptive(mut self) -> Self {
        self.step_control = StepControl::Adaptive(AdaptiveOptions::default());
        self
    }

    fn validate(&self) -> Result<()> {
        let invalid = |what: String| Err(CircuitError::InvalidOptions { what });
        if !(self.dt > 0.0) || !self.dt.is_finite() {
            return invalid(format!("dt = {}", self.dt));
        }
        if !(self.t_stop >= self.dt) {
            return invalid(format!(
                "t_stop = {} must be at least dt = {}",
                self.t_stop, self.dt
            ));
        }
        if self.record_stride == 0 {
            return invalid("record_stride must be ≥ 1".to_owned());
        }
        if let StepControl::Adaptive(a) = &self.step_control {
            if !(a.growth > 1.0) || !a.growth.is_finite() {
                return invalid(format!("adaptive growth = {} must exceed 1", a.growth));
            }
            if a.lte_rel < 0.0 || a.lte_abs < 0.0 || (a.lte_rel == 0.0 && a.lte_abs == 0.0) {
                return invalid(format!(
                    "adaptive LTE tolerances rel = {}, abs = {} (need ≥ 0, not both 0)",
                    a.lte_rel, a.lte_abs
                ));
            }
            if a.dt_min < 0.0 || (a.dt_min > 0.0 && a.dt_min > self.dt) {
                return invalid(format!("adaptive dt_min = {} (need 0 ≤ dt_min ≤ dt)", a.dt_min));
            }
            if a.dt_max < 0.0 || (a.dt_max > 0.0 && a.dt_max < self.dt) {
                return invalid(format!("adaptive dt_max = {} (need 0 or ≥ dt)", a.dt_max));
            }
        }
        Ok(())
    }
}

/// Per-capacitor integration state.
#[derive(Clone, Copy, Debug, Default)]
struct CapState {
    v: f64,
    i: f64,
}

/// Transient simulation result: sampled unknown vectors.
#[derive(Clone, Debug)]
pub struct TranResult {
    time: Vec<f64>,
    /// Step-major unknown snapshots.
    data: Vec<Vec<f64>>,
    layout: MnaLayout,
    /// Newton iterations actually used (diagnostics).
    pub newton_iterations: usize,
    /// Time steps attempted (fixed mode: exactly the step count).
    pub steps_attempted: usize,
    /// Steps rejected by the adaptive controller (0 in fixed mode).
    pub steps_rejected: usize,
    /// Rescue-ladder report from the seeding DC solve, when the
    /// options enabled a rescue policy.
    pub rescue: Option<RescueReport>,
}

impl TranResult {
    /// Sampled times.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Voltage trace of a node.
    pub fn voltage(&self, node: NodeId) -> Trace {
        let vals = match self.layout.node(node) {
            None => vec![0.0; self.time.len()],
            Some(i) => self.data.iter().map(|x| x[i]).collect(),
        };
        Trace::new(self.time.clone(), vals)
    }

    /// Current trace through voltage source `idx` (order of insertion).
    pub fn vsrc_current(&self, idx: usize) -> Trace {
        let r = self.layout.vsrc_rows[idx];
        Trace::new(self.time.clone(), self.data.iter().map(|x| x[r]).collect())
    }

    /// Current trace through branch `branch` of inductor system `sys`.
    pub fn inductor_current(&self, sys: usize, branch: usize) -> Trace {
        let r = self.layout.ind_offsets[sys] + branch;
        Trace::new(self.time.clone(), self.data.iter().map(|x| x[r]).collect())
    }
}

/// One factored time-step system: plain LU for linear circuits, LU plus
/// Woodbury rank-m MOSFET updates for nonlinear ones.
enum StepSolver {
    Linear(Solver<f64>),
    Woodbury(WoodburySolver),
}

/// Outcome of solving one time point.
struct StepSolve {
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    /// Infinity norm of the last Newton update (0 for linear solves).
    last_delta: f64,
}

impl StepSolver {
    /// `refine` enables iterative refinement of ill-conditioned solves
    /// (adaptive path only — the fixed path stays bit-identical).
    /// `hint` forwards a sparse symbolic factorization from an earlier
    /// same-pattern build (BE → trapezoidal, or across adaptive step
    /// sizes) so only the numeric phase re-runs.
    fn build(
        static_t: &Triplets,
        layout: &MnaLayout,
        mosfets: &[Mosfet],
        nonlinear: bool,
        refine: bool,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Result<Self> {
        Ok(if nonlinear {
            Self::Woodbury(WoodburySolver::build_with(
                static_t, layout, mosfets, refine, backend, hint,
            )?)
        } else {
            let mut s = Solver::build_with(static_t, backend, hint)?;
            if refine {
                s = s.with_refinement();
            }
            Self::Linear(s)
        })
    }

    /// Sparse symbolic pattern of the (base) linear system, for reuse
    /// by the next same-structure build.
    fn symbolic_hint(&self) -> Option<Arc<SymbolicLu>> {
        match self {
            Self::Linear(s) => s.symbolic_hint(),
            Self::Woodbury(wb) => wb.symbolic_hint(),
        }
    }

    fn solve(
        &self,
        mosfets: &[Mosfet],
        rhs: &[f64],
        x_guess: &[f64],
        max_newton: usize,
    ) -> Result<StepSolve> {
        match self {
            Self::Linear(s) => Ok(StepSolve {
                x: s.solve(rhs)?,
                converged: true,
                iterations: 0,
                last_delta: 0.0,
            }),
            Self::Woodbury(wb) => {
                #[cfg(feature = "solver-faults")]
                if crate::faults::take_tran_newton_stall() {
                    return Ok(StepSolve {
                        x: x_guess.to_vec(),
                        converged: false,
                        iterations: 0,
                        last_delta: f64::INFINITY,
                    });
                }
                let y0 = wb.base_solve(rhs)?;
                let mut guess = x_guess.to_vec();
                let mut converged = false;
                let mut iterations = 0usize;
                let mut last_delta = f64::INFINITY;
                for _ in 0..max_newton {
                    iterations += 1;
                    // A singular Jacobian fails the time point like a
                    // stalled Newton run: fatal in fixed mode, a rejected
                    // step in adaptive mode.
                    let Some(sol) = wb.newton_update(mosfets, &guess, &y0) else {
                        last_delta = f64::INFINITY;
                        break;
                    };
                    let mut delta = 0.0f64;
                    for i in 0..guess.len() {
                        delta = delta.max((sol[i] - guess[i]).abs());
                    }
                    guess = sol;
                    last_delta = delta;
                    if delta < NEWTON_TOL {
                        converged = true;
                        break;
                    }
                }
                Ok(StepSolve {
                    x: guess,
                    converged,
                    iterations,
                    last_delta,
                })
            }
        }
    }
}

/// Element bookkeeping shared by both step-control modes.
struct TranState {
    caps: Vec<(NodeId, NodeId, f64)>,
    cap_state: Vec<CapState>,
    /// Inductor branch history per system: (current, branch voltage).
    ind_state: Vec<Vec<(f64, f64)>>,
    mosfets: Vec<Mosfet>,
}

impl TranState {
    fn new(ckt: &Circuit, layout: &MnaLayout, x: &[f64]) -> Self {
        let caps: Vec<(NodeId, NodeId, f64)> = ckt
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, farads } => Some((*a, *b, *farads)),
                _ => None,
            })
            .collect();
        let cap_state: Vec<CapState> = caps
            .iter()
            .map(|&(a, b, _)| CapState {
                v: node_v(layout, x, a) - node_v(layout, x, b),
                i: 0.0,
            })
            .collect();
        let ind_state: Vec<Vec<(f64, f64)>> = ckt
            .inductor_systems()
            .iter()
            .enumerate()
            .map(|(s, sys)| {
                (0..sys.len())
                    .map(|j| (x[layout.ind_offsets[s] + j], 0.0))
                    .collect()
            })
            .collect();
        let mosfets: Vec<Mosfet> = ckt
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Transistor(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        Self {
            caps,
            cap_state,
            ind_state,
            mosfets,
        }
    }

    /// Right-hand side at `t_next`: sources plus companion histories for
    /// companion factor `k` (`trap` selects trapezoidal history terms).
    fn assemble_rhs(
        &self,
        ckt: &Circuit,
        layout: &MnaLayout,
        t_next: f64,
        k: f64,
        trap: bool,
    ) -> Vec<f64> {
        let mut rhs = vec![0.0; layout.n];
        let mut vseq = 0usize;
        for e in ckt.elements() {
            match e {
                Element::Vsrc { wave, .. } => {
                    rhs[layout.vsrc_rows[vseq]] = wave.value_at(t_next);
                    vseq += 1;
                }
                Element::Isrc { from, into, wave, .. } => {
                    stamp_current(&mut rhs, layout, *from, *into, wave.value_at(t_next));
                }
                _ => {}
            }
        }
        for (ci, &(a, b, farads)) in self.caps.iter().enumerate() {
            let st = self.cap_state[ci];
            let ieq = k * farads * st.v + if trap { st.i } else { 0.0 };
            // Norton companion: current ieq from b to a externally.
            stamp_current(&mut rhs, layout, b, a, ieq);
        }
        for (s, sys) in ckt.inductor_systems().iter().enumerate() {
            let off = layout.ind_offsets[s];
            let hist = &self.ind_state[s];
            let cur: Vec<f64> = hist.iter().map(|&(i, _)| i).collect();
            for (j, &(_, v)) in hist.iter().enumerate() {
                let flux = dot(sys.m.row(j), &cur);
                rhs[off + j] = -k * flux - if trap { v } else { 0.0 };
            }
        }
        rhs
    }

    /// Commits an accepted solution: advances companion histories.
    fn commit(&mut self, ckt: &Circuit, layout: &MnaLayout, x_next: &[f64], k: f64, trap: bool) {
        for (ci, &(a, b, farads)) in self.caps.iter().enumerate() {
            let v_new = node_v(layout, x_next, a) - node_v(layout, x_next, b);
            let st = &mut self.cap_state[ci];
            let i_new = k * farads * (v_new - st.v) - if trap { st.i } else { 0.0 };
            st.v = v_new;
            st.i = i_new;
        }
        for (s, sys) in ckt.inductor_systems().iter().enumerate() {
            let off = layout.ind_offsets[s];
            for (j, &(a, b)) in sys.branches.iter().enumerate() {
                let i_new = x_next[off + j];
                let v_new = node_v(layout, x_next, a) - node_v(layout, x_next, b);
                self.ind_state[s][j] = (i_new, v_new);
            }
        }
    }
}

impl Circuit {
    /// Runs a transient analysis (fixed-step by default; adaptive when
    /// [`TranOptions::step_control`] says so).
    ///
    /// # Errors
    ///
    /// Invalid options, singular systems (with the offending unknown
    /// named), Newton divergence, or — adaptive mode only — step
    /// underflow at `dt_min`.
    pub fn transient(&self, opts: &TranOptions) -> Result<TranResult> {
        opts.validate()?;
        match opts.step_control.clone() {
            StepControl::Fixed => self.transient_fixed(opts),
            StepControl::Adaptive(a) => self.transient_adaptive(opts, &a),
        }
    }

    /// Initial unknown vector (and rescue report, when enabled).
    fn tran_initial_state(
        &self,
        opts: &TranOptions,
        layout: &MnaLayout,
    ) -> Result<(Vec<f64>, Option<RescueReport>)> {
        if !opts.start_from_dc {
            return Ok((vec![0.0; layout.n], None));
        }
        if opts.rescue.any_enabled() {
            let (op, report) = self.dc_op_with(&opts.rescue)?;
            Ok((op.x, Some(report)))
        } else {
            Ok((self.dc_op()?.x, None))
        }
    }

    /// The fixed-step path: every step exactly `dt`, Newton failure
    /// fatal.
    fn transient_fixed(&self, opts: &TranOptions) -> Result<TranResult> {
        let layout = MnaLayout::build(self);
        let h = opts.dt;
        let nonlinear = self.is_nonlinear();
        let annotate = |e| annotate_singular(self, &layout, e);

        let (mut x, rescue) = self.tran_initial_state(opts, &layout)?;
        let mut state = TranState::new(self, &layout, &x);

        // Pre-assembled static matrices, factored once per scheme. For
        // nonlinear circuits the MOSFET Jacobian is applied as a rank-m
        // Woodbury update on top of the same factorization (see
        // `crate::nonlinear`), so no refactoring happens inside the
        // time loop at all.
        let static_be = assemble_static(self, &layout, Scheme::Be, h);
        let static_trap = assemble_static(self, &layout, Scheme::Trap, h);
        let backend = self.effective_backend();
        let solver_be = StepSolver::build(
            &static_be, &layout, &state.mosfets, nonlinear, false, backend, None,
        )
        .map_err(annotate)?;
        // The BE and trapezoidal systems share a sparsity pattern (only
        // the companion coefficients differ), so the trapezoidal build
        // reuses the BE symbolic factorization.
        let hint = solver_be.symbolic_hint();
        let solver_trap = StepSolver::build(
            &static_trap, &layout, &state.mosfets, nonlinear, false, backend, hint.as_ref(),
        )
        .map_err(annotate)?;

        let n_steps = (opts.t_stop / h).ceil() as usize;
        let mut result = TranResult {
            time: Vec::with_capacity(n_steps / opts.record_stride + 2),
            data: Vec::with_capacity(n_steps / opts.record_stride + 2),
            layout: layout.clone(),
            newton_iterations: 0,
            steps_attempted: n_steps,
            steps_rejected: 0,
            rescue,
        };
        result.time.push(0.0);
        result.data.push(x.clone());

        let mut newton_total = 0usize;
        for step in 1..=n_steps {
            let t_next = step as f64 * h;
            let scheme = if step == 1 { Scheme::Be } else { Scheme::Trap };
            let k = scheme.k(h);
            let trap = scheme == Scheme::Trap;
            let solver = if step == 1 { &solver_be } else { &solver_trap };

            let rhs = state.assemble_rhs(self, &layout, t_next, k, trap);
            let out = solver.solve(&state.mosfets, &rhs, &x, opts.max_newton)?;
            newton_total += out.iterations;
            if !out.converged {
                return Err(CircuitError::NewtonDiverged {
                    time: t_next,
                    iterations: out.iterations,
                    residual: out.last_delta,
                    damping_limit: f64::INFINITY,
                });
            }
            let x_next = out.x;

            state.commit(self, &layout, &x_next, k, trap);
            x = x_next;
            if step % opts.record_stride == 0 || step == n_steps {
                result.time.push(t_next);
                result.data.push(x.clone());
            }
        }
        result.newton_iterations = newton_total;
        Ok(result)
    }

    /// LTE-controlled adaptive stepping.
    ///
    /// Each candidate step is solved with the trapezoidal companion
    /// model (backward Euler for the very first step), then compared
    /// against the linear predictor
    /// `x_pred = x_n + (h/h_prev)·(x_n − x_{n−1})`. The
    /// predictor–corrector gap is a standard LTE proxy: accept when the
    /// worst per-unknown ratio against `lte_abs + lte_rel·|x|` is ≤ 1,
    /// otherwise halve and retry. Newton failures also reject the step.
    /// Solvers are cached per step size, so the halve/regrow cycle
    /// revisits existing factorizations instead of refactoring.
    fn transient_adaptive(&self, opts: &TranOptions, aopts: &AdaptiveOptions) -> Result<TranResult> {
        let layout = MnaLayout::build(self);
        let nonlinear = self.is_nonlinear();
        let dt_min = if aopts.dt_min > 0.0 {
            aopts.dt_min
        } else {
            opts.dt * 2.0f64.powi(-40)
        };
        let dt_max = if aopts.dt_max > 0.0 {
            aopts.dt_max
        } else {
            64.0 * opts.dt
        };

        let (mut x, rescue) = self.tran_initial_state(opts, &layout)?;
        let mut state = TranState::new(self, &layout, &x);

        let mut result = TranResult {
            time: vec![0.0],
            data: vec![x.clone()],
            layout: layout.clone(),
            newton_iterations: 0,
            steps_attempted: 0,
            steps_rejected: 0,
            rescue,
        };

        // Factored systems per (scheme, step size); the BE cache only
        // ever holds first-step sizes.
        let mut cache_be: HashMap<u64, StepSolver> = HashMap::new();
        let mut cache_trap: HashMap<u64, StepSolver> = HashMap::new();
        // Every step size shares one MNA sparsity pattern; the first
        // sparse build's symbolic factorization seeds all later ones.
        let backend = self.effective_backend();
        let mut sym_hint: Option<Arc<SymbolicLu>> = None;

        let mut t = 0.0f64;
        let mut h_ctrl = opts.dt.min(dt_max);
        // Previous accepted point (x_{n−1} and the step that led to x_n).
        let mut prev: Option<(Vec<f64>, f64)> = None;
        let mut accepted = 0usize;
        let mut newton_total = 0usize;

        loop {
            let remaining = opts.t_stop - t;
            if remaining <= opts.t_stop * END_OF_SWEEP_REL_TOL {
                break;
            }
            let h = h_ctrl.min(remaining);
            let first = prev.is_none();
            let scheme = if first { Scheme::Be } else { Scheme::Trap };
            let cache = if first { &mut cache_be } else { &mut cache_trap };
            let solver = match cache.entry(h.to_bits()) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => {
                    let st = assemble_static(self, &layout, scheme, h);
                    let built = StepSolver::build(
                        &st,
                        &layout,
                        &state.mosfets,
                        nonlinear,
                        true,
                        backend,
                        sym_hint.as_ref(),
                    )
                    .map_err(|e| annotate_singular(self, &layout, e))?;
                    if sym_hint.is_none() {
                        sym_hint = built.symbolic_hint();
                    }
                    v.insert(built)
                }
            };
            let k = scheme.k(h);
            let trap = scheme == Scheme::Trap;

            let rhs = state.assemble_rhs(self, &layout, t + h, k, trap);
            result.steps_attempted += 1;
            let out = solver.solve(&state.mosfets, &rhs, &x, opts.max_newton)?;
            newton_total += out.iterations;

            // LTE proxy: worst per-unknown predictor–corrector gap
            // relative to tolerance (0 when no predictor exists yet).
            let mut ratio = 0.0f64;
            if out.converged {
                if let Some((x_prev, h_prev)) = &prev {
                    let r = h / h_prev;
                    for i in 0..layout.n {
                        let pred = x[i] + r * (x[i] - x_prev[i]);
                        let tol = aopts.lte_abs + aopts.lte_rel * x[i].abs().max(out.x[i].abs());
                        if tol > 0.0 {
                            ratio = ratio.max((out.x[i] - pred).abs() / tol);
                        }
                    }
                }
            }

            if !out.converged || ratio > 1.0 {
                result.steps_rejected += 1;
                h_ctrl = h * 0.5;
                if h_ctrl < dt_min {
                    result.newton_iterations = newton_total;
                    return Err(CircuitError::StepUnderflow { time: t, dt_min });
                }
                continue;
            }

            // Accept.
            state.commit(self, &layout, &out.x, k, trap);
            prev = Some((std::mem::replace(&mut x, out.x), h));
            t += h;
            accepted += 1;
            if accepted % opts.record_stride == 0 {
                result.time.push(t);
                result.data.push(x.clone());
            }
            // Geometric regrowth after comfortable steps; hold steady
            // when the controller is near its tolerance.
            h_ctrl = if ratio < 0.5 {
                (h * aopts.growth).min(dt_max)
            } else {
                h
            };
        }
        // Always include the final accepted point.
        if result.time.last().copied() != Some(t) {
            result.time.push(t);
            result.data.push(x.clone());
        }
        result.newton_iterations = newton_total;
        Ok(result)
    }
}

#[inline]
fn node_v(layout: &MnaLayout, x: &[f64], n: NodeId) -> f64 {
    layout.node(n).map_or(0.0, |i| x[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::InverterParams;
    use crate::waveform::SourceWave;

    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1_000.0;
        let cap = 1e-12;
        let tau = r * cap;
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0, 1e-15));
        c.resistor(inp, out, r);
        c.capacitor(out, Circuit::GND, cap);
        let res = c
            .transient(&TranOptions::new(tau / 100.0, 6.0 * tau))
            .unwrap();
        let v = res.voltage(out);
        // Compare at t = tau: 1 − e⁻¹.
        let expected = 1.0 - (-1.0f64).exp();
        assert!((v.sample(tau) - expected).abs() < 0.01, "{}", v.sample(tau));
        assert!((v.last_value() - 1.0).abs() < 0.01);
        assert_eq!(res.steps_rejected, 0);
        assert_eq!(res.steps_attempted, 600);
        assert!(res.rescue.is_none());
    }

    #[test]
    fn rl_current_ramp() {
        // V = L di/dt through an inductor with tiny series R.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.resistor(a, b, 1e-3);
        c.inductor(b, Circuit::GND, 1e-9);
        let mut opts = TranOptions::new(1e-12, 2e-9);
        opts.start_from_dc = false;
        let res = c.transient(&opts).unwrap();
        let i = res.inductor_current(0, 0);
        // di/dt = V/L = 1e9 A/s → at 1 ns, 1 A.
        assert!((i.sample(1e-9) - 1.0).abs() < 0.01, "{}", i.sample(1e-9));
    }

    #[test]
    fn lc_oscillation_frequency() {
        // Series LC excited by an initial capacitor voltage via DC op.
        let l = 1e-9f64;
        let cap = 1e-12f64;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt());
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        // Step source through a small resistor starts the ring.
        c.vsrc(a, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0, 1e-12));
        c.resistor(a, b, 1.0);
        let mid = c.node("mid");
        c.inductor(b, mid, l);
        c.capacitor(mid, Circuit::GND, cap);
        let res = c
            .transient(&TranOptions::new(1.0 / f0 / 200.0, 5.0 / f0))
            .unwrap();
        let v = res.voltage(mid);
        // Underdamped: response overshoots 1 V toward ~2 V.
        assert!(v.max() > 1.5, "peak {}", v.max());
        // Measure ring period via successive upward crossings of 1.0.
        let t1 = v.first_crossing(1.0).unwrap();
        let after: Vec<(f64, f64)> = v
            .time
            .iter()
            .copied()
            .zip(v.values.iter().copied())
            .filter(|&(t, _)| t > t1 + 0.25 / f0)
            .collect();
        let tr = Trace::new(
            after.iter().map(|p| p.0).collect(),
            after.iter().map(|p| p.1).collect(),
        );
        let t2 = tr.first_crossing(1.0).unwrap();
        let period = 2.0 * (t2 - t1); // half period between crossings
        let f_meas = 1.0 / period;
        assert!(
            (f_meas - f0).abs() / f0 < 0.15,
            "f0 = {f0:e}, measured {f_meas:e}"
        );
    }

    #[test]
    fn coupled_inductors_transfer_energy() {
        // Two mutually coupled branches: driving one induces voltage on
        // the other (open-circuited through a large resistor).
        use ind101_numeric::Matrix;
        let mut c = Circuit::new();
        let a = c.node("a");
        let s1 = c.node("s1");
        let s2 = c.node("s2");
        c.vsrc(a, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0, 10e-12));
        c.resistor(a, s1, 10.0);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1e-9;
        m[(1, 1)] = 1e-9;
        m[(0, 1)] = 0.5e-9;
        m[(1, 0)] = 0.5e-9;
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: vec![(s1, Circuit::GND), (s2, Circuit::GND)],
            m,
        })
        .unwrap();
        c.resistor(s2, Circuit::GND, 1e4);
        let mut opts = TranOptions::new(1e-12, 1e-9);
        opts.start_from_dc = false;
        let res = c.transient(&opts).unwrap();
        let v2 = res.voltage(s2);
        // Induced noise on the victim must be visible.
        assert!(v2.max().abs() > 1e-3 || v2.min().abs() > 1e-3);
    }

    #[test]
    fn inverter_drives_rc_load() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 50e-12, 30e-12));
        c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
        c.capacitor(out, Circuit::GND, 50e-15);
        let res = c.transient(&TranOptions::new(1e-12, 500e-12)).unwrap();
        let v = res.voltage(out);
        // Starts high (input low), ends low.
        assert!(v.values[0] > 1.7, "initial {}", v.values[0]);
        assert!(v.last_value() < 0.1, "final {}", v.last_value());
        assert!(res.newton_iterations > 0);
    }

    #[test]
    fn record_stride_reduces_samples() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.resistor(a, Circuit::GND, 1.0);
        let mut opts = TranOptions::new(1e-12, 100e-12);
        opts.record_stride = 10;
        let res = c.transient(&opts).unwrap();
        assert!(res.len() <= 12);
    }

    #[test]
    fn invalid_options_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.resistor(a, Circuit::GND, 1.0);
        assert!(c.transient(&TranOptions::new(0.0, 1.0)).is_err());
        assert!(c.transient(&TranOptions::new(1.0, 0.5)).is_err());
        let mut opts = TranOptions::new(1e-12, 1e-9);
        opts.record_stride = 0;
        assert!(c.transient(&opts).is_err());
        // Adaptive tuning is validated too.
        let mut opts = TranOptions::new(1e-12, 1e-9).adaptive();
        if let StepControl::Adaptive(a) = &mut opts.step_control {
            a.growth = 0.9;
        }
        assert!(c.transient(&opts).is_err());
        let mut opts = TranOptions::new(1e-12, 1e-9).adaptive();
        if let StepControl::Adaptive(a) = &mut opts.step_control {
            a.lte_rel = 0.0;
            a.lte_abs = 0.0;
        }
        assert!(c.transient(&opts).is_err());
    }

    #[test]
    fn t_stop_equal_to_dt_is_one_step() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.resistor(a, Circuit::GND, 1.0);
        let res = c.transient(&TranOptions::new(1e-12, 1e-12)).unwrap();
        assert_eq!(res.len(), 2); // t = 0 and t = dt
        assert_eq!(res.steps_attempted, 1);
    }

    #[test]
    fn adaptive_rc_matches_analytic_with_fewer_steps() {
        let r = 1_000.0;
        let cap = 1e-12;
        let tau = r * cap;
        let build = || {
            let mut c = Circuit::new();
            let inp = c.node("in");
            let out = c.node("out");
            c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0, 1e-15));
            c.resistor(inp, out, r);
            c.capacitor(out, Circuit::GND, cap);
            (c, out)
        };
        let (c, out) = build();
        let fixed = c.transient(&TranOptions::new(tau / 200.0, 8.0 * tau)).unwrap();
        let adaptive = c
            .transient(&TranOptions::new(tau / 200.0, 8.0 * tau).adaptive())
            .unwrap();
        let vf = fixed.voltage(out);
        let va = adaptive.voltage(out);
        for frac in [0.5, 1.0, 2.0, 4.0, 7.5] {
            let t = frac * tau;
            let expect = 1.0 - (-frac as f64).exp();
            assert!((va.sample(t) - expect).abs() < 5e-3, "t={t:e}: {}", va.sample(t));
            assert!((va.sample(t) - vf.sample(t)).abs() < 5e-3);
        }
        // The controller must actually have grown the step.
        assert!(
            adaptive.steps_attempted < fixed.steps_attempted,
            "adaptive {} vs fixed {}",
            adaptive.steps_attempted,
            fixed.steps_attempted
        );
        // Final times agree.
        assert!((va.time.last().unwrap() - 8.0 * tau).abs() < 1e-18);
    }

    #[test]
    fn adaptive_rejects_steps_across_pulse_edges() {
        // A sharp pulse after a long quiet interval: the controller
        // grows the step during the quiet part and must reject/halve
        // when the edge arrives.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(
            inp,
            Circuit::GND,
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 200e-12,
                rise: 5e-12,
                fall: 5e-12,
                width: 100e-12,
                period: f64::INFINITY,
            },
        );
        c.resistor(inp, out, 1_000.0);
        c.capacitor(out, Circuit::GND, 1e-13); // τ = 100 ps = pulse width
        let res = c
            .transient(&TranOptions::new(1e-12, 600e-12).adaptive())
            .unwrap();
        assert!(res.steps_rejected > 0, "no rejections recorded");
        let v = res.voltage(out);
        // τ equals the pulse width, so the exact response peaks near
        // 1 − e⁻¹ ≈ 0.63 V; far less means the pulse was stepped over.
        assert!(v.max() > 0.5, "pulse missed: max {}", v.max());
    }

    /// The BE start and the trapezoidal steps share one MNA pattern, so
    /// a nonlinear sparse-rung transient analyzes it once: the Woodbury
    /// base hands its symbolic factorization on to the next build.
    #[test]
    fn nonlinear_step_solver_hands_on_its_symbolic_pattern() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(
            inp,
            Circuit::GND,
            SourceWave::step(0.0, 1.8, 20e-12, 20e-12),
        );
        let mut prev = c.node("n0");
        c.inverter(inp, prev, vdd, Circuit::GND, InverterParams::default());
        for k in 1..60 {
            let n = c.node(format!("n{k}"));
            c.resistor(prev, n, 20.0);
            c.capacitor(n, Circuit::GND, 2e-15);
            prev = n;
        }
        let layout = MnaLayout::build(&c);
        let mosfets = TranState::new(&c, &layout, &vec![0.0; layout.n]).mosfets;
        let build = |scheme, hint| {
            let st = assemble_static(&c, &layout, scheme, 1e-12);
            StepSolver::build(
                &st,
                &layout,
                &mosfets,
                true,
                false,
                SolverBackend::Sparse,
                hint,
            )
            .unwrap()
        };
        let be = build(Scheme::Be, None);
        let hint = be
            .symbolic_hint()
            .expect("sparse Woodbury base exposes its pattern");
        let trap = build(Scheme::Trap, Some(&hint));
        let handed_on = trap
            .symbolic_hint()
            .expect("sparse Woodbury base exposes its pattern");
        assert!(
            Arc::ptr_eq(&hint, &handed_on),
            "trapezoidal build re-analyzed the pattern"
        );
    }

    #[test]
    fn adaptive_inverter_matches_fixed_delay() {
        let build = || {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
            c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 50e-12, 30e-12));
            c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
            c.capacitor(out, Circuit::GND, 50e-15);
            (c, out)
        };
        let (c, out) = build();
        let fixed = c.transient(&TranOptions::new(1e-12, 500e-12)).unwrap();
        let mut aopts = TranOptions::new(1e-12, 500e-12).adaptive();
        if let StepControl::Adaptive(a) = &mut aopts.step_control {
            a.dt_max = 8e-12; // keep the MOS switching well resolved
        }
        let adaptive = c.transient(&aopts).unwrap();
        let tf = fixed.voltage(out).first_crossing(0.9).unwrap();
        let ta = adaptive.voltage(out).first_crossing(0.9).unwrap();
        assert!(
            (tf - ta).abs() < 2e-12,
            "50% crossing fixed {tf:e} vs adaptive {ta:e}"
        );
    }
}
