//! Transient analysis: trapezoidal integration with a backward-Euler
//! start, in one stepping loop under fixed or adaptive step control.
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
//! [`Circuit::transient`] is one loop. The [`StepControl`] decides where
//! each step lands and what a failed step means:
//!
//! * **Fixed** (the default) — step `n` lands at `n·dt`, a Newton
//!   failure is fatal, and no solve is refined, so the pinned fixed-step
//!   waveforms stay bit for bit.
//! * **Adaptive** — each trapezoidal step is checked against a linear
//!   predictor; when the predictor–corrector difference (an LTE proxy)
//!   exceeds tolerance, or Newton fails to converge, the step is
//!   rejected and retried at half the size. Accepted steps regrow
//!   geometrically toward `dt_max`. Falling below `dt_min` aborts with
//!   [`CircuitError::StepUnderflow`] rather than looping forever.
//!   Ill-conditioned dense solves are refined.
//!
//! Every step matrix — the backward-Euler start, the trapezoidal steps,
//! each adaptive step size — has one pattern, so a transient keeps one
//! `SolvePlan`. Each `(scheme, step size)` is factored once into a
//! `WoodburySolver` (MOSFETs as rank-one updates, see
//! `crate::nonlinear`; none for a linear circuit).

use crate::elements::{Element, Mosfet};
use crate::error::CircuitError;
use crate::mna::{annotate_singular, assemble_static, stamp_current, MnaLayout, Scheme};
use crate::nonlinear::WoodburySolver;
use crate::netlist::{Circuit, NodeId};
use crate::rescue::{RescuePolicy, RescueReport};
use crate::solver::factor_planned;
use crate::waveform::Trace;
use crate::Result;
use ind101_numeric::Matrix;

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

/// Most steps one run may take: a fixed run takes `⌈t_stop / dt⌉`, an
/// adaptive one at least `⌈t_stop / dt_max⌉`. Past 2⁵³ steps, `(n + 1)
/// as f64 * dt` no longer gives each step a distinct time.
const MAX_STEPS: u64 = 1 << 53;

/// Most samples a run reserves before its first step; a longer record
/// grows as the run goes.
const MAX_RESERVED_SAMPLES: usize = 1 << 16;

/// Default relative local-truncation-error target per step.
const DEFAULT_LTE_REL: f64 = 1e-3;
/// Default absolute LTE floor, volts — keeps near-zero nodes from
/// demanding infinite accuracy.
const DEFAULT_LTE_ABS: f64 = 1e-6;

impl AdaptiveOptions {
    /// These options with the automatic (`0.0`) step bounds resolved
    /// against the initial step `dt`: `dt_min = dt · 2⁻⁴⁰`,
    /// `dt_max = 64 · dt`.
    fn resolved(&self, dt: f64) -> Self {
        let mut a = self.clone();
        if !(a.dt_min > 0.0) {
            a.dt_min = dt * 2.0f64.powi(-40);
        }
        if !(a.dt_max > 0.0) {
            a.dt_max = 64.0 * dt;
        }
        a
    }
}

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
        if !(self.t_stop >= self.dt) || !self.t_stop.is_finite() {
            return invalid(format!(
                "t_stop = {} must be finite and at least dt = {}",
                self.t_stop, self.dt
            ));
        }
        if self.record_stride == 0 {
            return invalid("record_stride must be ≥ 1".to_owned());
        }
        let steps = (self.t_stop / self.dt).ceil();
        if self.step_control == StepControl::Fixed && steps > MAX_STEPS as f64 {
            return invalid(format!(
                "t_stop / dt = {steps:e} fixed steps (at most 2^53)"
            ));
        }
        if let StepControl::Adaptive(a) = &self.step_control {
            if !(a.growth > 1.0) || !a.growth.is_finite() {
                return invalid(format!("adaptive growth = {} must exceed 1", a.growth));
            }
            let bad = |v: f64| !(v.is_finite() && v >= 0.0);
            if bad(a.lte_rel) || bad(a.lte_abs) || (a.lte_rel == 0.0 && a.lte_abs == 0.0) {
                return invalid(format!(
                    "adaptive LTE tolerances rel = {}, abs = {} (need finite, ≥ 0, not both 0)",
                    a.lte_rel, a.lte_abs
                ));
            }
            if a.dt_min < 0.0 || (a.dt_min > 0.0 && a.dt_min > self.dt) {
                return invalid(format!("adaptive dt_min = {} (need 0 ≤ dt_min ≤ dt)", a.dt_min));
            }
            if a.dt_max < 0.0 || (a.dt_max > 0.0 && a.dt_max < self.dt) {
                return invalid(format!("adaptive dt_max = {} (need 0 or ≥ dt)", a.dt_max));
            }
            let fewest = (self.t_stop / a.resolved(self.dt).dt_max).ceil();
            if fewest > MAX_STEPS as f64 {
                return invalid(format!(
                    "t_stop / dt_max = {fewest:e} adaptive steps at least (at most 2^53)"
                ));
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

/// Outcome of solving one time point.
struct StepSolve {
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    /// Infinity norm of the last Newton update (0 for linear solves).
    last_delta: f64,
}

/// Solves one time point: one base solve of `rhs`, then Newton from
/// `x_guess` over the devices (none for a linear circuit).
fn solve_time_point(
    wb: &WoodburySolver,
    mosfets: &[Mosfet],
    rhs: &[f64],
    x_guess: &[f64],
    max_newton: usize,
) -> Result<StepSolve> {
    let y0 = wb.base_solve(rhs)?;
    if mosfets.is_empty() {
        return Ok(StepSolve {
            x: y0,
            converged: true,
            iterations: 0,
            last_delta: 0.0,
        });
    }
    let mut out = StepSolve {
        x: x_guess.to_vec(),
        converged: false,
        iterations: 0,
        last_delta: f64::INFINITY,
    };
    #[cfg(feature = "solver-faults")]
    if crate::faults::take_tran_newton_stall() {
        return Ok(out);
    }
    while !out.converged && out.iterations < max_newton {
        out.iterations += 1;
        // A singular Jacobian or a non-finite update fails the time
        // point like a stalled Newton run.
        let Some(sol) = wb.newton_update(mosfets, &out.x, &y0) else {
            out.last_delta = f64::INFINITY;
            break;
        };
        out.last_delta = sol
            .iter()
            .zip(&out.x)
            .fold(0.0, |d: f64, (s, g)| d.max((s - g).abs()));
        out.x = sol;
        out.converged = out.last_delta < NEWTON_TOL;
    }
    Ok(out)
}

/// The step control of one run: where each step lands, and what a
/// failed step means.
enum Stepper {
    /// Step `n` lands at `n·dt`; a failed step is fatal.
    Fixed { dt: f64, steps: usize },
    /// LTE control: `a` with `dt_min`/`dt_max` resolved, `h` the next
    /// step asked for, and `prev` the accepted point before the current
    /// one with the step that led on from it.
    Adaptive {
        a: AdaptiveOptions,
        h: f64,
        prev: Option<(Vec<f64>, f64)>,
    },
}

impl Stepper {
    fn new(opts: &TranOptions) -> Self {
        match &opts.step_control {
            StepControl::Fixed => Self::Fixed {
                dt: opts.dt,
                steps: (opts.t_stop / opts.dt).ceil() as usize,
            },
            StepControl::Adaptive(a) => {
                let a = a.resolved(opts.dt);
                let h = opts.dt.min(a.dt_max);
                Self::Adaptive { a, h, prev: None }
            }
        }
    }

    /// Where the step after `accepted` steps (the last landing at `t`)
    /// lands, and its size; `None` once the run is done.
    fn next_step(&self, t: f64, accepted: usize, t_stop: f64) -> Option<(f64, f64)> {
        match self {
            // The product, not a running sum: it pins the time bits.
            Self::Fixed { dt, steps } => {
                (accepted < *steps).then(|| ((accepted + 1) as f64 * dt, *dt))
            }
            Self::Adaptive { h, .. } => {
                let remaining = t_stop - t;
                let h = h.min(remaining);
                (remaining > t_stop * END_OF_SWEEP_REL_TOL).then_some((t + h, h))
            }
        }
    }

    /// Takes the step of size `h` from `x` at `t` to `out` at `t_next`
    /// (moving `out.x` into `x`), or rejects it: `Ok(false)`.
    ///
    /// Fixed control fails the run when Newton failed. Adaptive control
    /// also rejects a step whose LTE proxy exceeds 1 — the worst
    /// per-unknown gap between `out.x` and the linear predictor
    /// `x + (h/h_prev)·(x − x_prev)`, against `lte_abs + lte_rel·|x|` —
    /// and retries at half the size down to `dt_min`; it regrows the
    /// step geometrically after a comfortable one (ratio below ½) and
    /// holds it near tolerance.
    fn settle(
        &mut self,
        x: &mut Vec<f64>,
        out: StepSolve,
        t: f64,
        t_next: f64,
        h: f64,
    ) -> Result<bool> {
        let (a, next, prev) = match self {
            Self::Fixed { .. } if out.converged => {
                *x = out.x;
                return Ok(true);
            }
            Self::Fixed { .. } => {
                return Err(CircuitError::NewtonDiverged {
                    time: t_next,
                    iterations: out.iterations,
                    residual: out.last_delta,
                    damping_limit: f64::INFINITY,
                })
            }
            Self::Adaptive { a, h, prev } => (a, h, prev),
        };
        let mut ratio = if out.converged { 0.0f64 } else { f64::INFINITY };
        if let Some((x_prev, h_prev)) = prev.as_ref().filter(|_| out.converged) {
            let r = h / h_prev;
            for i in 0..x.len() {
                let pred = x[i] + r * (x[i] - x_prev[i]);
                let tol = a.lte_abs + a.lte_rel * x[i].abs().max(out.x[i].abs());
                if tol > 0.0 {
                    ratio = ratio.max((out.x[i] - pred).abs() / tol);
                }
            }
        }
        if ratio > 1.0 {
            *next = h * 0.5;
            if *next < a.dt_min {
                return Err(CircuitError::StepUnderflow {
                    time: t,
                    dt_min: a.dt_min,
                });
            }
            return Ok(false);
        }
        *prev = Some((std::mem::replace(x, out.x), h));
        *next = if ratio < 0.5 {
            (h * a.growth).min(a.dt_max)
        } else {
            h
        };
        Ok(true)
    }
}

/// Companion-model history of the reactive elements.
struct TranState {
    caps: Vec<(NodeId, NodeId, f64)>,
    cap_state: Vec<CapState>,
    /// Inductor branch history, one per system.
    inductors: Vec<InductorHistory>,
}

/// One inductor system's branch history, and its coupling matrix laid
/// out by columns for the history flux `M·i`.
struct InductorHistory {
    /// Branch currents.
    current: Vec<f64>,
    /// Branch voltages.
    voltage: Vec<f64>,
    /// `Mᵀ`, whose row `c` is column `c` of `M`; `None` when `M` is
    /// bitwise symmetric, so that its own row `c` is that column.
    transposed: Option<Matrix<f64>>,
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
        let inductors = ckt
            .inductor_systems()
            .iter()
            .enumerate()
            .map(|(s, sys)| {
                let (m, n) = (&sys.m, sys.len());
                let symmetric =
                    (0..n).all(|i| (0..i).all(|j| m[(i, j)].to_bits() == m[(j, i)].to_bits()));
                InductorHistory {
                    current: x[layout.ind_offsets[s]..][..n].to_vec(),
                    voltage: vec![0.0; n],
                    transposed: (!symmetric).then(|| m.transpose()),
                }
            })
            .collect();
        Self {
            caps,
            cap_state,
            inductors,
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
            let hist = &self.inductors[s];
            let columns = hist.transposed.as_ref().unwrap_or(&sys.m);
            let flux = &mut rhs[layout.ind_offsets[s]..][..sys.len()];
            flux.fill(0.0);
            // M·i column by column: flux[j] receives M[j][c]·i[c] for c
            // ascending, the additions of a row-by-row dot product in
            // the same order, while the inner loop runs across j.
            for (c, &ic) in hist.current.iter().enumerate() {
                for (fj, &mjc) in flux.iter_mut().zip(columns.row(c)) {
                    *fj += mjc * ic;
                }
            }
            for (fj, &v) in flux.iter_mut().zip(&hist.voltage) {
                *fj = -k * *fj - if trap { v } else { 0.0 };
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
            let hist = &mut self.inductors[s];
            for (j, &(a, b)) in sys.branches.iter().enumerate() {
                hist.current[j] = x_next[off + j];
                hist.voltage[j] = node_v(layout, x_next, a) - node_v(layout, x_next, b);
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
        let layout = MnaLayout::build(self);
        let mosfets = self.mosfets();
        let annotate = |e| annotate_singular(self, &layout, e);
        // Start from the DC operating point (rescued when the options
        // enable a ladder), or from all-zero state.
        let (mut x, rescue) = if opts.start_from_dc {
            let (op, report) = self.dc_op_with(&opts.rescue, None)?;
            (op.x, opts.rescue.any_enabled().then_some(report))
        } else {
            (vec![0.0; layout.n], None)
        };
        let mut state = TranState::new(self, &layout, &x);
        let mut stepper = Stepper::new(opts);
        let (samples, refine) = match stepper {
            Stepper::Fixed { steps, .. } => (
                (steps / opts.record_stride + 2).min(MAX_RESERVED_SAMPLES),
                false,
            ),
            Stepper::Adaptive { .. } => (1, true),
        };
        let mut result = TranResult {
            time: Vec::with_capacity(samples),
            data: Vec::with_capacity(samples),
            layout: layout.clone(),
            newton_iterations: 0,
            steps_attempted: 0,
            steps_rejected: 0,
            rescue,
        };
        result.time.push(0.0);
        result.data.push(x.clone());

        // One factored system per (scheme, step size), all under one
        // plan; `current` indexes the last step's, so a step looks one
        // up only when its scheme or size changes.
        let backend = self.effective_backend();
        let mut plan = None;
        let mut solvers: Vec<((Scheme, u64), WoodburySolver)> = Vec::new();
        let mut current = 0;
        let mut t = 0.0f64;
        let mut accepted = 0usize;
        while let Some((t_next, h)) = stepper.next_step(t, accepted, opts.t_stop) {
            let scheme = if accepted == 0 { Scheme::Be } else { Scheme::Trap };
            let key = (scheme, h.to_bits());
            if solvers.get(current).map(|s| s.0) != Some(key) {
                current = match solvers.iter().position(|s| s.0 == key) {
                    Some(i) => i,
                    None => {
                        let st = assemble_static(self, &layout, scheme, h);
                        let wb = factor_planned(&mut plan, &st, backend, None)
                            .map(|b| if refine { b.with_refinement() } else { b })
                            .and_then(|b| WoodburySolver::new(b, &layout, &mosfets))
                            .map_err(annotate)?;
                        solvers.push((key, wb));
                        solvers.len() - 1
                    }
                };
            }
            let (k, trap) = (scheme.k(h), scheme == Scheme::Trap);
            let rhs = state.assemble_rhs(self, &layout, t_next, k, trap);
            result.steps_attempted += 1;
            let out = solve_time_point(&solvers[current].1, &mosfets, &rhs, &x, opts.max_newton)?;
            result.newton_iterations += out.iterations;
            if !stepper.settle(&mut x, out, t, t_next, h)? {
                result.steps_rejected += 1;
                continue;
            }
            state.commit(self, &layout, &x, k, trap);
            t = t_next;
            accepted += 1;
            if accepted % opts.record_stride == 0 {
                result.time.push(t);
                result.data.push(x.clone());
            }
        }
        // Always include the final accepted point.
        if result.time.last() != Some(&t) {
            result.time.push(t);
            result.data.push(x);
        }
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
    use crate::solver::{probe, SolverBackend};
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
    fn history_flux_matches_row_dot_products_bit_for_bit() {
        // A bitwise symmetric coupling matrix, and one asymmetric within
        // the symmetry tolerance: the column-order flux must equal the
        // row-by-row dot products M[j]·i exactly, in both.
        let n = 7;
        for asymmetry in [0.0, 1e-12] {
            let mut c = Circuit::new();
            let nodes: Vec<NodeId> = (0..n).map(|k| c.node(format!("n{k}"))).collect();
            let m = Matrix::from_fn(n, n, |i, j| {
                let base = 1e-9 / (1.0 + (i as f64 - j as f64).abs()).powf(1.3);
                if i < j {
                    base * (1.0 + asymmetry)
                } else {
                    base
                }
            });
            c.add_inductor_system(crate::netlist::InductorSystem {
                branches: nodes.iter().map(|&a| (a, Circuit::GND)).collect(),
                m: m.clone(),
            })
            .unwrap();
            let layout = MnaLayout::build(&c);
            let x: Vec<f64> = (0..layout.n).map(|i| (0.37 * i as f64).sin()).collect();
            let mut state = TranState::new(&c, &layout, &x);
            assert_eq!(state.inductors[0].transposed.is_some(), asymmetry != 0.0);
            state.commit(&c, &layout, &x, 2e12, true);
            let (k, off) = (3e12, layout.ind_offsets[0]);
            let rhs = state.assemble_rhs(&c, &layout, 1e-9, k, true);
            let current = &x[off..off + n];
            for j in 0..n {
                let v = node_v(&layout, &x, nodes[j]);
                let want = -k * ind101_numeric::dot(m.row(j), current) - v;
                assert_eq!(rhs[off + j].to_bits(), want.to_bits(), "row {j}");
            }
        }
    }

    /// An inverter, its input rising at 50 ps, driving 50 fF.
    fn inverter_rc() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 50e-12, 30e-12));
        c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
        c.capacitor(out, Circuit::GND, 50e-15);
        (c, out)
    }

    #[test]
    fn inverter_drives_rc_load() {
        let (c, out) = inverter_rc();
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
        // Non-finite stop times and LTE tolerances are typed errors, not
        // an endless run, an empty one, or LTE control silently off.
        let invalid = |opts: &TranOptions| {
            matches!(c.transient(opts), Err(CircuitError::InvalidOptions { .. }))
        };
        assert!(invalid(&TranOptions::new(1e-12, f64::INFINITY)));
        assert!(invalid(&TranOptions::new(1e-12, f64::INFINITY).adaptive()));
        assert!(invalid(&TranOptions::new(1e-12, f64::NAN)));
        // So is a finite fixed-step count past 2^53, at any stride: not an
        // overflow, a capacity panic or an endless run.
        assert!(invalid(&TranOptions::new(1e-300, 1.0)));
        let mut opts = TranOptions::new(1e-300, 1.0);
        opts.record_stride = 2;
        assert!(invalid(&opts));
        let two_53 = 2f64.powi(53);
        assert!(TranOptions::new(1.0, two_53).validate().is_ok());
        assert!(TranOptions::new(1.0, two_53 + 2.0).validate().is_err());
        // An adaptive run takes at least ⌈t_stop / dt_max⌉ steps, with
        // dt_max resolved as the stepper resolves it (64·dt when 0), so
        // the same bound holds there (checked through `validate` only).
        assert!(matches!(
            TranOptions::new(1e-300, 1.0).adaptive().validate(),
            Err(CircuitError::InvalidOptions { .. })
        ));
        let adaptive = |t_stop: f64, dt_max: f64| {
            let mut opts = TranOptions::new(1.0, t_stop).adaptive();
            if let StepControl::Adaptive(a) = &mut opts.step_control {
                a.dt_max = dt_max;
            }
            opts
        };
        assert!(adaptive(two_53, 1.0).validate().is_ok());
        assert!(adaptive(two_53 + 2.0, 1.0).validate().is_err());
        assert!(adaptive(64.0 * two_53, 0.0).validate().is_ok());
        assert!(adaptive(64.0 * (two_53 + 2.0), 0.0).validate().is_err());
        for (rel, abs) in [
            (f64::NAN, 1e-6),
            (f64::INFINITY, 1e-6),
            (1e-3, f64::NAN),
            (1e-3, f64::INFINITY),
        ] {
            let mut opts = TranOptions::new(1e-12, 1e-9).adaptive();
            if let StepControl::Adaptive(a) = &mut opts.step_control {
                a.lte_rel = rel;
                a.lte_abs = abs;
            }
            assert!(invalid(&opts), "lte_rel = {rel}, lte_abs = {abs}");
        }
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
            let expect = 1.0 - (-frac).exp();
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

    /// Rescue-suite testbench: an inverter, its input held low, driving
    /// a 60-section RC ladder (above `SMALL_DENSE`, so every rung is
    /// available).
    fn inverter_ladder(backend: SolverBackend) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::dc(0.0));
        c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
        let mut prev = out;
        for i in 0..60 {
            let nd = c.node(format!("lad{i}"));
            c.resistor(prev, nd, 50.0);
            c.capacitor(nd, Circuit::GND, 10e-15);
            prev = nd;
        }
        c.resistor(prev, Circuit::GND, 1e6);
        c.set_solver_backend(backend);
        c
    }

    /// One plan per transient: the backward-Euler start plans the
    /// pattern, and the trapezoidal steps and every adaptive step size
    /// only refactor it. Every backend but `Dense` plans the sparse rung,
    /// which analyzes the pattern once.
    #[test]
    fn fixed_and_adaptive_transients_plan_once() {
        for backend in [SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto] {
            let c = inverter_ladder(backend);
            let mut fixed = TranOptions::new(1e-12, 100e-12);
            fixed.start_from_dc = false;
            let adaptive = fixed.clone().adaptive();
            for opts in [fixed, adaptive] {
                let (res, plans, analyses) = probe::count_planning(|| c.transient(&opts).unwrap());
                let what = format!("{backend:?} {:?}", opts.step_control);
                assert_eq!(plans, 1, "{what}");
                let dense = backend.resolve() == SolverBackend::Dense;
                assert_eq!(analyses, usize::from(!dense), "{what}");
                let (attempted, rejected) = match opts.step_control {
                    StepControl::Fixed => (100, 0),
                    StepControl::Adaptive(_) => (634, 37),
                };
                assert_eq!((res.steps_attempted, res.steps_rejected), (attempted, rejected));
            }
        }
    }

    #[test]
    fn adaptive_inverter_matches_fixed_delay() {
        let (c, out) = inverter_rc();
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
