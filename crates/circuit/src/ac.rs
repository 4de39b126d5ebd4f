//! Small-signal AC (frequency-domain) analysis.
//!
//! Used by the loop-inductance flow (paper Section 5): a current probe
//! at the driver port with all capacitance removed gives the loop
//! impedance `Z(jω)`, from which `R(f) = Re Z` and `L(f) = Im Z / ω`.
//!
//! The direct solver has one sweep, [`Circuit::ac_sweep_resilient`];
//! [`Circuit::ac_sweep`] is its strict call (no rescue, no budget, abort
//! on the first failure), so every caller runs the same loop.
//!
//! A sweep plans once. The complex MNA pattern does not depend on the
//! frequency (for `f > 0` every `jωC`/`jωM` stamp is structurally
//! nonzero), so the first frequency's assembled matrix is planned — the
//! rung decision and the sparse rung's symbolic analysis
//! ([`crate::solver`]) — and then factored, and every
//! later frequency runs only the numeric phase on that plan, shared
//! read-only across the worker threads. A frequency whose pattern
//! differs (a stamp that underflows to an exact zero is dropped) is
//! planned again on its own, so every frequency gets exactly the
//! factorization a fresh per-frequency build would give.

use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{MnaLayout, GMIN};
use crate::netlist::{Circuit, NodeId};
use crate::resilience::{
    FailurePolicy, FrequencyRecovery, FrequencyStatus, ResilienceOptions, ResilientAcSweep,
};
use crate::solver::{SolvePlan, Solver, SolverBackend};
use crate::dcop::DcOperatingPoint;
use crate::Result;
use ind101_numeric::partition::{collect_row_blocks_until, uniform_row_blocks};
use ind101_numeric::{CancelToken, Complex64, ParallelConfig, SolveGuard, SymbolicLu, Triplets};
use std::sync::Arc;

/// Most frequencies [`AcOptions::log_sweep`] builds. A deck is outside
/// input, and `.AC DEC 1000000000 1 1e10` would otherwise size a
/// 10¹⁰-point (80 GB) grid; deck lowering checks a card's count against
/// this bound first, so a deck gets a typed error rather than the panic.
pub const MAX_AC_POINTS: usize = 1 << 20;

/// AC sweep options: explicit frequency list.
#[derive(Clone, Debug, PartialEq)]
pub struct AcOptions {
    /// Frequencies to analyze, hertz.
    pub freqs_hz: Vec<f64>,
}

impl AcOptions {
    /// Logarithmic sweep from `f_start` to `f_stop` with
    /// `points_per_decade` points per decade (inclusive of endpoints):
    /// `⌈decades · points_per_decade⌉ + 1` frequencies. Equal endpoints
    /// give the one frequency `[f_start]`.
    ///
    /// # Panics
    ///
    /// Panics with "invalid sweep range" unless `0 < f_start ≤ f_stop`
    /// with `f_stop` finite, on zero points per decade, and — counted in
    /// `f64` before anything is allocated — when the sweep would have
    /// more than [`MAX_AC_POINTS`] frequencies.
    pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Self {
        assert!(
            f_start > 0.0 && f_stop >= f_start && f_stop.is_finite(),
            "invalid sweep range"
        );
        assert!(points_per_decade > 0, "zero points per decade");
        let decades = (f_stop / f_start).log10();
        let count = (decades * points_per_decade as f64).ceil() + 1.0;
        assert!(
            count <= MAX_AC_POINTS as f64,
            "log sweep of {count} frequencies exceeds MAX_AC_POINTS = {MAX_AC_POINTS}"
        );
        let n = count as usize;
        let last = (n - 1).max(1) as f64;
        let freqs_hz = (0..n)
            .map(|i| f_start * 10f64.powf(decades * i as f64 / last))
            .collect();
        Self { freqs_hz }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.freqs_hz.is_empty() {
            return Err(CircuitError::InvalidOptions {
                what: "empty frequency list".to_owned(),
            });
        }
        if self.freqs_hz.iter().any(|&f| !(f > 0.0) || !f.is_finite()) {
            return Err(CircuitError::InvalidOptions {
                what: "frequencies must be positive and finite".to_owned(),
            });
        }
        Ok(())
    }
}

/// AC sweep result: complex unknown vectors per frequency.
#[derive(Clone, Debug)]
pub struct AcResult {
    /// Analyzed frequencies, hertz.
    pub freqs_hz: Vec<f64>,
    data: Vec<Vec<Complex64>>,
    layout: MnaLayout,
}

impl AcResult {
    /// Complex node voltage at sweep point `idx`.
    pub fn voltage(&self, node: NodeId, idx: usize) -> Complex64 {
        self.layout
            .node(node)
            .map_or(Complex64::ZERO, |i| self.data[idx][i])
    }

    /// Complex voltage trace of a node over the whole sweep.
    pub fn voltage_sweep(&self, node: NodeId) -> Vec<Complex64> {
        (0..self.freqs_hz.len())
            .map(|i| self.voltage(node, i))
            .collect()
    }

    /// Complex current through branch `branch` of inductor system `sys`
    /// at sweep point `idx`.
    pub fn inductor_current(&self, sys: usize, branch: usize, idx: usize) -> Complex64 {
        self.data[idx][self.layout.ind_offsets[sys] + branch]
    }

    /// Assembles a result from per-frequency solution vectors (both
    /// sweeps build it through [`ResilientAcSweep`]'s bookkeeping).
    pub(crate) fn from_parts(
        freqs_hz: Vec<f64>,
        data: Vec<Vec<Complex64>>,
        layout: MnaLayout,
    ) -> Self {
        Self {
            freqs_hz,
            data,
            layout,
        }
    }
}

/// How much of each inductor system's `−jωM` block the assembly stamps.
///
/// The matrix-free AC path assembles the same MNA system twice per
/// frequency with different modes: the *operator part* (every stamp
/// except the overridden systems' `−jωM` blocks, which a
/// `LinearOperator` supplies on the fly) and the *preconditioner*
/// (overridden systems reduced to their diagonal `−jωL` stamps, so the
/// factorization stays sparse but still captures the dominant
/// inductive impedance).
#[derive(Clone, Copy, Debug)]
pub(crate) enum AcStampMode<'a> {
    /// Every stamp — the classic dense-path matrix.
    Full,
    /// Skip the whole `−jωM` block of the listed systems (incidence
    /// rows are kept; the operator adds the block during matvecs).
    OperatorPart {
        /// Indices into `Circuit::inductor_systems`.
        overridden: &'a [usize],
    },
    /// Keep only the diagonal `−jωL` stamps of the listed systems.
    DiagonalPreconditioner {
        /// Indices into `Circuit::inductor_systems`.
        overridden: &'a [usize],
    },
}

/// Per-system stamping decision derived from [`AcStampMode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SysStamps {
    Every,
    DiagOnly,
    Skip,
}

impl AcStampMode<'_> {
    fn stamps_for(&self, sys_index: usize) -> SysStamps {
        match self {
            Self::Full => SysStamps::Every,
            Self::OperatorPart { overridden } => {
                if overridden.contains(&sys_index) {
                    SysStamps::Skip
                } else {
                    SysStamps::Every
                }
            }
            Self::DiagonalPreconditioner { overridden } => {
                if overridden.contains(&sys_index) {
                    SysStamps::DiagOnly
                } else {
                    SysStamps::Every
                }
            }
        }
    }
}

impl Circuit {
    /// Runs an AC sweep. Sources contribute through their `ac_mag`
    /// (time-domain waveforms are ignored). Nonlinear devices are
    /// linearized at the DC operating point.
    ///
    /// This is the strict call of [`Circuit::ac_sweep_resilient`]: the
    /// default [`ParallelConfig`], [`ResilienceOptions::strict`] and no
    /// symbolic hint.
    ///
    /// # Errors
    ///
    /// Invalid options or singular systems: the first failure in
    /// frequency order.
    pub fn ac_sweep(&self, opts: &AcOptions) -> Result<AcResult> {
        self.ac_sweep_resilient(
            opts,
            &ParallelConfig::default(),
            &ResilienceOptions::strict(),
            None,
        )
        .map(|sweep| sweep.ac)
    }

    /// Runs an AC sweep under the solve-resilience layer, the one sweep
    /// of the direct solver.
    ///
    /// The first frequency plans the sweep and is solved first; the
    /// remaining per-frequency complex solves are independent, so they
    /// are split into contiguous frequency blocks across `cfg.threads`
    /// scoped worker threads that share the plan read-only. Results (and
    /// the choice of reported error, if any) are in deterministic
    /// frequency order regardless of thread count.
    ///
    /// The sweep shares one [`ind101_numeric::SolveBudget`], workers
    /// poll its [`CancelToken`] (and the wall-clock deadline) before
    /// every frequency, and the [`FailurePolicy`] decides whether a
    /// singular frequency aborts the sweep or is skipped with a typed
    /// record. The direct solver has no Krylov ladder, so
    /// [`ResilienceOptions::rescue`] is ignored here and
    /// [`FailurePolicy::DegradeToDense`] behaves like
    /// [`FailurePolicy::SkipAndReport`] (every solve is already direct).
    /// With no budget set and no failures every policy gives the same
    /// bits.
    ///
    /// `hint` seeds the plan with an externally held symbolic
    /// factorization, the cross-circuit reuse hook for the job server:
    /// circuits lowered from different decks often share one MNA
    /// sparsity pattern (same topology, different values), and the AMD
    /// analysis is the expensive frequency-independent part of a sparse
    /// sweep. Obtain a pattern from [`Circuit::ac_symbolic`]. The hint
    /// is used when the plan lands on the sparse rung and is ignored on
    /// the dense rung. Safety of a wrong hint: the sparse
    /// solver compares the hint's stored pattern exactly (row pointers
    /// and column indices) with the first frequency's assembled matrix
    /// and analyzes afresh on any difference, so a stale hint costs the
    /// analysis it tried to save and is never applied to a pattern it
    /// was not made for.
    ///
    /// # Errors
    ///
    /// Invalid options always abort. A per-frequency solve failure
    /// aborts — first in frequency order — only under
    /// [`FailurePolicy::Abort`], which returns a failed first frequency
    /// before the rest are attempted; cancellation and budget
    /// exhaustion stop the sweep early but still return the partial
    /// result.
    pub fn ac_sweep_resilient(
        &self,
        opts: &AcOptions,
        cfg: &ParallelConfig,
        resilience: &ResilienceOptions,
        hint: Option<Arc<SymbolicLu>>,
    ) -> Result<ResilientAcSweep> {
        opts.validate()?;
        let layout = MnaLayout::build(self);
        // DC operating point for device linearization, only if needed.
        let op = if self.is_nonlinear() {
            Some(self.dc_op()?)
        } else {
            None
        };
        let backend = self.effective_backend();

        enum FreqItem {
            Solved(Vec<Complex64>, f64),
            Failed(CircuitError, f64),
            Stopped,
        }

        let guard = SolveGuard::new(resilience.budget.clone());
        // Internal stop flag: the first worker to observe a budget
        // violation trips it, so blocks that have not started yet are
        // skipped wholesale and running blocks cut at their next
        // frequency boundary.
        let stop = CancelToken::new();
        let attempt = |solve: &mut dyn FnMut() -> Result<Vec<Complex64>>| {
            if stop.is_cancelled() {
                return FreqItem::Stopped;
            }
            if guard.check().is_err() {
                stop.cancel();
                return FreqItem::Stopped;
            }
            let started = guard.elapsed_seconds();
            let outcome = solve();
            let elapsed = guard.elapsed_seconds() - started;
            match outcome {
                Ok(x) => FreqItem::Solved(x, elapsed),
                Err(e) => FreqItem::Failed(e, elapsed),
            }
        };
        // The first frequency plans the sweep, seeded by the hint.
        let (&f0, rest) = split_sweep(opts)?;
        let mut plan = None;
        let first = attempt(&mut || {
            let (p, x) = self.ac_plan_first(&layout, op.as_ref(), f0, backend, hint.as_ref());
            plan = p;
            x
        });
        // Its error is the first in frequency order: under `Abort` it is
        // the sweep's, and the rest need not be planned one by one.
        let first = match first {
            FreqItem::Failed(e, _) if resilience.policy == FailurePolicy::Abort => return Err(e),
            item => item,
        };
        let ranges = uniform_row_blocks(rest.len(), cfg.blocks_for(rest.len()));
        let per_block: Vec<Option<Vec<FreqItem>>> =
            collect_row_blocks_until(&ranges, &stop, |rows| {
                rows.map(|i| {
                    attempt(&mut || {
                        self.ac_solve_planned(&layout, op.as_ref(), rest[i], plan.as_ref(), backend)
                    })
                })
                .collect()
            });
        // Per frequency, in order; `None` for a block that never started.
        let items = std::iter::once(Some(first)).chain(ranges.iter().zip(per_block).flat_map(
            |(range, block)| match block {
                Some(items) => items.into_iter().map(Some).collect::<Vec<_>>(),
                None => range.clone().map(|_| None).collect(),
            },
        ));

        let direct = |freq_hz, status, trajectory: &str, elapsed_seconds| FrequencyRecovery {
            freq_hz,
            status,
            iterations: 1,
            rungs_attempted: 1,
            trajectory: trajectory.to_owned(),
            elapsed_seconds,
        };
        let mut outcomes = Vec::with_capacity(opts.freqs_hz.len());
        let mut any_stopped = false;
        for (&f, item) in opts.freqs_hz.iter().zip(items) {
            outcomes.push(match item {
                Some(FreqItem::Solved(x, elapsed)) => (
                    direct(f, FrequencyStatus::Solved, "direct(converged)", elapsed),
                    Some(x),
                ),
                Some(FreqItem::Failed(e, elapsed)) => {
                    if resilience.policy == FailurePolicy::Abort {
                        return Err(e);
                    }
                    let status = FrequencyStatus::Skipped {
                        error: e.to_string(),
                    };
                    (direct(f, status, "direct(failed)", elapsed), None)
                }
                Some(FreqItem::Stopped) | None => {
                    any_stopped = true;
                    (FrequencyRecovery::not_attempted(f), None)
                }
            });
        }
        let stopped = any_stopped.then(|| {
            guard
                .check()
                .err()
                .map_or_else(|| "sweep stopped".to_owned(), |e| e.to_string())
        });
        Ok(ResilientAcSweep::from_outcomes(outcomes, layout, stopped))
    }

    /// The symbolic analysis an AC sweep of this circuit plans, for
    /// reuse across structurally identical circuits as the `hint` of
    /// [`Circuit::ac_sweep_resilient`].
    ///
    /// The circuit's complex MNA system is assembled at `probe_hz` and
    /// planned exactly as a sweep would plan it. Returns `None` when
    /// that plan has no symbolic analysis — its rung is dense (the dense
    /// backend, a system at or below the small-dense floor, a pattern
    /// too dense for the sparse rung) — and when planning fails or
    /// `probe_hz` is not positive. The pattern is
    /// frequency-independent for `probe_hz > 0` (every jωC/jωM stamp
    /// is structurally nonzero), so any in-band probe yields the same
    /// pattern.
    #[must_use]
    pub fn ac_symbolic(&self, probe_hz: f64) -> Option<Arc<SymbolicLu>> {
        if !(probe_hz > 0.0) {
            return None;
        }
        let layout = MnaLayout::build(self);
        let op = if self.is_nonlinear() {
            self.dc_op().ok()
        } else {
            None
        };
        let (t, _) = self.ac_assemble(&layout, op.as_ref(), probe_hz);
        SolvePlan::new(&t, self.effective_backend())
            .ok()?
            .symbolic()
            .cloned()
    }

    /// Plans a sweep from frequency `f`'s assembled system (seeding the
    /// sparse rung with `hint`) and solves `f` with the new plan. The
    /// plan is `None` when planning failed; the error is then `f`'s.
    fn ac_plan_first(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> (Option<SolvePlan>, Result<Vec<Complex64>>) {
        let (t, rhs) = self.ac_assemble(layout, op, f);
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        match SolvePlan::first(&t, backend, hint) {
            Ok((plan, solver)) => {
                let x = solver.and_then(|s| s.solve(&rhs)).map_err(annotate);
                (Some(plan), x)
            }
            Err(e) => (None, Err(annotate(e))),
        }
    }

    /// Assembles and solves frequency `f` with the sweep's plan. A sweep
    /// whose plan failed plans every frequency afresh, so each one
    /// reports its own failure, as a per-frequency build would.
    fn ac_solve_planned(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        plan: Option<&SolvePlan>,
        backend: SolverBackend,
    ) -> Result<Vec<Complex64>> {
        let (t, rhs) = self.ac_assemble(layout, op, f);
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        let solver = match plan {
            Some(plan) => plan.factor(&t),
            None => Solver::build_with(&t, backend),
        }
        .map_err(annotate)?;
        solver.solve(&rhs).map_err(annotate)
    }

    /// Assembles the complex MNA triplets and RHS at one frequency
    /// (full stamps — the direct-solver path).
    fn ac_assemble(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
    ) -> (Triplets<Complex64>, Vec<Complex64>) {
        self.ac_assemble_mode(layout, op, f, AcStampMode::Full)
    }

    /// Assembles the complex MNA triplets and RHS at one frequency,
    /// with per-inductor-system stamp control (see [`AcStampMode`]).
    pub(crate) fn ac_assemble_mode(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        mode: AcStampMode<'_>,
    ) -> (Triplets<Complex64>, Vec<Complex64>) {
        let omega = 2.0 * std::f64::consts::PI * f;
        let jw = Complex64::jomega(omega);
        let mut t: Triplets<Complex64> = Triplets::new(layout.n, layout.n);
        let mut rhs = vec![Complex64::ZERO; layout.n];
        for i in 0..layout.n_nodes {
            t.push(i, i, Complex64::from_real(GMIN));
        }
        let mut vseq = 0usize;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    stamp_admittance(&mut t, layout, *a, *b, Complex64::from_real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads } => {
                    stamp_admittance(&mut t, layout, *a, *b, jw * *farads);
                }
                Element::Vsrc { plus, minus, ac_mag, .. } => {
                    let row = layout.vsrc_rows[vseq];
                    vseq += 1;
                    if let Some(p) = layout.node(*plus) {
                        t.push(p, row, Complex64::ONE);
                        t.push(row, p, Complex64::ONE);
                    }
                    if let Some(m) = layout.node(*minus) {
                        t.push(m, row, -Complex64::ONE);
                        t.push(row, m, -Complex64::ONE);
                    }
                    rhs[row] = Complex64::from_real(*ac_mag);
                }
                Element::Isrc { from, into, ac_mag, .. } => {
                    if let Some(i) = layout.node(*into) {
                        rhs[i] += Complex64::from_real(*ac_mag);
                    }
                    if let Some(i) = layout.node(*from) {
                        rhs[i] -= Complex64::from_real(*ac_mag);
                    }
                }
                Element::Transistor(m) => {
                    // `op` is Some whenever a transistor exists
                    // (is_nonlinear() gated the DC solve above).
                    let Some(opref) = op.as_ref() else { continue };
                    let lin = m.linearize(
                        opref.voltage(m.d),
                        opref.voltage(m.g),
                        opref.voltage(m.s),
                    );
                    let (d, g, s) = (layout.node(m.d), layout.node(m.g), layout.node(m.s));
                    for (row, sign) in [(d, 1.0), (s, -1.0)] {
                        let Some(r) = row else { continue };
                        if let Some(dc) = d {
                            t.push(r, dc, Complex64::from_real(sign * lin.gds));
                        }
                        if let Some(gc) = g {
                            t.push(r, gc, Complex64::from_real(sign * lin.gm));
                        }
                        if let Some(sc) = s {
                            t.push(r, sc, Complex64::from_real(-sign * (lin.gm + lin.gds)));
                        }
                    }
                }
            }
        }
        for (s, sys) in self.inductor_systems().iter().enumerate() {
            let off = layout.ind_offsets[s];
            let stamps = mode.stamps_for(s);
            for (j, &(a, b)) in sys.branches.iter().enumerate() {
                let row = off + j;
                if let Some(ia) = layout.node(a) {
                    t.push(ia, row, Complex64::ONE);
                    t.push(row, ia, Complex64::ONE);
                }
                if let Some(ib) = layout.node(b) {
                    t.push(ib, row, -Complex64::ONE);
                    t.push(row, ib, -Complex64::ONE);
                }
                match stamps {
                    SysStamps::Every => {
                        for jj in 0..sys.len() {
                            let m = sys.m[(j, jj)];
                            if m != 0.0 {
                                t.push(row, off + jj, -(jw * m));
                            }
                        }
                    }
                    SysStamps::DiagOnly => {
                        let m = sys.m[(j, j)];
                        if m != 0.0 {
                            t.push(row, row, -(jw * m));
                        }
                    }
                    SysStamps::Skip => {}
                }
            }
        }
        (t, rhs)
    }
}

/// A validated sweep's first frequency, which plans the sweep, and the
/// frequencies after it.
fn split_sweep(opts: &AcOptions) -> Result<(&f64, &[f64])> {
    opts.freqs_hz
        .split_first()
        .ok_or_else(|| CircuitError::InvalidOptions {
            what: "empty frequency list".to_owned(),
        })
}

#[inline]
fn stamp_admittance(
    t: &mut Triplets<Complex64>,
    layout: &MnaLayout,
    a: NodeId,
    b: NodeId,
    y: Complex64,
) {
    match (layout.node(a), layout.node(b)) {
        (Some(i), Some(j)) => {
            t.push(i, i, y);
            t.push(j, j, y);
            t.push(i, j, -y);
            t.push(j, i, -y);
        }
        (Some(i), None) | (None, Some(i)) => t.push(i, i, y),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::SourceWave;

    #[test]
    fn rc_lowpass_rolloff() {
        let r = 1_000.0;
        let cap = 1e-12;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsrc_ac(inp, Circuit::GND, SourceWave::dc(0.0), 1.0);
        c.resistor(inp, out, r);
        c.capacitor(out, Circuit::GND, cap);
        let res = c
            .ac_sweep(&AcOptions {
                freqs_hz: vec![fc / 100.0, fc, fc * 100.0],
            })
            .unwrap();
        assert!((res.voltage(out, 0).abs() - 1.0).abs() < 1e-3);
        assert!((res.voltage(out, 1).abs() - 1.0 / 2f64.sqrt()).abs() < 1e-3);
        assert!(res.voltage(out, 2).abs() < 0.02);
    }

    #[test]
    fn series_rl_impedance_probe() {
        // Drive R-L to ground with a 1 A current source; node voltage is Z.
        let r = 5.0;
        let l = 2e-9;
        let mut c = Circuit::new();
        let n = c.node("n");
        let mid = c.node("mid");
        c.isrc_ac(Circuit::GND, n, SourceWave::dc(0.0), 1.0);
        c.resistor(n, mid, r);
        c.inductor(mid, Circuit::GND, l);
        let f = 1e9;
        let res = c.ac_sweep(&AcOptions { freqs_hz: vec![f] }).unwrap();
        let z = res.voltage(n, 0);
        let omega = 2.0 * std::f64::consts::PI * f;
        assert!((z.re - r).abs() < 1e-3, "Re Z = {}", z.re);
        assert!((z.im - omega * l).abs() / (omega * l) < 1e-3, "Im Z = {}", z.im);
    }

    #[test]
    fn log_sweep_covers_range() {
        let opts = AcOptions::log_sweep(1e6, 1e9, 5);
        assert!((opts.freqs_hz[0] - 1e6).abs() < 1.0);
        let last = *opts.freqs_hz.last().unwrap();
        assert!((last - 1e9).abs() / 1e9 < 1e-9);
        assert!(opts.freqs_hz.len() >= 15);
        assert!(opts.freqs_hz.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_sweep_over_equal_endpoints_is_one_frequency() {
        for (f, n) in [(1e9, 1), (3.3e7, 10), (f64::MIN_POSITIVE, 3)] {
            assert_eq!(AcOptions::log_sweep(f, f, n).freqs_hz, vec![f]);
        }
        for (lo, hi, n) in [(1e9, 1e8, 3), (0.0, 1e9, 3), (1e6, 1e9, 0)] {
            let panicked = std::panic::catch_unwind(|| AcOptions::log_sweep(lo, hi, n)).is_err();
            assert!(panicked, "log_sweep({lo:e}, {hi:e}, {n}) must panic");
        }
    }

    #[test]
    fn log_sweep_bounds_its_grid_before_allocating() {
        // Each count is checked in f64 before a frequency is allocated:
        // an infinite stop (whose count used to overflow usize), a NaN
        // stop, one frequency past the bound, a 10¹⁰-point sweep and a
        // span whose ratio overflows to infinity.
        let huge = MAX_AC_POINTS;
        for (lo, hi, n) in [
            (1.0, f64::INFINITY, 10),
            (1.0, f64::NAN, 10),
            (1.0, 10.0, huge),
            (1.0, 1e10, 1_000_000_000),
            (f64::MIN_POSITIVE, f64::MAX, 10_000),
        ] {
            let panicked = std::panic::catch_unwind(|| AcOptions::log_sweep(lo, hi, n)).is_err();
            assert!(panicked, "log_sweep({lo:e}, {hi:e}, {n}) must panic");
        }
        assert_eq!(AcOptions::log_sweep(1e6, 1e8, 4).freqs_hz.len(), 9);
    }

    #[test]
    fn mutual_coupling_induces_victim_voltage() {
        use ind101_numeric::Matrix;
        let mut c = Circuit::new();
        let a = c.node("a");
        let v = c.node("v");
        c.isrc_ac(Circuit::GND, a, SourceWave::dc(0.0), 1.0);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1e-9;
        m[(1, 1)] = 1e-9;
        m[(0, 1)] = 0.4e-9;
        m[(1, 0)] = 0.4e-9;
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: vec![(a, Circuit::GND), (v, Circuit::GND)],
            m,
        })
        .unwrap();
        c.resistor(v, Circuit::GND, 1e6);
        let res = c.ac_sweep(&AcOptions { freqs_hz: vec![1e9] }).unwrap();
        // Victim is essentially open: the aggressor current returns
        // through branch 0 only, inducing ωM·I on the victim node.
        let vv = res.voltage(v, 0).abs();
        let expected = 2.0 * std::f64::consts::PI * 1e9 * 0.4e-9;
        assert!((vv - expected).abs() / expected < 0.05, "v = {vv}");
    }

    /// An RC ladder of `n` nodes driven by a 1 A AC probe, with a
    /// coupled inductor system from the first `k` nodes to ground whose
    /// single off-diagonal pair is `m01` (the rest uncoupled): well past
    /// the small-dense floor, and sparse under `Auto`.
    fn coupled_ladder(n: usize, k: usize, m01: f64) -> Circuit {
        use ind101_numeric::Matrix;
        let mut c = Circuit::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| c.node(format!("n{i}"))).collect();
        c.isrc_ac(Circuit::GND, nodes[0], SourceWave::dc(0.0), 1.0);
        for (i, w) in nodes.windows(2).enumerate() {
            c.resistor(w[0], w[1], 2.0 + 0.1 * i as f64);
            c.capacitor(w[1], Circuit::GND, 1e-13);
        }
        let mut m = Matrix::from_fn(k, k, |i, j| if i == j { 1e-9 } else { 0.0 });
        m[(0, 1)] = m01;
        m[(1, 0)] = m01;
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: nodes[..k].iter().map(|&nd| (nd, Circuit::GND)).collect(),
            m,
        })
        .unwrap();
        c
    }

    /// Sweep frequencies spanning four decades.
    fn sweep() -> AcOptions {
        AcOptions {
            freqs_hz: vec![1e7, 3e8, 1e9, 4e9, 2e10],
        }
    }

    /// Asserts one symbolic analysis for the whole call and one sparse
    /// factorization per frequency, all on that analysis.
    fn assert_planned_once(analyses: usize, factors: &[Arc<SymbolicLu>], nf: usize) {
        assert_eq!(analyses, 1, "one SymbolicLu::analyze per sweep");
        assert_eq!(factors.len(), nf, "one sparse factorization per frequency");
        assert!(
            factors.iter().all(|s| Arc::ptr_eq(s, &factors[0])),
            "every frequency factors on the plan's symbolic analysis"
        );
    }

    /// The strict sweep on `cfg`, unseeded.
    fn strict(c: &Circuit, opts: &AcOptions, cfg: &ParallelConfig) -> Result<AcResult> {
        c.ac_sweep_resilient(opts, cfg, &ResilienceOptions::strict(), None)
            .map(|sweep| sweep.ac)
    }

    #[test]
    fn strict_and_default_sweeps_analyze_once() {
        let mut c = coupled_ladder(40, 20, 0.3e-9);
        c.set_solver_backend(SolverBackend::Sparse);
        let opts = sweep();
        let cfg = ParallelConfig::serial();
        let (strict, analyses, factors) =
            crate::solver::probe::record(|| strict(&c, &opts, &cfg).unwrap());
        assert_planned_once(analyses, &factors, opts.freqs_hz.len());
        // Rescue armed and skipping on, but nothing fails: same bits.
        let (res, analyses, factors) = crate::solver::probe::record(|| {
            c.ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default(), None)
                .unwrap()
        });
        assert_planned_once(analyses, &factors, opts.freqs_hz.len());
        assert!(res.report.clean());
        let out = NodeId(0);
        for i in 0..opts.freqs_hz.len() {
            assert!(strict.voltage(out, i) == res.ac.voltage(out, i));
        }
        // The server's hint source hands out the plan's analysis, and a
        // sweep seeded with it analyzes nothing.
        let hint = c.ac_symbolic(opts.freqs_hz[0]).unwrap();
        let (_, analyses, factors) = crate::solver::probe::record(|| {
            c.ac_sweep_resilient(
                &opts,
                &cfg,
                &ResilienceOptions::default(),
                Some(Arc::clone(&hint)),
            )
            .unwrap()
        });
        assert_eq!(analyses, 0);
        assert!(factors.iter().all(|s| Arc::ptr_eq(s, &hint)));
    }

    #[test]
    fn stale_hint_is_replaced_by_the_plan_of_the_swept_pattern() {
        let mut c = coupled_ladder(40, 20, 0.3e-9);
        c.set_solver_backend(SolverBackend::Sparse);
        let mut other = coupled_ladder(41, 20, 0.3e-9);
        other.set_solver_backend(SolverBackend::Sparse);
        let stale = other.ac_symbolic(1e9).unwrap();
        let opts = sweep();
        let cfg = ParallelConfig::serial();
        let (res, analyses, factors) = crate::solver::probe::record(|| {
            c.ac_sweep_resilient(
                &opts,
                &cfg,
                &ResilienceOptions::default(),
                Some(Arc::clone(&stale)),
            )
            .unwrap()
        });
        assert_planned_once(analyses, &factors, opts.freqs_hz.len());
        assert!(!Arc::ptr_eq(&factors[0], &stale));
        let unseeded = strict(&c, &opts, &cfg).unwrap();
        for i in 0..opts.freqs_hz.len() {
            assert!(unseeded.voltage(NodeId(3), i) == res.ac.voltage(NodeId(3), i));
        }
    }

    #[test]
    fn ac_symbolic_is_none_off_the_sparse_rung() {
        // Auto plans the ladder sparse and hands out its one symbolic
        // analysis — unless `IND101_SOLVER_BACKEND` forces the dense
        // family onto `Auto`, which makes none.
        let c = coupled_ladder(40, 20, 0.3e-9);
        let (sym, analyses, _) = crate::solver::probe::record(|| c.ac_symbolic(1e9));
        let forced_dense = SolverBackend::Auto.resolve() == SolverBackend::Dense;
        assert_eq!(sym.is_some(), !forced_dense);
        assert_eq!(analyses, usize::from(!forced_dense));
        let mut dense = coupled_ladder(40, 20, 0.3e-9);
        dense.set_solver_backend(SolverBackend::Dense);
        assert!(dense.ac_symbolic(1e9).is_none());
        let mut sparse = coupled_ladder(40, 20, 0.3e-9);
        sparse.set_solver_backend(SolverBackend::Sparse);
        assert!(sparse.ac_symbolic(1e9).is_some());
        assert!(sparse.ac_symbolic(0.0).is_none());
    }

    #[test]
    fn underflowing_mutual_stamp_is_planned_again() {
        // ω·M₀₁ is a subnormal at 1 GHz but underflows to an exact zero
        // at 1 mHz, where `Triplets::push` drops the two stamps: that
        // frequency's pattern is not the planned one.
        let m01 = 5e-324;
        let opts = AcOptions {
            freqs_hz: vec![1e9, 1e-3, 5e8],
        };
        for backend in [
            SolverBackend::Auto,
            SolverBackend::Sparse,
            SolverBackend::Dense,
        ] {
            let mut c = coupled_ladder(40, 20, m01);
            c.set_solver_backend(backend);
            let cfg = ParallelConfig::serial();
            let (swept, analyses, factors) =
                crate::solver::probe::record(|| strict(&c, &opts, &cfg).unwrap());
            if backend == SolverBackend::Sparse {
                // The plan, plus one analysis of the underflowed pattern;
                // the last frequency is back on the plan's analysis.
                assert_eq!(analyses, 2);
                assert!(!Arc::ptr_eq(&factors[0], &factors[1]));
                assert!(Arc::ptr_eq(&factors[0], &factors[2]));
            }
            let resilient = c
                .ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default(), None)
                .unwrap();
            for (i, &f) in opts.freqs_hz.iter().enumerate() {
                let fresh = c.ac_sweep(&AcOptions { freqs_hz: vec![f] }).unwrap();
                for node in 0..40 {
                    let v = fresh.voltage(NodeId(node), 0);
                    assert!(swept.voltage(NodeId(node), i) == v, "{backend:?} f = {f}");
                    assert!(
                        resilient.ac.voltage(NodeId(node), i) == v,
                        "{backend:?} f = {f}"
                    );
                }
            }
        }
    }

    /// The ladder with two voltage sources across the same node: their
    /// two rows share one column, so the pattern is structurally
    /// singular and a forced sparse plan fails.
    fn two_vsrc_ladder() -> Circuit {
        let mut c = coupled_ladder(40, 20, 0.3e-9);
        let n0 = NodeId(0);
        c.vsrc_ac(n0, Circuit::GND, SourceWave::dc(0.0), 1.0);
        c.vsrc_ac(n0, Circuit::GND, SourceWave::dc(0.0), 1.0);
        c
    }

    #[test]
    fn failed_plan_is_reported_at_every_frequency() {
        // Every frequency reports the error a one-frequency sweep
        // reports, under both thread counts.
        let mut c = two_vsrc_ladder();
        let opts = sweep();
        for backend in [SolverBackend::Sparse, SolverBackend::Auto] {
            c.set_solver_backend(backend);
            for threads in [1, 3] {
                let cfg = ParallelConfig::with_threads(threads);
                let res = c
                    .ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default(), None)
                    .unwrap();
                assert_eq!(res.report.skipped_count(), opts.freqs_hz.len());
                for (rec, &f) in res.report.frequencies.iter().zip(&opts.freqs_hz) {
                    let alone = c.ac_sweep(&AcOptions { freqs_hz: vec![f] }).unwrap_err();
                    assert_eq!(
                        rec.status,
                        FrequencyStatus::Skipped {
                            error: alone.to_string()
                        }
                    );
                }
                let err = strict(&c, &opts, &cfg).unwrap_err();
                if backend == SolverBackend::Sparse {
                    assert!(
                        matches!(
                            err,
                            CircuitError::Numeric(
                                ind101_numeric::NumericError::StructurallySingular { .. }
                            )
                        ),
                        "{err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_first_plan_aborts_before_planning_the_rest() {
        // Under `Abort` the first frequency's error is the sweep's: the
        // other frequencies are not planned one by one before it returns.
        let mut c = two_vsrc_ladder();
        c.set_solver_backend(SolverBackend::Sparse);
        let opts = sweep();
        let (err, analyses, _) = crate::solver::probe::record(|| c.ac_sweep(&opts).unwrap_err());
        assert_eq!(analyses, 1, "ac_sweep: {err}");
        let (strict_err, analyses, _) = crate::solver::probe::record(|| {
            strict(&c, &opts, &ParallelConfig::serial()).unwrap_err()
        });
        assert_eq!(analyses, 1, "strict sweep: {strict_err}");
        assert_eq!(strict_err.to_string(), err.to_string());
    }

    #[test]
    fn empty_sweep_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 1.0);
        assert!(c.ac_sweep(&AcOptions { freqs_hz: vec![] }).is_err());
        assert!(c
            .ac_sweep(&AcOptions {
                freqs_hz: vec![-1.0]
            })
            .is_err());
    }
}
