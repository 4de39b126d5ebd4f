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
//! ([`crate::solver`]) — and then factored; the plan is shared
//! read-only across the worker threads.
//!
//! Later frequencies refactor in place. The assembly is one stamping
//! routine over a sink ([`StampSink`]): the first frequency stamps into
//! [`Triplets`], and when it lands on the sparse rung and more
//! frequencies follow, a *stamp map* is recorded from its triplets: one
//! `u32` per nonzero stamp naming the CSR value slot it lands in, with a
//! tag bit on the first stamp into each slot. Each worker then holds one
//! sparse solver (on the serial path, the first frequency's own) and per
//! frequency stamps straight into that solver's CSR values ([`SlotFill`]):
//! the first stamp into a slot overwrites it and later ones add to it in
//! stamp order, as `Triplets::to_csr` sums duplicates, and exact zeros
//! are skipped as `Triplets::push` skips them. Every stamp's coordinate
//! is checked in O(1) against the CSR's own row pointers and column
//! indices, and the stream's length against the map's. The held
//! `SparseLu` is then refactored in place, its dense fallback dropped,
//! and the frequency solved with the usual refinement: no triplets, no
//! `to_csr` and no factor allocation per frequency, and the same bits.
//!
//! A frequency whose stream leaves the map (a stamp that underflows to
//! an exact zero is dropped, so the stream shifts), or whose in-place
//! refactor errs (a singular static pivot), is assembled again into
//! triplets and factored through the plan, which plans a differing
//! pattern afresh and gives `Auto` its dense retry. So every frequency
//! gets exactly the factorization — and the error — a fresh
//! per-frequency build would give. A one-frequency sweep records no map.

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
use ind101_numeric::partition::{map_until, uniform_row_blocks};
use ind101_numeric::{
    CancelToken, Complex64, CsrMatrix, ParallelConfig, Scalar, SolveGuard, SymbolicLu, Triplets,
};
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
        // The first frequency plans the sweep, seeded by the hint, and
        // records the stamp map when more frequencies follow.
        let (&f0, rest) = split_sweep(opts)?;
        let mut plan = None;
        let mut refill = None;
        let first = attempt(&mut || {
            let (p, x, kept) = self.ac_plan_first(
                &layout,
                op.as_ref(),
                f0,
                backend,
                hint.as_ref(),
                cfg,
                !rest.is_empty(),
            );
            plan = p;
            refill = kept;
            x
        });
        // Its error is the first in frequency order: under `Abort` it is
        // the sweep's, and the rest need not be planned one by one.
        let first = match first {
            FreqItem::Failed(e, _) if resilience.policy == FailurePolicy::Abort => return Err(e),
            item => item,
        };
        let ranges = uniform_row_blocks(rest.len(), cfg.blocks_for(rest.len()));
        // Each worker factors on its share of the threads: serially when
        // the frequencies already fill them.
        let par = cfg.share(ranges.len());
        let (map, held) = refill.unzip();
        // The first worker holds the first frequency's solver; the
        // others take their own on their first frequency.
        let workers: Vec<_> = ranges
            .iter()
            .cloned()
            .zip(std::iter::once(held).chain(std::iter::repeat_with(|| None)))
            .collect();
        let per_block: Vec<Option<Vec<FreqItem>>> = map_until(workers, &stop, |(rows, mut held)| {
            rows.map(|i| {
                attempt(&mut || {
                    self.ac_solve_frequency(
                        &layout,
                        op.as_ref(),
                        rest[i],
                        plan.as_ref(),
                        backend,
                        map.as_deref(),
                        &mut held,
                        &par,
                    )
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
        let (t, _) = self.ac_triplets(&layout, op.as_ref(), probe_hz, AcStampMode::Full);
        SolvePlan::new(&t, self.effective_backend())
            .ok()?
            .symbolic()
            .cloned()
    }

    /// Plans a sweep from frequency `f`'s assembled system (seeding the
    /// sparse rung with `hint`) and solves `f` with the new plan, factored
    /// on `par`'s threads. The plan is `None` when planning failed; the
    /// error is then `f`'s. When `keep` and `f` factored on the sparse
    /// rung, its solver comes back with the stamp map of `f`'s triplets,
    /// for the later frequencies to refill in place.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn ac_plan_first(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
        par: &ParallelConfig,
        keep: bool,
    ) -> (
        Option<SolvePlan>,
        Result<Vec<Complex64>>,
        Option<(Vec<u32>, Solver<Complex64>)>,
    ) {
        let (t, rhs) = self.ac_triplets(layout, op, f, AcStampMode::Full);
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        match SolvePlan::first(&t, backend, hint, par) {
            Ok((plan, Ok(solver))) => {
                let x = solver.solve(&rhs).map_err(annotate);
                let map = solver
                    .sparse_parts()
                    .filter(|_| keep)
                    .and_then(|(a, _)| record_stamp_map(&t, a));
                (Some(plan), x, map.map(|map| (map, solver)))
            }
            Ok((plan, Err(e))) => (Some(plan), Err(annotate(e)), None),
            Err(e) => (None, Err(annotate(e)), None),
        }
    }

    /// Solves frequency `f` with the sweep's plan, factoring on `par`'s
    /// threads.
    ///
    /// With a stamp map and a held sparse solver, the stamps go straight
    /// into the held solver's CSR values and its factor is refactored in
    /// place. A stamp stream that leaves the map, or a refactor that
    /// errs, falls back to triplets and [`SolvePlan::factor`], as does
    /// every frequency of a sweep without a map; a sweep whose plan
    /// failed plans every frequency afresh, so each one reports its own
    /// failure. Either way a frequency gets the factorization, the dense
    /// retry and the error a per-frequency build would give. A worker
    /// that holds no solver yet keeps the first fallback solver on the
    /// plan's analysis.
    #[allow(clippy::too_many_arguments)]
    fn ac_solve_frequency(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        plan: Option<&SolvePlan>,
        backend: SolverBackend,
        map: Option<&[u32]>,
        held: &mut Option<Solver<Complex64>>,
        par: &ParallelConfig,
    ) -> Result<Vec<Complex64>> {
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        if let (Some(map), Some(solver)) = (map, held.as_mut()) {
            let mut rhs = Vec::new();
            let refilled = solver.refactor_in_place(par, |indptr, indices, values| {
                let mut fill = SlotFill::new(map, indptr, indices, values);
                rhs = self.ac_assemble_mode(layout, op, f, AcStampMode::Full, &mut fill);
                fill.complete()
            });
            if refilled {
                return solver.solve(&rhs).map_err(annotate);
            }
        }
        let (t, rhs) = self.ac_triplets(layout, op, f, AcStampMode::Full);
        let solver = match plan {
            Some(plan) => plan.factor(&t, par),
            None => Solver::build_with(&t, backend),
        }
        .map_err(annotate)?;
        let x = solver.solve(&rhs).map_err(annotate);
        let on_plan = |(_, sym): (_, &Arc<SymbolicLu>)| {
            plan.and_then(SolvePlan::symbolic)
                .is_some_and(|p| Arc::ptr_eq(p, sym))
        };
        if held.is_none() && map.is_some() && solver.sparse_parts().is_some_and(on_plan) {
            *held = Some(solver);
        }
        x
    }

    /// The parent's per-frequency path, kept as the oracle the in-place
    /// refill is pinned against: assemble triplets and factor them with
    /// the sweep's plan. A sweep whose plan failed plans every frequency
    /// afresh, so each one reports its own failure, as a per-frequency
    /// build would.
    #[cfg(test)]
    fn ac_solve_planned(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        plan: Option<&SolvePlan>,
        backend: SolverBackend,
    ) -> Result<Vec<Complex64>> {
        let (t, rhs) = self.ac_triplets(layout, op, f, AcStampMode::Full);
        let annotate = |e| crate::mna::annotate_singular(self, layout, e);
        let solver = match plan {
            Some(plan) => plan.factor(&t, &ParallelConfig::default()),
            None => Solver::build_with(&t, backend),
        }
        .map_err(annotate)?;
        solver.solve(&rhs).map_err(annotate)
    }

    /// Assembles the complex MNA triplets and RHS at one frequency, with
    /// per-inductor-system stamp control (see [`AcStampMode`]).
    pub(crate) fn ac_triplets(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        mode: AcStampMode<'_>,
    ) -> (Triplets<Complex64>, Vec<Complex64>) {
        let mut t = Triplets::new(layout.n, layout.n);
        let rhs = self.ac_assemble_mode(layout, op, f, mode, &mut t);
        (t, rhs)
    }

    /// The one AC stamping routine: sends the complex MNA matrix stamps
    /// at one frequency to `t`, in a fixed order, and returns the RHS,
    /// with per-inductor-system stamp control (see [`AcStampMode`]).
    pub(crate) fn ac_assemble_mode(
        &self,
        layout: &MnaLayout,
        op: Option<&DcOperatingPoint>,
        f: f64,
        mode: AcStampMode<'_>,
        t: &mut impl StampSink,
    ) -> Vec<Complex64> {
        let omega = 2.0 * std::f64::consts::PI * f;
        let jw = Complex64::jomega(omega);
        let mut rhs = vec![Complex64::ZERO; layout.n];
        for i in 0..layout.n_nodes {
            t.stamp(i, i, Complex64::from_real(GMIN));
        }
        let mut vseq = 0usize;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    stamp_admittance(t, layout, *a, *b, Complex64::from_real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads } => {
                    stamp_admittance(t, layout, *a, *b, jw * *farads);
                }
                Element::Vsrc { plus, minus, ac_mag, .. } => {
                    let row = layout.vsrc_rows[vseq];
                    vseq += 1;
                    if let Some(p) = layout.node(*plus) {
                        t.stamp(p, row, Complex64::ONE);
                        t.stamp(row, p, Complex64::ONE);
                    }
                    if let Some(m) = layout.node(*minus) {
                        t.stamp(m, row, -Complex64::ONE);
                        t.stamp(row, m, -Complex64::ONE);
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
                            t.stamp(r, dc, Complex64::from_real(sign * lin.gds));
                        }
                        if let Some(gc) = g {
                            t.stamp(r, gc, Complex64::from_real(sign * lin.gm));
                        }
                        if let Some(sc) = s {
                            t.stamp(r, sc, Complex64::from_real(-sign * (lin.gm + lin.gds)));
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
                    t.stamp(ia, row, Complex64::ONE);
                    t.stamp(row, ia, Complex64::ONE);
                }
                if let Some(ib) = layout.node(b) {
                    t.stamp(ib, row, -Complex64::ONE);
                    t.stamp(row, ib, -Complex64::ONE);
                }
                match stamps {
                    SysStamps::Every => {
                        for jj in 0..sys.len() {
                            let m = sys.m[(j, jj)];
                            if m != 0.0 {
                                t.stamp(row, off + jj, -(jw * m));
                            }
                        }
                    }
                    SysStamps::DiagOnly => {
                        let m = sys.m[(j, j)];
                        if m != 0.0 {
                            t.stamp(row, row, -(jw * m));
                        }
                    }
                    SysStamps::Skip => {}
                }
            }
        }
        rhs
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
    t: &mut impl StampSink,
    layout: &MnaLayout,
    a: NodeId,
    b: NodeId,
    y: Complex64,
) {
    match (layout.node(a), layout.node(b)) {
        (Some(i), Some(j)) => {
            t.stamp(i, i, y);
            t.stamp(j, j, y);
            t.stamp(i, j, -y);
            t.stamp(j, i, -y);
        }
        (Some(i), None) | (None, Some(i)) => t.stamp(i, i, y),
        (None, None) => {}
    }
}

/// Where [`Circuit::ac_assemble_mode`] sends its matrix stamps, one
/// `(row, col, value)` at a time in a fixed order: [`Triplets`], or a
/// [`SlotFill`] that writes them into a planned CSR matrix.
pub(crate) trait StampSink {
    /// Takes one stamp; duplicates sum.
    fn stamp(&mut self, row: usize, col: usize, value: Complex64);
}

impl StampSink for Triplets<Complex64> {
    #[inline]
    fn stamp(&mut self, row: usize, col: usize, value: Complex64) {
        self.push(row, col, value);
    }
}

/// Tag bit of a stamp-map entry: the first stamp into its CSR slot,
/// which overwrites the slot; later stamps add to it.
const FIRST_STAMP: u32 = 1 << 31;

/// The stamp map of `t`, whose CSR form is `a`: for each stamp `t` holds
/// (its nonzero ones, in push order), the index of `a`'s value slot it
/// was summed into, tagged [`FIRST_STAMP`] on the first stamp into each
/// slot. `None` when a slot index reaches the tag bit.
fn record_stamp_map(t: &Triplets<Complex64>, a: &CsrMatrix<Complex64>) -> Option<Vec<u32>> {
    #[cfg(test)]
    crate::solver::probe::note_stamp_map();
    if a.nnz() > FIRST_STAMP as usize {
        return None;
    }
    let (indptr, indices) = (a.indptr(), a.indices());
    let mut seen = vec![false; a.nnz()];
    t.entries()
        .iter()
        .map(|&(r, c, _)| {
            let row = indptr[r]..indptr[r + 1];
            let slot = row.start + indices[row].binary_search(&c).ok()?;
            let first = !std::mem::replace(&mut seen[slot], true);
            Some(slot as u32 | if first { FIRST_STAMP } else { 0 })
        })
        .collect()
}

/// A [`StampSink`] that writes each nonzero stamp straight into the CSR
/// value slot the stamp map names, checking on the way that the stream
/// is the recorded one: each stamp's `(row, col)` must be its slot's,
/// read off the matrix's own row pointers and column indices, and the
/// stream must end where the map does ([`SlotFill::complete`]). The first
/// stamp into a slot overwrites it and later ones add to it in stream
/// order, so a complete stream leaves exactly the values
/// `Triplets::to_csr` would sum; exact zeros are skipped, as
/// `Triplets::push` skips them. After the first stray stamp nothing more
/// is written.
struct SlotFill<'a> {
    map: &'a [u32],
    indptr: &'a [usize],
    indices: &'a [usize],
    values: &'a mut [Complex64],
    /// Nonzero stamps taken so far.
    next: usize,
    /// No stamp has left the map yet.
    on_map: bool,
}

impl<'a> SlotFill<'a> {
    fn new(
        map: &'a [u32],
        indptr: &'a [usize],
        indices: &'a [usize],
        values: &'a mut [Complex64],
    ) -> Self {
        Self {
            map,
            indptr,
            indices,
            values,
            next: 0,
            on_map: true,
        }
    }

    /// Whether the stream was the recorded one, stamp for stamp.
    fn complete(&self) -> bool {
        self.on_map && self.next == self.map.len()
    }
}

impl StampSink for SlotFill<'_> {
    #[inline]
    fn stamp(&mut self, row: usize, col: usize, value: Complex64) {
        if value.is_zero() || !self.on_map {
            return;
        }
        let Some(&m) = self.map.get(self.next) else {
            self.on_map = false;
            return;
        };
        self.next += 1;
        let slot = (m & !FIRST_STAMP) as usize;
        if !(self.indptr[row]..self.indptr[row + 1]).contains(&slot) || self.indices[slot] != col {
            self.on_map = false;
        } else if m & FIRST_STAMP != 0 {
            self.values[slot] = value;
        } else {
            self.values[slot] += value;
        }
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

    /// The parent's sweep, frequency by frequency: the first frequency
    /// plans (seeded by `hint`) and solves, and every later one is
    /// assembled into triplets and factored through that plan
    /// ([`Circuit::ac_solve_planned`]).
    fn oracle_sweep(
        c: &Circuit,
        opts: &AcOptions,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Vec<Result<Vec<Complex64>>> {
        let layout = MnaLayout::build(c);
        let backend = c.effective_backend();
        let par = ParallelConfig::default();
        let (&f0, rest) = split_sweep(opts).unwrap();
        let (plan, x0, kept) = c.ac_plan_first(&layout, None, f0, backend, hint, &par, false);
        assert!(kept.is_none());
        std::iter::once(x0)
            .chain(
                rest.iter()
                    .map(|&f| c.ac_solve_planned(&layout, None, f, plan.as_ref(), backend)),
            )
            .collect()
    }

    fn bits(x: &[Complex64]) -> Vec<(u64, u64)> {
        x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Asserts that `got` — a skipping sweep — solved every frequency
    /// the oracle solved, to the bit, and skipped every other one with
    /// the oracle's error.
    fn assert_matches_oracle(got: &ResilientAcSweep, want: &[Result<Vec<Complex64>>], what: &str) {
        let mut solved = got.ac.data.iter();
        assert_eq!(got.report.frequencies.len(), want.len(), "{what}");
        for (k, (rec, want)) in got.report.frequencies.iter().zip(want).enumerate() {
            match (&rec.status, want) {
                (FrequencyStatus::Solved, Ok(x)) => {
                    assert_eq!(bits(solved.next().unwrap()), bits(x), "{what}: frequency {k}");
                }
                (FrequencyStatus::Skipped { error }, Err(e)) => {
                    assert_eq!(error, &e.to_string(), "{what}: frequency {k}");
                }
                (status, want) => panic!("{what}: frequency {k}: {status:?} against {want:?}"),
            }
        }
    }

    #[test]
    fn later_frequencies_refactor_in_place() {
        // One map, one analysis, every later frequency refilled in place,
        // and the parent's bits.
        let mut c = coupled_ladder(40, 20, 0.3e-9);
        c.set_solver_backend(SolverBackend::Sparse);
        let opts = sweep();
        let cfg = ParallelConfig::serial();
        let ((res, maps), analyses, factors) = crate::solver::probe::record(|| {
            crate::solver::probe::count_stamp_maps(|| {
                c.ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default(), None)
                    .unwrap()
            })
        });
        assert_eq!(maps, 1);
        assert_planned_once(analyses, &factors, opts.freqs_hz.len());
        let (_, in_place) =
            crate::solver::probe::count_in_place(|| strict(&c, &opts, &cfg).unwrap());
        assert_eq!(in_place, opts.freqs_hz.len() - 1);
        assert_matches_oracle(&res, &oracle_sweep(&c, &opts, None), "serial");
    }

    #[test]
    fn one_frequency_sweep_records_no_map() {
        let mut c = coupled_ladder(40, 20, 0.3e-9);
        c.set_solver_backend(SolverBackend::Sparse);
        let cfg = ParallelConfig::serial();
        let one = AcOptions {
            freqs_hz: vec![1e9],
        };
        let (_, maps) = crate::solver::probe::count_stamp_maps(|| strict(&c, &one, &cfg).unwrap());
        assert_eq!(maps, 0);
        let (_, maps) =
            crate::solver::probe::count_stamp_maps(|| strict(&c, &sweep(), &cfg).unwrap());
        assert_eq!(maps, 1);
    }

    /// A 64-bit xorshift stream seeded by `seed`.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// Smallest subnormal: `ω·M` underflows to an exact zero below
    /// ω = 0.5, so its stamps vanish at 1 mHz and the stream shifts.
    const UNDERFLOWING_MUTUAL: f64 = 5e-324;
    /// A capacitance whose `jωC` overflows to infinity above ≈ 29 MHz:
    /// the static pivot at its node is non-finite there, so the sparse
    /// factor (and `Auto`'s dense retry) report a singular pivot.
    const OVERFLOWING_CAP: f64 = 1e300;

    /// A generated coupled RLC ladder: 40–69 nodes driven at the first
    /// by a 1 A probe or, with `flags & 1`, a 1 V source on its own row;
    /// random series resistors, some doubled by a parallel resistor or a
    /// coupling capacitor (duplicate stamps); a dense mutual block of
    /// 2–11 branches to ground and a banded one of 2–11 branches along
    /// the ladder, whose first mutual is [`UNDERFLOWING_MUTUAL`] with
    /// `flags & 2`; with `flags & 4` a side node on
    /// [`OVERFLOWING_CAP`].
    fn generated_ladder(seed: u64, flags: u32) -> Circuit {
        use ind101_numeric::Matrix;
        let mut next = xorshift(seed);
        let mut pick = |lo: u64, n: u64| (lo + next() % n) as usize;
        let nodes = pick(40, 30);
        let mut c = Circuit::new();
        let ids: Vec<NodeId> = (0..nodes).map(|i| c.node(format!("n{i}"))).collect();
        if flags & 1 != 0 {
            c.vsrc_ac(ids[0], Circuit::GND, SourceWave::dc(0.0), 1.0);
        } else {
            c.isrc_ac(Circuit::GND, ids[0], SourceWave::dc(0.0), 1.0);
        }
        for w in ids.windows(2) {
            let r = 1.0 + pick(0, 1000) as f64 / 100.0;
            c.resistor(w[0], w[1], r);
            match pick(0, 4) {
                0 => c.resistor(w[0], w[1], 2.0 * r),
                1 => c.capacitor(w[0], w[1], 1e-14 * pick(1, 9) as f64),
                _ => {}
            }
            c.capacitor(w[1], Circuit::GND, 1e-13 * pick(1, 9) as f64);
        }
        let k = pick(2, 10);
        let dense = Matrix::from_fn(k, k, |i, j| 1e-9 * 0.45f64.powi(i.abs_diff(j) as i32));
        let stride = nodes / k;
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: (0..k).map(|j| (ids[j * stride], Circuit::GND)).collect(),
            m: dense,
        })
        .unwrap();
        let k = pick(2, 10);
        let mut banded = Matrix::from_fn(k, k, |i, j| match i.abs_diff(j) {
            0 => 2e-9,
            1 => 0.4e-9,
            _ => 0.0,
        });
        if flags & 2 != 0 {
            banded[(0, 1)] = UNDERFLOWING_MUTUAL;
            banded[(1, 0)] = UNDERFLOWING_MUTUAL;
        }
        let start = pick(1, (nodes - k - 1) as u64);
        c.add_inductor_system(crate::netlist::InductorSystem {
            branches: (start..start + k).map(|i| (ids[i], ids[i + 1])).collect(),
            m: banded,
        })
        .unwrap();
        if flags & 4 != 0 {
            let side = c.node("side");
            c.resistor(ids[nodes / 2], side, 1e3);
            c.capacitor(side, Circuit::GND, OVERFLOWING_CAP);
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The in-place sweep against the parent's per-frequency path,
        /// to the bit: forced `Sparse` and `Auto`, 1 and 3 threads, with
        /// and without a hint, strict and skipping. The frequency pool
        /// holds 1 mHz (the underflowing mutual's stamps vanish) and
        /// frequencies above the overflowing capacitor's singular pivot.
        #[test]
        fn in_place_sweep_is_bitwise_the_per_frequency_path(
            seed in 0u64..1_000_000,
            flags in 0u32..8,
            len in 2usize..8,
        ) {
            const POOL: [f64; 8] = [1e-3, 1e3, 1e6, 1e7, 3e8, 1e9, 4e9, 2e10];
            let mut next = xorshift(seed ^ 0x5EED);
            let opts = AcOptions {
                freqs_hz: (0..len).map(|_| POOL[(next() % 8) as usize]).collect(),
            };
            for backend in [SolverBackend::Sparse, SolverBackend::Auto] {
                let mut c = generated_ladder(seed, flags);
                c.set_solver_backend(backend);
                for hint in [None, c.ac_symbolic(opts.freqs_hz[0])] {
                    let want = oracle_sweep(&c, &opts, hint.as_ref());
                    for threads in [1, 3] {
                        let cfg = ParallelConfig::with_threads(threads);
                        let what = format!("{backend:?} threads {threads} hint {}", hint.is_some());
                        let got = c
                            .ac_sweep_resilient(&opts, &cfg, &ResilienceOptions::default(), hint.clone())
                            .unwrap();
                        assert_matches_oracle(&got, &want, &what);
                        let strict = c.ac_sweep_resilient(
                            &opts,
                            &cfg,
                            &ResilienceOptions::strict(),
                            hint.clone(),
                        );
                        match (strict, want.iter().find_map(|x| x.as_ref().err())) {
                            (Ok(sweep), None) => {
                                for (x, w) in sweep.ac.data.iter().zip(&want) {
                                    assert_eq!(bits(x), bits(w.as_ref().unwrap()), "{what}");
                                }
                            }
                            (Err(e), Some(w)) => assert_eq!(e.to_string(), w.to_string(), "{what}"),
                            (got, want) => panic!("{what}: strict {got:?} against {want:?}"),
                        }
                    }
                }
            }
        }

        /// The slot filler against `Triplets::to_csr`: replaying a stamp
        /// stream through a map recorded from another completes exactly
        /// when the two streams' nonzero coordinates agree, stamp for
        /// stamp, and then leaves `to_csr`'s values to the bit. `edit`
        /// perturbs the replayed stream: 0 keeps its coordinates, 1 moves
        /// one stamp, 2 drops one, 3 adds one, 4 swaps two; about one
        /// value in eight is an exact zero.
        #[test]
        fn slot_fill_is_to_csr_or_refuses(
            seed in 0u64..1_000_000,
            n in 1usize..10,
            len in 1usize..60,
            edit in 0u32..5,
        ) {
            let mut next = xorshift(seed);
            let mut value = |zeros: bool| {
                if zeros && next() % 8 == 0 {
                    return Complex64::ZERO;
                }
                let mag = 10f64.powi((next() % 17) as i32 - 8);
                Complex64::new(mag * (1.0 + (next() % 97) as f64), (next() % 5) as f64 - 2.0)
            };
            let coords: Vec<(usize, usize)> = (0..len)
                .map(|k| ((k * 7 + seed as usize) % n, (k * 3 + (seed >> 8) as usize) % n.min(4)))
                .collect();
            let mut recorded = Triplets::new(n, n);
            for &(r, c) in &coords {
                recorded.push(r, c, value(false));
            }
            let a = recorded.to_csr();
            let map = record_stamp_map(&recorded, &a).unwrap();
            let mut stream: Vec<(usize, usize, Complex64)> =
                coords.iter().map(|&(r, c)| (r, c, value(true))).collect();
            let at = (seed as usize) % len;
            match edit {
                1 => stream[at].1 = (stream[at].1 + 1) % n,
                2 => {
                    stream.remove(at);
                }
                3 => stream.insert(at, (at % n, 0, value(false))),
                4 => stream.swap(at, (at + 1) % len),
                _ => {}
            }
            let mut b = a.clone();
            let (indptr, indices, values) = b.pattern_and_values_mut();
            let mut fill = SlotFill::new(&map, indptr, indices, values);
            let mut replayed = Triplets::new(n, n);
            for &(r, c, v) in &stream {
                fill.stamp(r, c, v);
                replayed.push(r, c, v);
            }
            let complete = fill.complete();
            let positions = |t: &Triplets<Complex64>| -> Vec<(usize, usize)> {
                t.entries().iter().map(|&(r, c, _)| (r, c)).collect()
            };
            proptest::prop_assert_eq!(complete, positions(&replayed) == positions(&recorded));
            if complete {
                let want = replayed.to_csr();
                proptest::prop_assert_eq!(b.indptr(), want.indptr());
                proptest::prop_assert_eq!(b.indices(), want.indices());
                proptest::prop_assert_eq!(bits(b.data()), bits(want.data()));
            }
        }
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
