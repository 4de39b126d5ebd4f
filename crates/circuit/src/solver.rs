//! Linear solver backend with automatic dense/sparse selection.
//!
//! Sparse patterns — RC grids, and wider ones — route to the AMD-ordered
//! KLU-class sparse LU, and so do denser patterns whose block-triangular
//! form splits into small blocks; only what is left takes dense LU. A
//! dense mutual-inductance block does not force the dense rung: on the
//! Table-1 Medium clock net `Auto` puts the PEEC-RC (379 unknowns),
//! PEEC-RLC (1 021) and block-diagonal (901) step matrices all on the
//! sparse rung. PEEC-RLC is slower than PEEC-RC there because its mutual
//! block fills the sparse factor, not because it changes rung.
//!
//! The [`SolverBackend`] knob picks the family: `Dense` keeps the dense
//! kernel as the differential oracle, `Sparse` forces the sparse direct
//! path (KLU-class: BTF blocks + supernodal LU), and `Auto` (the
//! default) selects by structure — small systems dense, low-density
//! patterns sparse, and denser patterns whose BTF decomposes into small
//! irreducible blocks sparse as well. `Auto` also honours the
//! `IND101_SOLVER_BACKEND` environment variable so CI can run the whole
//! suite under either family without code changes.
//!
//! Every factorization is **plan, then factor**. A [`SolvePlan`] is the
//! structural half of a solve, decided once per sparsity pattern: the
//! rung and the shared [`SymbolicLu`] of the sparse rung, whose
//! analysis is the only place an ordering is computed.
//! [`SolvePlan::factor`] runs only the numeric phase on a matrix with
//! the planned pattern, checked exactly once per call, and plans afresh
//! any matrix whose pattern differs. Every analysis that factors one pattern more than once
//! keeps one plan through [`factor_planned`]: a transient for its
//! backward-Euler start, its trapezoidal steps and every adaptive step
//! size; a DC operating point for its plain rung, each gmin step and
//! source stepping; the matrix-free AC sweep for its preconditioners.
//! The direct AC sweep plans its first frequency, which the job server
//! may seed with a cached [`SymbolicLu`] ([`SolvePlan::first`]'s hint).
//!
//! Every sparse-rung solve is refined against the retained CSR matrix
//! until its componentwise (Oettli–Prager) backward error meets
//! [`ind101_numeric::REFINE_TOL`] = 1e-12, stops halving, or has taken
//! [`ind101_numeric::REFINE_MAX_ROUNDS`] corrections (LAPACK xGERFS's
//! rule, [`ind101_numeric::refine`]). On the Table-1 Medium step
//! matrices most solves meet it with no correction at all. A solve that
//! misses it under `Auto` factors the retained matrix once with dense
//! partial pivoting, keeps that factor for every later solve, and
//! refines its answer by the same rule; a miss there, or any miss under
//! a forced sparse backend, is the typed
//! [`NumericError::BackwardErrorAboveTolerance`]. No sparse answer above
//! the tolerance is returned unreported. Preconditioners alone take
//! the refined iterate whatever its backward error
//! ([`Solver::solve_approx`]).
//!
//! Robustness layer: the dense backend keeps the assembled matrix and a
//! Hager 1-norm condition estimate; a solver built with
//! [`Solver::with_refinement`] gives every solve one round of iterative
//! refinement when the system is ill-conditioned (κ₁ beyond
//! [`ILL_COND_THRESHOLD`]). Refinement is **opt-in** so the default
//! fixed-step simulation path stays bit-for-bit reproducible; the
//! rescue ladder and the adaptive transient path — where stiff,
//! marginal systems actually arise — enable it.
//! Singular pivots are mapped back from the
//! sparse rung's internal (BTF- and AMD-permuted) ordering to the
//! original MNA unknown index, so analyses can name the offending node
//! instead of an opaque pivot position.

use crate::Result;
use ind101_numeric::{
    refine, BtfForm, CsrMatrix, CsrPattern, LuFactors, Matrix, NumericError, ParallelConfig,
    Scalar, SolveBudget, SparseLu, SymbolicLu, Triplets,
};
use std::sync::{Arc, OnceLock};

/// Threshold below which a system is always solved densely — even under
/// a forced `Sparse` backend, so tiny testbench results stay bit-for-bit
/// identical across backend settings.
pub(crate) const SMALL_DENSE: usize = 48;

/// Condition estimate beyond which dense solves are iteratively refined
/// (≈ 1/√ε: past this, half the working digits are already gone).
const ILL_COND_THRESHOLD: f64 = 1e8;

/// Auto heuristic: patterns at or below this stored-entry fraction route
/// to the sparse direct kernel.
const SPARSE_DENSITY: f64 = 0.1;

/// Auto heuristic, BTF clause: when the largest irreducible diagonal
/// block is at most `1/BTF_SMALL_BLOCK_DIVISOR` of the system, the
/// matrix factors block-by-block no matter how dense its overall
/// pattern is, so the sparse kernel wins even above [`SPARSE_DENSITY`].
const BTF_SMALL_BLOCK_DIVISOR: usize = 4;

/// Which linear-solver family the circuit engine uses.
///
/// `Dense` is the reference oracle (partial-pivot LU on the full
/// matrix), `Sparse` is the AMD-ordered sparse direct LU with reusable
/// symbolic factorization, and `Auto` picks per system by size,
/// density, and BTF block sizes. `Auto` defers to the
/// `IND101_SOLVER_BACKEND` environment variable (`dense` | `sparse` |
/// `auto`) when it is set, which is how the CI matrix forces each
/// family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverBackend {
    /// Always factor the full dense matrix (differential oracle).
    Dense,
    /// Force the sparse direct path for systems above the small-dense
    /// floor.
    Sparse,
    /// Choose by structure; honours `IND101_SOLVER_BACKEND`.
    #[default]
    Auto,
}

impl SolverBackend {
    /// Parses a backend name (case-insensitive): `dense`, `sparse`,
    /// `auto`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// Backend requested by `IND101_SOLVER_BACKEND`, if set and valid.
    pub fn from_env() -> Option<Self> {
        std::env::var("IND101_SOLVER_BACKEND")
            .ok()
            .and_then(|v| Self::parse(&v))
    }

    /// Resolves `Auto` through the environment: an explicit choice wins,
    /// `Auto` consults `IND101_SOLVER_BACKEND`, and an unset/invalid
    /// variable leaves the structural heuristic in charge.
    pub fn resolve(self) -> Self {
        match self {
            Self::Auto => Self::from_env().unwrap_or(Self::Auto),
            forced => forced,
        }
    }

    /// Stable lowercase name (bench/report output).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Auto => "auto",
        }
    }
}

/// The structural half of a solve, decided once per sparsity pattern.
///
/// Planning runs the `Auto` rung decision (size, density, BTF block
/// sizes) — the only place it is made — and, on the sparse rung, the
/// symbolic analysis. [`SolvePlan::factor`] then runs only the numeric
/// phase for each matrix with that pattern.
#[derive(Clone, Debug)]
pub(crate) struct SolvePlan {
    /// Backend the plan was made under; a differing pattern is planned
    /// again under the same one.
    backend: SolverBackend,
    rung: Rung,
}

/// The planned rung and its structural data.
#[derive(Clone, Debug)]
enum Rung {
    /// Dense partial-pivot LU. `pattern` is the pattern `Auto` found
    /// neither sparse enough nor decomposable into small BTF blocks (or
    /// structurally singular); `None` when the size floor or a forced
    /// dense backend chose dense whatever the pattern.
    Dense { pattern: Option<CsrPattern> },
    /// KLU-class sparse LU on a shared symbolic analysis (which keeps
    /// the pattern it was made for). Under `Auto`, a singular static
    /// pivot, or a solve whose refinement misses its tolerance, retries
    /// with dense partial pivoting.
    Sparse {
        sym: Arc<SymbolicLu>,
        dense_retry: bool,
    },
}

/// What the numeric phase made of one matrix under a plan.
enum Numeric<T: Scalar> {
    /// Factored (or failed to) under the plan.
    Done(Result<Solver<T>>),
    /// The matrix does not have the planned pattern; its CSR form is
    /// handed back for planning.
    Mismatch(CsrMatrix<T>),
}

impl SolvePlan {
    /// Plans `t`'s pattern under `backend`, and factors `t` with the new
    /// plan on `par`'s threads. A `hint` becomes the sparse rung's
    /// symbolic analysis when it matches `t`'s pattern (a stale one is
    /// dropped and the pattern analyzed afresh). `t` is converted to CSR
    /// at most once.
    ///
    /// # Errors
    ///
    /// The outer error is a failed plan (a structurally singular
    /// pattern under a forced sparse backend); a plan whose first
    /// factorization fails is returned with that error inside.
    pub(crate) fn first<T: Scalar>(
        t: &Triplets<T>,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
        par: &ParallelConfig,
    ) -> Result<(Self, Result<Solver<T>>)> {
        Self::first_from(t, None, backend, hint, par)
    }

    /// Plans `t`'s pattern without factoring it.
    ///
    /// # Errors
    ///
    /// As the outer error of [`SolvePlan::first`].
    pub(crate) fn new<T: Scalar>(t: &Triplets<T>, backend: SolverBackend) -> Result<Self> {
        Self::plan(t, None, backend, None).map(|(plan, _)| plan)
    }

    /// Factors `t` under this plan on `par`'s threads: the numeric phase
    /// only when `t` has the planned pattern. A matrix with another
    /// pattern — a stamp that underflowed to an exact zero is dropped by
    /// `Triplets::push` — is planned afresh, so the result is always the
    /// one a fresh [`Solver::build_with`] would give.
    pub(crate) fn factor<T: Scalar>(
        &self,
        t: &Triplets<T>,
        par: &ParallelConfig,
    ) -> Result<Solver<T>> {
        match self.numeric(t, None, par) {
            Numeric::Done(solver) => solver,
            Numeric::Mismatch(csr) => Self::first_from(t, Some(csr), self.backend, None, par)?.1,
        }
    }

    /// The sparse rung's symbolic analysis; `None` on the dense rung,
    /// which never consults one.
    pub(crate) fn symbolic(&self) -> Option<&Arc<SymbolicLu>> {
        match &self.rung {
            Rung::Sparse { sym, .. } => Some(sym),
            Rung::Dense { .. } => None,
        }
    }

    fn first_from<T: Scalar>(
        t: &Triplets<T>,
        mut csr: Option<CsrMatrix<T>>,
        backend: SolverBackend,
        mut hint: Option<&Arc<SymbolicLu>>,
        par: &ParallelConfig,
    ) -> Result<(Self, Result<Solver<T>>)> {
        loop {
            let (plan, planned_csr) = Self::plan(t, csr, backend, hint)?;
            match plan.numeric(t, planned_csr, par) {
                Numeric::Done(solver) => return Ok((plan, solver)),
                // Only a stale hint gets here, and only once: a plan
                // made from `t`'s own pattern always matches it.
                Numeric::Mismatch(c) => {
                    csr = Some(c);
                    hint = None;
                }
            }
        }
    }

    /// The rung decision. Returns the CSR form of `t` when planning
    /// built (or was given) one, for the first factorization to reuse.
    fn plan<T: Scalar>(
        t: &Triplets<T>,
        csr: Option<CsrMatrix<T>>,
        backend: SolverBackend,
        hint: Option<&Arc<SymbolicLu>>,
    ) -> Result<(Self, Option<CsrMatrix<T>>)> {
        #[cfg(test)]
        probe::note_plan();
        let n = t.nrows();
        if n <= SMALL_DENSE || backend == SolverBackend::Dense {
            let rung = Rung::Dense { pattern: None };
            return Ok((Self { backend, rung }, csr));
        }
        let csr = csr.unwrap_or_else(|| t.to_csr());
        let symbolic = || -> Result<Arc<SymbolicLu>> {
            match hint {
                Some(sym) => Ok(Arc::clone(sym)),
                None => {
                    #[cfg(test)]
                    probe::note_analysis();
                    Ok(Arc::new(SymbolicLu::analyze(&csr)?))
                }
            }
        };
        let rung = if backend == SolverBackend::Sparse {
            Rung::Sparse {
                sym: symbolic()?,
                dense_retry: false,
            }
        } else if csr.density() <= SPARSE_DENSITY || btf_prefers_sparse(&csr) {
            // A sparse pattern — or a denser one whose BTF decomposes
            // into small independent blocks: the sparse direct kernel. A
            // *structurally* singular pattern plans dense, so the error
            // the caller sees names a numeric pivot, as the dense oracle
            // always has.
            match symbolic() {
                Ok(sym) => Rung::Sparse {
                    sym,
                    dense_retry: true,
                },
                Err(crate::CircuitError::Numeric(NumericError::StructurallySingular {
                    ..
                })) => Rung::Dense {
                    pattern: Some(CsrPattern::of(&csr)),
                },
                Err(e) => return Err(e),
            }
        } else {
            Rung::Dense {
                pattern: Some(CsrPattern::of(&csr)),
            }
        };
        Ok((Self { backend, rung }, Some(csr)))
    }

    /// The numeric phase of one matrix, with one pattern check.
    fn numeric<T: Scalar>(
        &self,
        t: &Triplets<T>,
        csr: Option<CsrMatrix<T>>,
        par: &ParallelConfig,
    ) -> Numeric<T> {
        #[cfg(feature = "solver-faults")]
        if let Some(pivot) = crate::faults::take_singular_pivot() {
            return Numeric::Done(Err(NumericError::Singular { pivot }.into()));
        }
        let pattern = match &self.rung {
            Rung::Dense { pattern: None } => return Numeric::Done(Solver::build_dense(t)),
            Rung::Dense { pattern: Some(p) } => Some(p),
            Rung::Sparse { .. } => None,
        };
        let csr = csr.unwrap_or_else(|| t.to_csr());
        if pattern.is_some_and(|p| !p.matches(&csr)) {
            return Numeric::Mismatch(csr);
        }
        Numeric::Done(match &self.rung {
            Rung::Dense { .. } => Solver::build_dense(t),
            Rung::Sparse { sym, dense_retry } => {
                // `factor_with_budget` is the sparse rung's pattern check.
                match SparseLu::factor_with_budget(
                    Arc::clone(sym),
                    &csr,
                    &SolveBudget::unlimited(),
                    par,
                ) {
                    Ok(lu) => {
                        #[cfg(test)]
                        probe::note_sparse_factor(sym);
                        Ok(Solver::Sparse {
                            lu,
                            a: csr,
                            dense: dense_retry.then(OnceLock::new),
                        })
                    }
                    Err(NumericError::PatternMismatch { .. }) => return Numeric::Mismatch(csr),
                    // A static-pivot singularity is not proof of a
                    // singular matrix, so `Auto` retries densely
                    // (partial pivoting) before giving up.
                    Err(NumericError::Singular { .. }) if *dense_retry => Solver::build_dense(t),
                    Err(e) => Err(e.into()),
                }
            }
        })
    }
}

/// Factors `t` with `plan`, or plans `t`'s pattern under `backend`
/// (seeded with `hint`, as in [`SolvePlan::first`]) and keeps that plan
/// when there is none yet (the first matrix of an analysis, or every one
/// so far failed to plan). A matrix whose pattern differs from the
/// plan's is planned afresh inside [`SolvePlan::factor`] and leaves the
/// kept plan as it was. Factors run on the machine's default threads.
pub(crate) fn factor_planned<T: Scalar>(
    plan: &mut Option<SolvePlan>,
    t: &Triplets<T>,
    backend: SolverBackend,
    hint: Option<&Arc<SymbolicLu>>,
) -> Result<Solver<T>> {
    let par = ParallelConfig::default();
    if let Some(plan) = plan {
        return plan.factor(t, &par);
    }
    let (first, solver) = SolvePlan::first(t, backend, hint, &par)?;
    *plan = Some(first);
    solver
}

/// BTF-structure clause of the `Auto` heuristic: `true` when the
/// pattern decomposes into irreducible blocks small enough (largest ≤
/// `dim / BTF_SMALL_BLOCK_DIVISOR`) that block-by-block factorization
/// beats a dense solve regardless of density. An unmatchable
/// (structurally singular) pattern reports `false` and lets the dense
/// path produce the canonical pivot error.
fn btf_prefers_sparse<T: Scalar>(csr: &CsrMatrix<T>) -> bool {
    BtfForm::analyze(csr)
        .map(|f| f.max_block_dim() * BTF_SMALL_BLOCK_DIVISOR <= f.dim())
        .unwrap_or(false)
}

/// A factored linear system `A·x = b`.
#[derive(Clone, Debug)]
pub(crate) enum Solver<T: Scalar> {
    Dense {
        fac: LuFactors<T>,
        /// Original matrix, kept for residual computation when refining.
        a: Matrix<T>,
        /// Hager 1-norm condition estimate of `a`.
        cond: f64,
        /// Iteratively refine ill-conditioned solves (opt-in).
        refine: bool,
    },
    Sparse {
        lu: SparseLu<T>,
        /// Assembled matrix, kept for the refinement's residuals.
        a: CsrMatrix<T>,
        /// `Some` under `Auto`: the dense partial-pivoting factor of `a`,
        /// made by the first solve whose sparse refinement misses
        /// [`ind101_numeric::REFINE_TOL`] and used by every later solve.
        /// `None` under a forced sparse backend, where a miss is an
        /// error.
        dense: Option<OnceLock<std::result::Result<LuFactors<T>, NumericError>>>,
    },
}

impl<T: Scalar> Solver<T> {
    /// Plans and factors under an explicit backend choice (`Auto` is the
    /// structural heuristic alone: callers resolve the environment
    /// override first). Singular pivots are named in the original MNA
    /// unknown ordering, whatever permutation the rung applied.
    pub(crate) fn build_with(t: &Triplets<T>, backend: SolverBackend) -> Result<Self> {
        SolvePlan::first(t, backend, None, &ParallelConfig::default())?.1
    }

    fn build_dense(t: &Triplets<T>) -> Result<Self> {
        let a = t.to_dense();
        let fac = a.lu()?;
        // Condition estimate costs a handful of O(n²) solves — noise
        // next to the O(n³) factorization it piggybacks on. A failed
        // estimate (cannot happen for valid factors) degrades to "well
        // conditioned" rather than failing the build.
        let cond = fac.condest_1(a.norm1()).unwrap_or(0.0);
        Ok(Self::Dense {
            fac,
            a,
            cond,
            refine: false,
        })
    }

    /// Enables one round of iterative refinement on ill-conditioned
    /// dense solves. No-op for the sparse backend, which always refines.
    #[must_use]
    pub(crate) fn with_refinement(mut self) -> Self {
        if let Self::Dense { refine, .. } = &mut self {
            *refine = true;
        }
        self
    }

    /// The sparse rung's retained matrix and its symbolic analysis;
    /// `None` on the dense rung.
    pub(crate) fn sparse_parts(&self) -> Option<(&CsrMatrix<T>, &Arc<SymbolicLu>)> {
        match self {
            Self::Sparse { lu, a, .. } => Some((a, lu.symbolic())),
            Self::Dense { .. } => None,
        }
    }

    /// Refactors the sparse rung in place for the next matrix of its
    /// pattern. `fill` overwrites the retained CSR's values, given its
    /// row pointers and column indices, and reports whether it wrote
    /// the whole matrix; the retained [`SparseLu`] is then refactored on
    /// `par`'s threads, and the previous matrix's dense fallback is
    /// dropped. Nothing is allocated.
    ///
    /// Returns `false` on the dense rung, when `fill` fails, or when the
    /// refactor errs (a singular static pivot, say). The values are then
    /// unspecified until a later call succeeds, and the caller factors
    /// the matrix through its plan instead, which reports an error or
    /// retries densely exactly as a fresh factorization would.
    pub(crate) fn refactor_in_place(
        &mut self,
        par: &ParallelConfig,
        fill: impl FnOnce(&[usize], &[usize], &mut [T]) -> bool,
    ) -> bool {
        // An armed fault belongs to the plan's factorization.
        #[cfg(feature = "solver-faults")]
        if crate::faults::singular_pivot_armed() {
            return false;
        }
        let Self::Sparse { lu, a, dense } = self else {
            return false;
        };
        let (indptr, indices, values) = a.pattern_and_values_mut();
        if !fill(indptr, indices, values)
            || lu
                .refactor_budgeted(a, &SolveBudget::unlimited(), par)
                .is_err()
        {
            return false;
        }
        #[cfg(test)]
        {
            probe::note_sparse_factor(lu.symbolic());
            probe::note_in_place();
        }
        if let Some(cell) = dense {
            *cell = OnceLock::new();
        }
        true
    }

    /// Solves for one right-hand side. Dense solutions are iteratively
    /// refined when refinement is enabled and the system is
    /// ill-conditioned. Sparse solutions are refined until their
    /// componentwise backward error meets [`ind101_numeric::REFINE_TOL`]
    /// ([`ind101_numeric::refine`]); one that cannot is solved again
    /// with the dense fallback under `Auto`.
    ///
    /// # Errors
    ///
    /// [`NumericError::BackwardErrorAboveTolerance`] when a sparse solve
    /// misses the tolerance under a forced sparse backend, or the dense
    /// fallback misses it too; a [`NumericError::Singular`] dense
    /// fallback.
    pub(crate) fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        match self {
            Self::Dense {
                fac,
                a,
                cond,
                refine,
            } => {
                if *refine && *cond > ILL_COND_THRESHOLD {
                    Ok(fac.solve_refined(a, b)?.x)
                } else {
                    Ok(fac.solve(b)?)
                }
            }
            Self::Sparse { lu, a, dense } => {
                // Once escalated, the dense factor answers directly.
                if let Some(fac) = dense.as_ref().and_then(OnceLock::get) {
                    return Self::solve_dense_fallback(fac, a, b);
                }
                let sol = lu.solve_refined(a, b)?;
                match dense {
                    Some(cell) if !sol.met() => {
                        let fac = cell.get_or_init(|| {
                            #[cfg(test)]
                            probe::note_dense_fallback();
                            a.to_dense().lu()
                        });
                        Self::solve_dense_fallback(fac, a, b)
                    }
                    _ => Ok(sol.into_met()?),
                }
            }
        }
    }

    /// The dense fallback's answer, refined by the sparse rung's rule.
    fn solve_dense_fallback(
        fac: &std::result::Result<LuFactors<T>, NumericError>,
        a: &CsrMatrix<T>,
        b: &[T],
    ) -> Result<Vec<T>> {
        let fac = fac.as_ref().map_err(Clone::clone)?;
        Ok(refine(a, b, |r| fac.solve(r))?.into_met()?)
    }

    /// Solves for one right-hand side as an approximate inverse: the
    /// sparse rung's refined iterate is taken whatever its backward
    /// error, and no dense fallback is made. Preconditioners use it,
    /// where a near-inverse is enough and the outer iteration checks
    /// the true residual.
    pub(crate) fn solve_approx(&self, b: &[T]) -> Result<Vec<T>> {
        match self {
            Self::Sparse { lu, a, .. } => Ok(lu.solve_refined(a, b)?.x),
            Self::Dense { .. } => self.solve(b),
        }
    }

    /// Hager 1-norm condition estimate (dense backend only; `None` for
    /// sparse systems, whose accuracy rests on the refinement's measured
    /// backward error instead).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn condition_estimate(&self) -> Option<f64> {
        match self {
            Self::Dense { cond, .. } => Some(*cond),
            Self::Sparse { .. } => None,
        }
    }

    /// Whether the sparse direct backend was selected.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self, Self::Sparse { .. })
    }
}

/// Test-only log of the structural work done on the calling thread, so
/// tests can assert one plan per analysis, one symbolic analysis per
/// sweep and one shared `Arc` across its frequencies.
#[cfg(test)]
pub(crate) mod probe {
    use super::{Arc, SymbolicLu};
    use std::cell::RefCell;

    #[derive(Default)]
    struct Log {
        plans: usize,
        analyses: usize,
        sparse_factors: Vec<Arc<SymbolicLu>>,
        dense_fallbacks: usize,
        stamp_maps: usize,
        in_place: usize,
    }

    thread_local! {
        static LOG: RefCell<Log> = RefCell::default();
    }

    pub(crate) fn note_plan() {
        LOG.with(|l| l.borrow_mut().plans += 1);
    }

    pub(crate) fn note_analysis() {
        LOG.with(|l| l.borrow_mut().analyses += 1);
    }

    pub(crate) fn note_sparse_factor(sym: &Arc<SymbolicLu>) {
        LOG.with(|l| l.borrow_mut().sparse_factors.push(Arc::clone(sym)));
    }

    pub(crate) fn note_dense_fallback() {
        LOG.with(|l| l.borrow_mut().dense_fallbacks += 1);
    }

    pub(crate) fn note_stamp_map() {
        LOG.with(|l| l.borrow_mut().stamp_maps += 1);
    }

    pub(crate) fn note_in_place() {
        LOG.with(|l| l.borrow_mut().in_place += 1);
    }

    /// Runs `f` and returns its result with the in-place refactors made
    /// meanwhile on this thread.
    pub(crate) fn count_in_place<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LOG.with(|l| l.borrow_mut().in_place = 0);
        let r = f();
        (r, LOG.with(|l| l.borrow().in_place))
    }

    /// Runs `f` and returns its result with the AC stamp maps recorded
    /// meanwhile.
    pub(crate) fn count_stamp_maps<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LOG.with(|l| l.borrow_mut().stamp_maps = 0);
        let r = f();
        (r, LOG.with(|l| l.borrow().stamp_maps))
    }

    /// Runs `f` and returns its result with the dense fallback
    /// factorizations sparse solves made meanwhile.
    pub(crate) fn count_dense_fallbacks<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LOG.with(|l| l.borrow_mut().dense_fallbacks = 0);
        let r = f();
        (r, LOG.with(|l| l.borrow().dense_fallbacks))
    }

    /// Runs `f` and returns its result with the plans (rung decisions,
    /// whatever rung they chose) and the `SymbolicLu::analyze` calls
    /// made meanwhile.
    pub(crate) fn count_planning<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
        LOG.with(|l| *l.borrow_mut() = Log::default());
        let r = f();
        LOG.with(|l| (r, l.borrow().plans, l.borrow().analyses))
    }

    /// Runs `f` and returns its result with the `SymbolicLu::analyze`
    /// calls planning made meanwhile and the symbolic analysis behind
    /// each sparse factorization, in order.
    pub(crate) fn record<R>(f: impl FnOnce() -> R) -> (R, usize, Vec<Arc<SymbolicLu>>) {
        LOG.with(|l| *l.borrow_mut() = Log::default());
        let r = f();
        let log = LOG.with(|l| std::mem::take(&mut *l.borrow_mut()));
        (r, log.analyses, log.sparse_factors)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tridiag(n: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t
    }

    #[test]
    fn small_systems_use_dense() {
        let t = tridiag(8);
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
        assert!(!s.is_sparse());
        let x = s.solve(&[1.0; 8]).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        for v in r {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    /// A tridiagonal system, in natural order and under a stride
    /// permutation that scatters its band across the whole matrix:
    /// either way `Auto` plans the sparse rung, whose AMD order needs no
    /// band to find the fill-free elimination.
    #[test]
    fn large_sparse_systems_use_sparse_in_any_order() {
        let n = 400;
        let natural = tridiag(n);
        let p: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let mut scrambled = Triplets::new(n, n);
        for &(i, j, v) in natural.entries() {
            scrambled.push(p[i], p[j], v);
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        for t in [natural, scrambled] {
            let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
            assert!(s.is_sparse());
            let x = s.solve(&b).unwrap();
            let r = t.to_dense().matvec(&x).unwrap();
            for (u, v) in r.iter().zip(&b) {
                assert!((u - v).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dense_block_forces_dense_backend() {
        // A 100×100 fully dense system is one irreducible BTF block.
        let n = 100;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, if i == j { 10.0 } else { 0.01 });
            }
        }
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
        assert!(!s.is_sparse());
    }

    #[test]
    fn condition_estimate_reported_for_dense() {
        let t = tridiag(8);
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
        let k = s.condition_estimate().unwrap();
        assert!((1.0..100.0).contains(&k), "κ₁ = {k}");
        let big = Solver::build_with(&tridiag(400), SolverBackend::Auto).unwrap();
        assert!(big.condition_estimate().is_none());
    }

    #[test]
    fn ill_conditioned_dense_solve_is_refined() {
        // Two conductance scales 12 decades apart: κ₁ far beyond the
        // refinement threshold, yet the refined residual stays tiny.
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, if i % 2 == 0 { 1e6 } else { 1e-7 });
            if i + 1 < n {
                t.push(i, i + 1, 1e-8);
                t.push(i + 1, i, 1e-8);
            }
        }
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap().with_refinement();
        assert!(s.condition_estimate().unwrap() > ILL_COND_THRESHOLD);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let x = s.solve(&b).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        let resid = r
            .iter()
            .zip(&b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(resid < 1e-9 * 7.0, "residual {resid}");
    }

    /// 2-D resistive grid: very sparse, and AMD keeps its fill low — the
    /// sparse backend's home turf.
    fn grid2d(w: usize, h: usize) -> Triplets {
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        let mut t = Triplets::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = idx(x, y);
                t.push(i, i, 4.2);
                let mut nb = |j: usize| t.push(i, j, -1.0);
                if x > 0 {
                    nb(idx(x - 1, y));
                }
                if x + 1 < w {
                    nb(idx(x + 1, y));
                }
                if y > 0 {
                    nb(idx(x, y - 1));
                }
                if y + 1 < h {
                    nb(idx(x, y + 1));
                }
            }
        }
        t
    }

    #[test]
    fn forced_sparse_backend_matches_dense() {
        let t = grid2d(14, 11);
        let n = t.nrows();
        let b: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).sin()).collect();
        let sp = Solver::build_with(&t, SolverBackend::Sparse).unwrap();
        assert!(sp.is_sparse());
        let de = Solver::build_with(&t, SolverBackend::Dense).unwrap();
        assert!(!de.is_sparse());
        let xs = sp.solve(&b).unwrap();
        let xd = de.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn small_systems_stay_dense_under_forced_sparse() {
        // Bit-identity guarantee: below SMALL_DENSE every backend
        // setting routes to the same dense kernel.
        let t = tridiag(8);
        let s = Solver::build_with(&t, SolverBackend::Sparse).unwrap();
        assert!(!s.is_sparse());
    }

    /// Same pattern, shifted values: the kept plan factors the second
    /// matrix numerically on the first one's symbolic analysis. A matrix
    /// with another pattern is planned afresh and leaves the kept plan.
    #[test]
    fn factor_planned_plans_each_pattern_once() {
        let t = grid2d(12, 12);
        let mut t2 = Triplets::new(t.nrows(), t.ncols());
        for &(i, j, v) in t.entries() {
            t2.push(i, j, if i == j { v + 1.0 } else { v });
        }
        let mut plan = None;
        let (s2, plans, analyses) = probe::count_planning(|| {
            factor_planned(&mut plan, &t, SolverBackend::Sparse, None).unwrap();
            factor_planned(&mut plan, &t2, SolverBackend::Sparse, None).unwrap()
        });
        assert_eq!((plans, analyses), (1, 1));
        let kept = Arc::clone(plan.as_ref().and_then(SolvePlan::symbolic).unwrap());
        let Solver::Sparse { lu, .. } = &s2 else {
            panic!("expected the sparse rung");
        };
        assert!(Arc::ptr_eq(lu.symbolic(), &kept), "symbolic pattern not reused");
        let mut coupled = t.clone();
        coupled.push(0, t.nrows() - 1, -0.1);
        coupled.push(t.nrows() - 1, 0, -0.1);
        let (_, plans, analyses) = probe::count_planning(|| {
            factor_planned(&mut plan, &coupled, SolverBackend::Sparse, None).unwrap()
        });
        assert_eq!((plans, analyses), (1, 1));
        let still = plan.as_ref().and_then(SolvePlan::symbolic).unwrap();
        assert!(Arc::ptr_eq(still, &kept), "a mismatch replaced the kept plan");
    }

    #[test]
    fn auto_consults_btf_blocks_above_density_cutoff() {
        // Eight dense 26×26 irreducible blocks, each coupled one-way
        // into the last one: overall density ≈ 0.13 (above
        // SPARSE_DENSITY), yet BTF sees small independent blocks, so
        // Auto must still route to the sparse kernel.
        let nb = 8usize;
        let w = 26usize;
        let n = nb * w;
        let mut t = Triplets::new(n, n);
        for b in 0..nb {
            for r in 0..w {
                for c in 0..w {
                    let v = if r == c {
                        30.0
                    } else {
                        1.0 / (1.0 + (r as f64 - c as f64).abs())
                    };
                    t.push(b * w + r, b * w + c, v);
                }
            }
        }
        let hub = (nb - 1) * w;
        for b in 0..nb - 1 {
            for r in 0..w {
                t.push(b * w + r, hub + r, 0.5);
            }
        }
        let csr = t.to_csr();
        assert!(csr.density() > SPARSE_DENSITY, "density {}", csr.density());
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
        assert!(s.is_sparse(), "BTF block structure should route to sparse");
        let b: Vec<f64> = (0..n).map(|i| (0.17 * i as f64).sin()).collect();
        let x = s.solve(&b).unwrap();
        let r = t.to_dense().matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    /// A real system on which static pivoting stalls refinement. Its
    /// star-coupled chain has a density below `SPARSE_DENSITY`, so `Auto`
    /// plans the sparse rung. Unknowns 0–2
    /// form the block `[[ε, 1, 1], [1, 1, 1], [1, 0.95, 1]]`, ε = 3e-15:
    /// the static order pivots on ε first, the 1/ε fill swamps the
    /// block's other entries, and refinement stops far above
    /// `REFINE_TOL`, while partial pivoting solves the block stably.
    pub(crate) fn stalling_system<T: Scalar>() -> Triplets<T> {
        let n = 60;
        let hub = n - 1;
        let mut t = Triplets::new(n, n);
        let mut push = |i, j, v: f64| t.push(i, j, T::from_f64(v));
        for i in 3..hub {
            push(i, i, 4.0);
            if i + 1 < hub {
                push(i, i + 1, -1.0);
                push(i + 1, i, -1.0);
            }
            push(i, hub, -0.5);
            push(hub, i, -0.5);
        }
        push(hub, hub, n as f64);
        let block = [[3e-15, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.95, 1.0]];
        for (i, row) in block.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                push(i, j, v);
            }
        }
        t
    }

    /// The sparse rung's own refinement of `b` on `s`, bypassing any
    /// fallback.
    fn sparse_refinement(s: &Solver<f64>, b: &[f64]) -> ind101_numeric::Refined<f64> {
        match s {
            Solver::Sparse { lu, a, .. } => lu.solve_refined(a, b).unwrap(),
            _ => panic!("expected the sparse rung"),
        }
    }

    #[test]
    fn stalled_refinement_escalates_once_to_dense_under_auto() {
        let t = stalling_system::<f64>();
        let n = t.nrows();
        let csr = t.to_csr();
        let s = Solver::build_with(&t, SolverBackend::Auto).unwrap();
        assert!(s.is_sparse());
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..n).map(|i| 1.0 + (0.3 * (i + k) as f64).sin()).collect())
            .collect();
        let miss = sparse_refinement(&s, &rhs[0]);
        assert!(!miss.met(), "premise: static pivoting must stall here");
        let (xs, fallbacks) = probe::count_dense_fallbacks(|| {
            rhs.iter().map(|b| s.solve(b).unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(fallbacks, 1, "one dense factor, reused by every solve");
        for (x, b) in xs.iter().zip(&rhs) {
            let berr = csr.backward_error(b, x).unwrap();
            assert!(berr <= ind101_numeric::REFINE_TOL, "berr {berr:e}");
        }
        // A solver whose solves meet the tolerance never factors densely.
        let (_, none) = probe::count_dense_fallbacks(|| {
            Solver::build_with(&grid2d(14, 11), SolverBackend::Auto)
                .unwrap()
                .solve(&vec![1.0; 154])
                .unwrap()
        });
        assert_eq!(none, 0);
    }

    #[test]
    fn stalled_refinement_is_a_typed_error_under_forced_sparse() {
        let t = stalling_system::<f64>();
        let b: Vec<f64> = (0..t.nrows())
            .map(|i| 1.0 + (0.3 * i as f64).sin())
            .collect();
        let s = Solver::build_with(&t, SolverBackend::Sparse).unwrap();
        let miss = sparse_refinement(&s, &b);
        let (res, fallbacks) = probe::count_dense_fallbacks(|| s.solve(&b));
        assert_eq!(fallbacks, 0);
        match res {
            Err(crate::CircuitError::Numeric(NumericError::BackwardErrorAboveTolerance {
                berr,
                tol,
            })) => {
                assert_eq!(tol, ind101_numeric::REFINE_TOL);
                assert_eq!(berr, miss.berr);
                assert!(berr > tol, "berr {berr:e}");
            }
            other => panic!("expected the typed accuracy error, got {other:?}"),
        }
        // The approximate solve hands back the refined iterate instead.
        assert_eq!(s.solve_approx(&b).unwrap(), miss.x);
    }

    /// A NaN right-hand side makes a NaN answer, which is a typed
    /// accuracy miss, not an answer that passes as accurate: under forced
    /// `Sparse` at once, under `Auto` after the dense retry misses too.
    #[test]
    fn nan_answer_is_a_typed_error() {
        let mut b = vec![1.0; 60];
        b[3] = f64::NAN;
        for backend in [SolverBackend::Sparse, SolverBackend::Auto] {
            let s = Solver::build_with(&tridiag(60), backend).unwrap();
            assert!(s.is_sparse(), "{backend:?}");
            match s.solve(&b) {
                Err(crate::CircuitError::Numeric(NumericError::BackwardErrorAboveTolerance {
                    berr,
                    tol,
                })) => {
                    assert!(berr.is_nan(), "{backend:?}: berr {berr:e}");
                    assert_eq!(tol, ind101_numeric::REFINE_TOL);
                }
                other => panic!("{backend:?}: expected the typed accuracy error, got {other:?}"),
            }
        }
    }

    /// An in-place refactor gives the bits of a fresh factorization of
    /// the new matrix and drops the previous matrix's dense fallback; a
    /// failed fill, a refactor that errs and the dense rung refuse.
    #[test]
    fn in_place_refactor_is_a_fresh_factor_without_the_old_fallback() {
        let stalled = stalling_system::<f64>();
        let n = stalled.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (0.3 * i as f64).sin()).collect();
        let mut s = Solver::build_with(&stalled, SolverBackend::Auto).unwrap();
        let (_, fallbacks) = probe::count_dense_fallbacks(|| s.solve(&b).unwrap());
        assert_eq!(fallbacks, 1, "premise: the stalled solve escalates");
        // The same pattern with a benign block.
        let mut benign = Triplets::new(n, n);
        for &(i, j, v) in stalled.entries() {
            benign.push(i, j, if (i, j) == (0, 0) { 3.0 } else { v });
        }
        let values = benign.to_csr().data().to_vec();
        let serial = ParallelConfig::serial();
        assert!(s.refactor_in_place(&serial, |_, _, v| {
            v.copy_from_slice(&values);
            true
        }));
        let fresh = Solver::build_with(&benign, SolverBackend::Auto).unwrap();
        let (x, fallbacks) = probe::count_dense_fallbacks(|| s.solve(&b).unwrap());
        assert_eq!(fallbacks, 0);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&fresh.solve(&b).unwrap()));
        assert!(!s.refactor_in_place(&serial, |_, _, _| false));
        assert!(!s.refactor_in_place(&serial, |_, _, v| {
            v.fill(0.0);
            true
        }));
        let mut dense = Solver::build_with(&tridiag(8), SolverBackend::Auto).unwrap();
        assert!(!dense.refactor_in_place(&serial, |_, _, _| true));
    }

    #[test]
    fn backend_parse_and_names() {
        assert_eq!(SolverBackend::parse("dense"), Some(SolverBackend::Dense));
        assert_eq!(SolverBackend::parse(" SPARSE "), Some(SolverBackend::Sparse));
        assert_eq!(SolverBackend::parse("Auto"), Some(SolverBackend::Auto));
        assert_eq!(SolverBackend::parse("banded"), None);
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
        assert_eq!(SolverBackend::Sparse.name(), "sparse");
        // Forced choices resolve to themselves regardless of env.
        assert_eq!(SolverBackend::Dense.resolve(), SolverBackend::Dense);
        assert_eq!(SolverBackend::Sparse.resolve(), SolverBackend::Sparse);
    }

    /// A singular unknown is named by its original index, whatever
    /// permutation the rung applied. A structurally empty unknown makes
    /// the pattern structurally singular: `Auto` plans it dense, and
    /// forced `Sparse` rejects the pattern. A numerically singular 2×2
    /// block `[[1, 1], [1, 1]]` has a structurally sound pattern: the
    /// sparse rung's static pivot fails on it, and `Auto`'s dense retry
    /// fails at the same unknown.
    #[test]
    fn singular_unknown_is_named_in_original_ordering() {
        let n = 300;
        // A tridiagonal chain of `n` unknowns with the `cut` ones left out.
        let chain = |cut: &[usize]| {
            let mut t = Triplets::new(n, n);
            for i in (0..n).filter(|i| !cut.contains(i)) {
                t.push(i, i, 4.0);
                for j in [i.wrapping_sub(1), i + 1] {
                    if j < n && !cut.contains(&j) {
                        t.push(i, j, -1.0);
                    }
                }
            }
            t
        };
        let singular_at = |t: &Triplets, backend| match Solver::build_with(t, backend) {
            Err(crate::CircuitError::Numeric(NumericError::Singular { pivot })) => pivot,
            other => panic!("{backend:?}: expected a singular pivot, got {other:?}"),
        };
        let dead = 137;
        let empty = chain(&[dead]);
        assert_eq!(singular_at(&empty, SolverBackend::Auto), dead);
        match Solver::build_with(&empty, SolverBackend::Sparse) {
            Err(crate::CircuitError::Numeric(NumericError::StructurallySingular {
                row, ..
            })) => assert_eq!(row, dead),
            other => panic!("expected a structurally singular pattern, got {other:?}"),
        }
        let (a, b) = (137, 212);
        let mut block = chain(&[a, b]);
        for (i, j) in [(a, a), (a, b), (b, a), (b, b)] {
            block.push(i, j, 1.0);
        }
        assert_eq!(singular_at(&block, SolverBackend::Sparse), b);
        assert_eq!(singular_at(&block, SolverBackend::Auto), b);
    }
}
