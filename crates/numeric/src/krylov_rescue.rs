//! Rescue ladder for Krylov solves, mirroring the DC rescue ladder in
//! `ind101-circuit`.
//!
//! A production sweep cannot afford to abort 200 frequencies because
//! one GMRES solve stagnated. [`solve_with_rescue`] wraps
//! [`crate::gmres_guarded`] in a ladder of increasingly expensive
//! rungs, each gated by the same [`SolveBudget`]:
//!
//! 1. **Initial** — the caller's options and preconditioner, verbatim.
//!    When this rung converges the arithmetic (and hence the bits of
//!    the answer) are identical to a plain [`crate::gmres`] call.
//! 2. **Grown restart** — retry with the restart length and the matvec
//!    cap multiplied by four; a longer cycle often breaks a stagnation
//!    plateau at modest memory cost.
//! 3. **Dense-direct fallback** — materialize the operator as a dense
//!    matrix (from the [`RescueProvider`]) and LU-solve. Refused with a
//!    typed [`KrylovError::BudgetExceeded`] when the n×n matrix would
//!    not fit in [`SolveBudget::max_memory_bytes`].
//!
//! Every rung records a [`KrylovRungTrace`]; the final
//! [`KrylovRescueReport`] says which rung converged (if any), so sweep
//! layers can tell "solved plainly" from "limped home via the dense
//! fallback". The default policy is fully disabled, making the ladder
//! exactly one plain guarded solve.

use crate::budget::{SolveBudget, SolveGuard};
use crate::krylov::{
    gmres_guarded, true_residual, KrylovError, KrylovOptions, KrylovSolution, LinearOperator,
    Preconditioner,
};
use crate::{Matrix, Scalar};
use std::fmt;

/// One rung of the Krylov rescue ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KrylovRescueRung {
    /// The caller's configuration, unmodified.
    Initial,
    /// Restart length and matvec cap grown fourfold.
    GrownRestart,
    /// Dense materialization and direct LU solve.
    DenseDirect,
}

impl fmt::Display for KrylovRescueRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Initial => write!(f, "initial"),
            Self::GrownRestart => write!(f, "grown-restart"),
            Self::DenseDirect => write!(f, "dense-direct"),
        }
    }
}

/// Which rescue rungs [`solve_with_rescue`] may climb.
///
/// The default is fully disabled — the ladder is then exactly one
/// plain guarded solve, preserving bit-identity with [`crate::gmres`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KrylovRescuePolicy {
    /// Retry once with the restart length and matvec cap grown fourfold.
    pub grow_restart: bool,
    /// Materialize the operator densely and LU-solve as the last rung.
    pub dense_fallback: bool,
}

impl Default for KrylovRescuePolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl KrylovRescuePolicy {
    /// No rescue: a single plain solve (the bit-identity configuration).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            grow_restart: false,
            dense_fallback: false,
        }
    }

    /// Every rung enabled.
    #[must_use]
    pub fn full() -> Self {
        Self {
            grow_restart: true,
            dense_fallback: true,
        }
    }

    /// Whether any rescue rung beyond the initial solve is enabled.
    #[must_use]
    pub fn any_enabled(&self) -> bool {
        self.grow_restart || self.dense_fallback
    }
}

/// Telemetry for one attempted rung.
#[derive(Clone, Debug, PartialEq)]
pub struct KrylovRungTrace {
    /// Which rung ran.
    pub rung: KrylovRescueRung,
    /// Matvecs (or direct solves) this rung performed.
    pub iterations: usize,
    /// Residual when the rung finished (converged or not), when known.
    pub residual: Option<f64>,
    /// The typed error that ended the rung, or `None` on convergence.
    pub error: Option<KrylovError>,
    /// Wall-clock seconds spent inside this rung.
    pub elapsed_seconds: f64,
}

impl KrylovRungTrace {
    /// Whether this rung converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.error.is_none()
    }
}

/// What the rescue ladder did for one solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KrylovRescueReport {
    /// The rung that converged, or `None` if the ladder was exhausted.
    pub converged_by: Option<KrylovRescueRung>,
    /// Every rung attempted, in order.
    pub rungs: Vec<KrylovRungTrace>,
    /// Total matvecs (and direct solves) across all rungs.
    pub total_iterations: usize,
}

impl KrylovRescueReport {
    /// Whether the initial configuration converged with no escalation.
    #[must_use]
    pub fn initial_sufficed(&self) -> bool {
        self.converged_by == Some(KrylovRescueRung::Initial)
    }

    /// One-line human-readable trajectory, e.g.
    /// `"initial(stagnated) -> grown-restart(converged)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .rungs
            .iter()
            .map(|t| {
                let outcome = match &t.error {
                    None => "converged".to_string(),
                    Some(e) => match e {
                        KrylovError::IterationCap { .. } => "iteration-cap".to_string(),
                        KrylovError::Stagnation { .. } => "stagnated".to_string(),
                        KrylovError::Breakdown { .. } => "breakdown".to_string(),
                        KrylovError::Cancelled { .. } => "cancelled".to_string(),
                        KrylovError::BudgetExceeded { .. } => "budget-exceeded".to_string(),
                        other => other.to_string(),
                    },
                };
                format!("{}({outcome})", t.rung)
            })
            .collect();
        parts.join(" -> ")
    }
}

/// Ladder failure: the typed error of the last rung plus the full
/// telemetry of everything that was attempted.
#[derive(Clone, Debug, PartialEq)]
pub struct KrylovRescueFailure {
    /// The error that ended the ladder (the last rung's, or the budget
    /// violation that refused a rung).
    pub error: KrylovError,
    /// Telemetry for every rung attempted before giving up.
    pub report: KrylovRescueReport,
}

impl fmt::Display for KrylovRescueFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "krylov rescue exhausted [{}]: {}", self.report.summary(), self.error)
    }
}

impl std::error::Error for KrylovRescueFailure {}

/// Problem-specific material for the dense-direct rung.
///
/// The ladder itself is generic; what "the dense matrix" means depends
/// on the caller (an MNA AC system, a raw Toeplitz operator, …). The
/// method defaults to "not available", which skips the rung.
pub trait RescueProvider<T: Scalar> {
    /// The operator materialized as a dense matrix for the direct
    /// fallback, or `None` when materialization is impossible.
    fn dense_matrix(&self) -> Option<Matrix<T>> {
        None
    }
}

/// A provider with no dense matrix: only the grown-restart rung can
/// fire.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoEscalation;

impl<T: Scalar> RescueProvider<T> for NoEscalation {}

/// Residual slack accepted from the dense-direct rung relative to the
/// Krylov target: a direct solve of an ill-conditioned system may sit
/// slightly above an aggressive iterative tolerance without being
/// wrong.
const DENSE_RESIDUAL_SLACK: f64 = 1e3;

/// Factor by which the grown-restart rung multiplies the restart length
/// and the matvec cap.
const RESTART_GROWTH: usize = 4;

struct Ladder<'a, T: Scalar> {
    a: &'a dyn LinearOperator<T>,
    b: &'a [T],
    m: &'a dyn Preconditioner<T>,
    guard: SolveGuard,
    report: KrylovRescueReport,
}

impl<T: Scalar> Ladder<'_, T> {
    /// Appends one rung's trace; a rung with no error is the one that
    /// converged.
    fn record(
        &mut self,
        rung: KrylovRescueRung,
        iterations: usize,
        residual: Option<f64>,
        error: Option<KrylovError>,
        elapsed_seconds: f64,
    ) {
        if error.is_none() {
            self.report.converged_by = Some(rung);
        }
        self.report.total_iterations += iterations;
        self.report.rungs.push(KrylovRungTrace {
            rung,
            iterations,
            residual,
            error,
            elapsed_seconds,
        });
    }

    /// Runs one GMRES rung and records its trace. `Some(sol)` on
    /// convergence; `None` when the ladder should continue; `Err` on a
    /// non-retryable failure (cancellation, budget, shape).
    fn gmres_rung(
        &mut self,
        rung: KrylovRescueRung,
        x0: Option<&[T]>,
        opts: &KrylovOptions,
    ) -> Result<Option<KrylovSolution<T>>, KrylovError> {
        let before = self.guard.elapsed_seconds();
        let result = gmres_guarded(self.a, self.b, x0, self.m, opts, &self.guard);
        let elapsed = self.guard.elapsed_seconds() - before;
        match result {
            Ok(sol) => {
                self.record(rung, sol.iterations, Some(sol.residual), None, elapsed);
                Ok(Some(sol))
            }
            Err(e) => {
                let residual = match &e {
                    KrylovError::IterationCap { residual, .. }
                    | KrylovError::Stagnation { residual, .. } => Some(*residual),
                    _ => None,
                };
                self.record(rung, e.iterations(), residual, Some(e.clone()), elapsed);
                if e.is_retryable() {
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Runs the dense-direct rung and records its trace: refused before
    /// the n×n allocation when it would break the budget, skipped
    /// (`None`) when the provider has no dense matrix, otherwise an LU
    /// solve whose residual is checked against the true operator. Every
    /// failure of this last rung ends the ladder.
    fn dense_rung(
        &mut self,
        provider: &dyn RescueProvider<T>,
        tol: f64,
    ) -> Result<Option<KrylovSolution<T>>, KrylovError> {
        let rung = KrylovRescueRung::DenseDirect;
        let n = self.a.dim();
        let bytes = n
            .checked_mul(n)
            .and_then(|nn| nn.checked_mul(std::mem::size_of::<T>()))
            .unwrap_or(usize::MAX);
        if let Err(e) = self
            .guard
            .check_alloc(bytes)
            .and_then(|()| self.guard.check())
        {
            let error = KrylovError::from_budget(e, self.report.total_iterations);
            self.record(rung, 0, None, Some(error.clone()), 0.0);
            return Err(error);
        }
        let Some(dense) = provider.dense_matrix() else {
            return Ok(None);
        };
        let before = self.guard.elapsed_seconds();
        let outcome = dense.lu().and_then(|f| f.solve(self.b));
        let elapsed = self.guard.elapsed_seconds() - before;
        let Ok(x) = outcome else {
            let error = KrylovError::Breakdown {
                iterations: 0,
                what: "dense-direct fallback factorization is singular",
            };
            self.record(rung, 0, None, Some(error.clone()), elapsed);
            return Err(error);
        };
        // Verify against the *true* operator, not the dense
        // approximation we factored.
        let residual = crate::norm2(&true_residual(self.a, &x, self.b));
        let target = tol * crate::norm2(self.b) * DENSE_RESIDUAL_SLACK;
        let error =
            (!(residual.is_finite() && residual <= target)).then_some(KrylovError::Breakdown {
                iterations: 1,
                what: "dense-direct fallback residual above target",
            });
        self.record(rung, 1, Some(residual), error.clone(), elapsed);
        match error {
            None => Ok(Some(KrylovSolution {
                x,
                iterations: self.report.total_iterations,
                residual,
            })),
            Some(e) => Err(e),
        }
    }
}

/// Solves `A·x = b` through the rescue ladder described in the module
/// docs.
///
/// With `policy` fully disabled this is exactly one guarded GMRES
/// solve — same arithmetic, same bits as [`crate::gmres`] under an
/// unlimited budget. Rescue rungs discard the warm start `x0` (a guess
/// that led to failure is assumed poisoned) and restart from zero.
///
/// # Errors
///
/// [`KrylovRescueFailure`] carrying the last typed [`KrylovError`] and
/// the full rung telemetry. Cancellation and budget violations abort
/// the ladder immediately; convergence failures climb to the next
/// enabled rung.
#[allow(clippy::too_many_arguments)]
pub fn solve_with_rescue<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    m: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    policy: &KrylovRescuePolicy,
    budget: &SolveBudget,
    provider: &dyn RescueProvider<T>,
) -> Result<(KrylovSolution<T>, KrylovRescueReport), Box<KrylovRescueFailure>> {
    let mut ladder = Ladder {
        a,
        b,
        m,
        guard: SolveGuard::new(budget.clone()),
        report: KrylovRescueReport::default(),
    };

    macro_rules! rung {
        ($outcome:expr) => {
            match $outcome {
                Ok(Some(sol)) => return Ok((sol, ladder.report)),
                Ok(None) => {}
                Err(e) => {
                    return Err(Box::new(KrylovRescueFailure {
                        error: e,
                        report: ladder.report,
                    }))
                }
            }
        };
    }

    rung!(ladder.gmres_rung(KrylovRescueRung::Initial, x0, opts));

    if policy.grow_restart {
        // The rung both lengthens the restart cycle and scales the
        // matvec cap with it — retrying under the same tight cap that
        // just failed would be pointless.
        let grown_opts = KrylovOptions {
            restart: opts
                .restart
                .saturating_mul(RESTART_GROWTH)
                .min(a.dim().max(1)),
            max_iters: opts.max_iters.saturating_mul(RESTART_GROWTH),
            ..opts.clone()
        };
        rung!(ladder.gmres_rung(KrylovRescueRung::GrownRestart, None, &grown_opts));
    }

    if policy.dense_fallback {
        rung!(ladder.dense_rung(provider, opts.tol));
    }

    // Ladder exhausted: surface the last recorded rung error, or a
    // generic stagnation if no rung could even run.
    let error = ladder
        .report
        .rungs
        .last()
        .and_then(|t| t.error.clone())
        .unwrap_or(KrylovError::Stagnation {
            iterations: 0,
            residual: f64::INFINITY,
        });
    Err(Box::new(KrylovRescueFailure {
        error,
        report: ladder.report,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gmres, CancelToken, IdentityPreconditioner};

    fn laplacian(n: usize) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.5
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    struct DenseProvider<'a> {
        a: &'a Matrix<f64>,
    }

    impl RescueProvider<f64> for DenseProvider<'_> {
        fn dense_matrix(&self) -> Option<Matrix<f64>> {
            Some(self.a.clone())
        }
    }

    #[test]
    fn disabled_policy_matches_plain_gmres_bitwise() {
        let n = 40;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let opts = KrylovOptions::default();
        let plain = gmres(&a, &b, None, &IdentityPreconditioner, &opts).unwrap();
        let (sol, report) = solve_with_rescue(
            &a,
            &b,
            None,
            &IdentityPreconditioner,
            &opts,
            &KrylovRescuePolicy::disabled(),
            &SolveBudget::unlimited(),
            &NoEscalation,
        )
        .unwrap();
        assert_eq!(sol.x, plain.x, "rescue-off path must be bit-identical");
        assert_eq!(sol.iterations, plain.iterations);
        assert!(report.initial_sufficed());
        assert_eq!(report.rungs.len(), 1);
    }

    #[test]
    fn grown_restart_rescues_a_capped_solve() {
        let n = 60;
        let a = laplacian(n);
        let b = vec![1.0; n];
        // Tiny restart + tight cap: the initial rung caps out, the
        // grown-restart rung converges.
        let opts = KrylovOptions {
            tol: 1e-10,
            max_iters: 12,
            restart: 2,
        };
        let policy = KrylovRescuePolicy {
            grow_restart: true,
            dense_fallback: false,
        };
        let (sol, report) = solve_with_rescue(
            &a,
            &b,
            None,
            &IdentityPreconditioner,
            &opts,
            &policy,
            &SolveBudget::unlimited(),
            &NoEscalation,
        )
        .unwrap();
        assert_eq!(report.converged_by, Some(KrylovRescueRung::GrownRestart));
        assert_eq!(report.rungs.len(), 2);
        assert!(!report.rungs[0].converged());
        assert!(report.summary().contains("grown-restart(converged)"));
        let exact = a.lu().unwrap().solve(&b).unwrap();
        for (g, e) in sol.x.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-8);
        }
    }

    #[test]
    fn dense_fallback_rescues_when_krylov_cannot() {
        let n = 30;
        let a = laplacian(n);
        let b = vec![1.0; n];
        // A cap too small for any Krylov progress.
        let opts = KrylovOptions {
            tol: 1e-10,
            max_iters: 2,
            restart: 2,
        };
        let policy = KrylovRescuePolicy {
            grow_restart: false,
            dense_fallback: true,
        };
        let provider = DenseProvider { a: &a };
        let (sol, report) = solve_with_rescue(
            &a,
            &b,
            None,
            &IdentityPreconditioner,
            &opts,
            &policy,
            &SolveBudget::unlimited(),
            &provider,
        )
        .unwrap();
        assert_eq!(report.converged_by, Some(KrylovRescueRung::DenseDirect));
        let exact = a.lu().unwrap().solve(&b).unwrap();
        for (g, e) in sol.x.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn dense_fallback_refused_on_memory_budget() {
        let n = 30;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let opts = KrylovOptions {
            tol: 1e-10,
            max_iters: 2,
            restart: 2,
        };
        let policy = KrylovRescuePolicy {
            grow_restart: false,
            dense_fallback: true,
        };
        let provider = DenseProvider { a: &a };
        // 30×30 f64 needs 7200 B; allow only 1 KiB.
        let budget = SolveBudget::unlimited().with_memory_bytes(1024);
        let err = solve_with_rescue(
            &a,
            &b,
            None,
            &IdentityPreconditioner,
            &opts,
            &policy,
            &budget,
            &provider,
        )
        .unwrap_err();
        assert!(
            matches!(err.error, KrylovError::BudgetExceeded { .. }),
            "expected BudgetExceeded, got {:?}",
            err.error
        );
        assert!(err.report.summary().contains("dense-direct(budget-exceeded)"));
    }

    #[test]
    fn cancellation_aborts_the_ladder() {
        let n = 30;
        let a = laplacian(n);
        let b = vec![1.0; n];
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let err = solve_with_rescue(
            &a,
            &b,
            None,
            &IdentityPreconditioner,
            &KrylovOptions::default(),
            &KrylovRescuePolicy::full(),
            &budget,
            &NoEscalation,
        )
        .unwrap_err();
        assert!(matches!(err.error, KrylovError::Cancelled { .. }));
        // Cancellation must not climb: exactly one rung attempted.
        assert_eq!(err.report.rungs.len(), 1);
    }
}
