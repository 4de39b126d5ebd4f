//! Passivity / well-posedness auditor for inductance matrices.
//!
//! A partial-inductance matrix stamps into the MNA system as the
//! inductive energy term `½·iᵀL i`; if `L` loses positive definiteness
//! (as aggressive truncation does — the paper's Section 4), the model
//! becomes *active* and a transient simulation through it can generate
//! energy and diverge. This module classifies a matrix **without
//! simulating**:
//!
//! 1. every entry finite,
//! 2. every diagonal strictly positive,
//! 3. symmetric (reciprocity: `L_ij = L_ji`),
//! 4. every coupling coefficient `|k_ij| = |L_ij|/√(L_ii·L_jj) ≤ 1`,
//! 5. diagonal-dominance screen (informational — sufficient, not
//!    necessary, for definiteness),
//! 6. Cholesky verdict — the cheap definitive passivity test, naming
//!    the pivot that broke when it fails,
//! 7. on failure, an eigenvalue post-mortem producing a *verified*
//!    repair: the diagonal shift `δ = −λ_min·(1 + margin)` that
//!    restores definiteness, or the advice to switch screens. λ_min
//!    comes from [`ind101_numeric::extreme_eigenvalues`] (one Householder
//!    reduction, then Sturm bisection), not from a full spectrum.

use crate::diagnostic::{Severity, VerifyReport};
use ind101_numeric::{extreme_eigenvalues, Matrix, NumericError};
use ind101_sparsify::{coupling_coefficient, CouplingError, Sparsified};

/// Tunables of the matrix audit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatrixAuditConfig {
    /// Relative symmetry tolerance: flag when
    /// `symmetry_defect() > symmetry_tol · max_abs()`.
    pub symmetry_tol: f64,
    /// Slack on the coupling bound: flag when `|k| > 1 + coupling_tol`
    /// (exact equality arises for perfectly-coupled test fixtures).
    pub coupling_tol: f64,
    /// Safety margin on the suggested diagonal repair shift:
    /// `δ = −λ_min · (1 + repair_margin)`.
    pub repair_margin: f64,
    /// Verify the suggested shift by re-factorizing the repaired
    /// matrix (costs one extra Cholesky on failure paths only).
    pub verify_repair: bool,
}

/// Relative nudge applied to a semi-definite matrix (smallest
/// eigenvalue exactly zero) so the repaired factorization clears the
/// pivot threshold.
const SEMI_DEFINITE_NUDGE: f64 = 1e-12;

/// Default relative symmetry tolerance for the audit.
const DEFAULT_SYMMETRY_TOL: f64 = 1e-9;
/// Default slack above `k = 1` tolerated before a coupling coefficient
/// counts as non-physical.
const DEFAULT_COUPLING_TOL: f64 = 1e-9;

impl Default for MatrixAuditConfig {
    fn default() -> Self {
        Self {
            symmetry_tol: DEFAULT_SYMMETRY_TOL,
            coupling_tol: DEFAULT_COUPLING_TOL,
            repair_margin: 0.1,
            verify_repair: true,
        }
    }
}

/// Outcome of auditing one matrix.
#[derive(Clone, Debug)]
pub struct MatrixAudit {
    /// The findings.
    pub report: VerifyReport,
    /// Definitive verdict: `true` iff the Cholesky factorization
    /// succeeded (matrix is symmetric positive definite → passive).
    pub passive: bool,
    /// The Cholesky pivot (index, value) that broke definiteness, when
    /// the verdict is non-passive.
    pub failed_pivot: Option<(usize, f64)>,
    /// Smallest eigenvalue, computed only on non-passive matrices
    /// (henries; negative or ~0 when definiteness is lost).
    pub min_eigenvalue: Option<f64>,
    /// Diagonal shift (henries) that restores positive definiteness,
    /// verified by re-factorization when
    /// [`MatrixAuditConfig::verify_repair`] is set.
    pub suggested_shift: Option<f64>,
}

impl MatrixAudit {
    fn clean(report: VerifyReport) -> Self {
        Self {
            report,
            passive: true,
            failed_pivot: None,
            min_eigenvalue: None,
            suggested_shift: None,
        }
    }
}

/// Returns a copy of `m` with `shift` added to every diagonal entry —
/// the repair the auditor suggests for a non-passive matrix.
pub fn repaired_with_shift(m: &Matrix<f64>, shift: f64) -> Matrix<f64> {
    let mut r = m.clone();
    for k in 0..r.nrows().min(r.ncols()) {
        r[(k, k)] += shift;
    }
    r
}

/// Audits a square inductance matrix; `label` names it in diagnostics
/// ("full extraction", "sparsified matrix (truncation screen)", …).
pub fn audit_matrix(m: &Matrix<f64>, label: &str, cfg: &MatrixAuditConfig) -> MatrixAudit {
    let mut report = VerifyReport::new();
    let n = m.nrows();
    if n == 0 {
        return MatrixAudit::clean(report);
    }
    if m.ncols() != n {
        report.push(
            Severity::Error,
            label,
            "not-square",
            format!("matrix is {}x{}", n, m.ncols()),
            "an inductance matrix must be square",
        );
        return MatrixAudit {
            passive: false,
            failed_pivot: None,
            min_eigenvalue: None,
            suggested_shift: None,
            report,
        };
    }

    let mut structural_errors = false;

    // 1. Finiteness + 2. diagonal positivity (first offender each).
    'finite: for i in 0..n {
        for j in 0..n {
            let v = m[(i, j)];
            if !v.is_finite() {
                report.push(
                    Severity::Error,
                    label,
                    "non-finite-entry",
                    format!("entry ({i},{j}) = {v}"),
                    "re-extract; a NaN/Inf here usually means degenerate geometry \
                     reached the inductance kernels",
                );
                structural_errors = true;
                break 'finite;
            }
        }
    }
    for k in 0..n {
        let d = m[(k, k)];
        if d.is_finite() && d <= 0.0 {
            report.push(
                Severity::Error,
                label,
                "non-positive-diagonal",
                format!("self inductance [{k}] = {d:e} H"),
                "every partial self inductance must be > 0; check the screen's \
                 diagonal handling (shell over-subtraction is the usual culprit)",
            );
            structural_errors = true;
        }
    }

    // 3. Symmetry (reciprocity).
    let defect = m.symmetry_defect();
    let scale = m.max_abs();
    if defect > cfg.symmetry_tol * scale {
        report.push(
            Severity::Error,
            label,
            "asymmetric-matrix",
            format!("symmetry defect {defect:e} H exceeds {:e} of max |L| = {scale:e} H",
                cfg.symmetry_tol),
            "mutual inductance is reciprocal (L_ij = L_ji); symmetrize with \
             (L + Lᵀ)/2 or fix the screen that edited only one triangle",
        );
        structural_errors = true;
    }

    // 4. Coupling-coefficient bound, |k_ij| ≤ 1 for every pair.
    if !structural_errors {
        'coupling: for i in 0..n {
            for j in (i + 1)..n {
                match coupling_coefficient(m, i, j) {
                    Ok(k) => {
                        if k.abs() > 1.0 + cfg.coupling_tol {
                            report.push(
                                Severity::Error,
                                label,
                                "coupling-exceeds-unity",
                                format!("|k({i},{j})| = {:.6} > 1", k.abs()),
                                "a physical mutual inductance satisfies \
                                 |L_ij| ≤ √(L_ii·L_jj); clamp the off-diagonal or \
                                 re-extract the pair",
                            );
                            structural_errors = true;
                            break 'coupling;
                        }
                    }
                    Err(CouplingError::NonPositiveDiagonal { index, value }) => {
                        // Already reported by the diagonal screen above,
                        // unless the defect is only visible through k.
                        report.push(
                            Severity::Error,
                            label,
                            "non-positive-diagonal",
                            format!("coupling check hit L[{index},{index}] = {value:e} H"),
                            "every partial self inductance must be > 0",
                        );
                        structural_errors = true;
                        break 'coupling;
                    }
                    Err(CouplingError::NonFiniteEntry { i, j, value }) => {
                        report.push(
                            Severity::Error,
                            label,
                            "non-finite-entry",
                            format!("entry ({i},{j}) = {value}"),
                            "re-extract; degenerate geometry reached the kernels",
                        );
                        structural_errors = true;
                        break 'coupling;
                    }
                }
            }
        }
    }

    // 5. Diagonal-dominance screen. Dominance is *sufficient* for
    // definiteness but far from necessary — full PEEC matrices are
    // rarely dominant — so this is informational context, not a defect.
    if !structural_errors {
        let mut worst_row = 0usize;
        let mut worst_ratio = f64::INFINITY;
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            let ratio = if off == 0.0 { f64::INFINITY } else { m[(i, i)] / off };
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_row = i;
            }
        }
        if worst_ratio < 1.0 {
            report.push(
                Severity::Info,
                label,
                "not-diagonally-dominant",
                format!(
                    "row {worst_row} has L_ii/Σ|L_ij| = {worst_ratio:.3}; \
                     dominance would guarantee definiteness but is not required"
                ),
                "no action needed if the Cholesky verdict below is passive",
            );
        }
    }

    if structural_errors {
        // Structural defects make the Cholesky verdict meaningless
        // (NaN poisoning, asymmetry); the model is rejected already.
        return MatrixAudit {
            passive: false,
            failed_pivot: None,
            min_eigenvalue: None,
            suggested_shift: None,
            report,
        };
    }

    // 6. The definitive passivity verdict: Cholesky.
    match m.cholesky() {
        Ok(_) => MatrixAudit::clean(report),
        Err(NumericError::NotPositiveDefinite { pivot, value }) => {
            // 7. Eigenvalue post-mortem → verified repair suggestion.
            let min_eig = extreme_eigenvalues(m).ok().map(|(lo, _)| lo);
            let shift = min_eig.map(|lam| {
                if lam >= 0.0 {
                    // Semi-definite edge: nudge by the matrix scale.
                    scale * SEMI_DEFINITE_NUDGE * (1.0 + cfg.repair_margin)
                } else {
                    -lam * (1.0 + cfg.repair_margin)
                }
            });
            let verified_shift = match (shift, cfg.verify_repair) {
                (Some(s), true) => repaired_with_shift(m, s)
                    .is_positive_definite()
                    .then_some(s),
                (s, false) => s,
                (None, _) => None,
            };
            let fix = match (verified_shift, min_eig) {
                (Some(s), Some(lam)) => format!(
                    "add δ = {s:.3e} H to each diagonal (λ_min = {lam:.3e} H; shift \
                     verified to restore positive definiteness), or use a \
                     passive-by-construction screen (block-diagonal, shell, K-matrix)"
                ),
                _ => "retreat to a weaker threshold or a passive-by-construction \
                      screen (block-diagonal, shell, K-matrix)"
                    .to_owned(),
            };
            report.push(
                Severity::Error,
                label,
                "non-passive-matrix",
                format!(
                    "Cholesky broke at pivot {pivot} (value {value:e}): the model \
                     is active and can generate energy in transient simulation"
                ),
                fix,
            );
            MatrixAudit {
                passive: false,
                failed_pivot: Some((pivot, value)),
                min_eigenvalue: min_eig,
                suggested_shift: verified_shift,
                report,
            }
        }
        Err(e) => {
            report.push(
                Severity::Error,
                label,
                "factorization-failed",
                format!("Cholesky failed: {e}"),
                "check matrix dimensions and entries",
            );
            MatrixAudit {
                passive: false,
                failed_pivot: None,
                min_eigenvalue: None,
                suggested_shift: None,
                report,
            }
        }
    }
}

/// Audits a sparsifier output, naming the *screen* that produced it so
/// a failed verdict reads "truncation broke definiteness", not just
/// "matrix is bad".
pub fn audit_sparsified(s: &Sparsified, cfg: &MatrixAuditConfig) -> MatrixAudit {
    let label = format!("sparsified matrix ({} screen)", s.method);
    let mut audit = audit_matrix(&s.matrix, &label, cfg);
    if !audit.passive {
        // Annotate the screen + its aggressiveness so the caller knows
        // *which knob* to turn, not just that the matrix is broken.
        let dropped = s.stats.dropped;
        let kept = s.stats.kept;
        for d in &mut audit.report.diagnostics {
            if d.rule == "non-passive-matrix" {
                d.message = format!(
                    "{} [screen '{}' dropped {dropped} couplings, kept {kept}]",
                    d.message, s.method
                );
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix<f64> {
        // Diagonally dominant symmetric → PD.
        let mut m = Matrix::zeros(3, 3);
        for k in 0..3 {
            m[(k, k)] = 2.0e-9;
        }
        m[(0, 1)] = 0.5e-9;
        m[(1, 0)] = 0.5e-9;
        m[(1, 2)] = 0.4e-9;
        m[(2, 1)] = 0.4e-9;
        m
    }

    #[test]
    fn passive_matrix_audits_clean() {
        let a = audit_matrix(&spd3(), "test", &MatrixAuditConfig::default());
        assert!(a.passive);
        assert!(a.report.is_clean());
        assert!(a.suggested_shift.is_none());
    }

    #[test]
    fn asymmetry_is_an_error() {
        let mut m = spd3();
        m[(0, 1)] = 0.7e-9; // breaks reciprocity
        let a = audit_matrix(&m, "test", &MatrixAuditConfig::default());
        assert!(!a.passive);
        assert_eq!(a.report.by_rule("asymmetric-matrix").len(), 1);
    }

    #[test]
    fn negative_diagonal_is_an_error() {
        let mut m = spd3();
        m[(2, 2)] = -1e-9;
        let a = audit_matrix(&m, "test", &MatrixAuditConfig::default());
        assert!(!a.passive);
        assert!(!a.report.by_rule("non-positive-diagonal").is_empty());
    }

    #[test]
    fn nan_entry_is_an_error() {
        let mut m = spd3();
        m[(0, 2)] = f64::NAN;
        m[(2, 0)] = f64::NAN;
        let a = audit_matrix(&m, "test", &MatrixAuditConfig::default());
        assert!(!a.passive);
        assert!(!a.report.by_rule("non-finite-entry").is_empty());
    }

    #[test]
    fn coupling_above_unity_is_an_error() {
        let mut m = spd3();
        // |k(0,1)| = 2.5/2 > 1 while keeping the matrix symmetric.
        m[(0, 1)] = 5.0e-9;
        m[(1, 0)] = 5.0e-9;
        let a = audit_matrix(&m, "test", &MatrixAuditConfig::default());
        assert!(!a.passive);
        assert_eq!(a.report.by_rule("coupling-exceeds-unity").len(), 1);
    }

    #[test]
    fn indefinite_matrix_gets_verified_shift() {
        // Symmetric, positive diagonal, |k| ≤ 1, but indefinite:
        // strong equal couplings in a ring.
        let mut m = Matrix::zeros(3, 3);
        for k in 0..3 {
            m[(k, k)] = 1.0e-9;
        }
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            m[(i, j)] = -0.9e-9;
            m[(j, i)] = -0.9e-9;
        }
        assert!(!m.is_positive_definite());
        let a = audit_matrix(&m, "test", &MatrixAuditConfig::default());
        assert!(!a.passive);
        let (pivot, _) = a.failed_pivot.expect("pivot must be named");
        assert!(pivot < 3);
        let lam = a.min_eigenvalue.expect("post-mortem must run");
        assert!(lam < 0.0);
        let shift = a.suggested_shift.expect("repair must be suggested");
        assert!(repaired_with_shift(&m, shift).is_positive_definite());
        // And the diagnostic carries the quantitative hint.
        let d = &a.report.by_rule("non-passive-matrix")[0];
        assert!(d.fix_hint.contains("diagonal"), "{}", d.fix_hint);
    }

    #[test]
    fn empty_matrix_is_trivially_clean() {
        let a = audit_matrix(&Matrix::zeros(0, 0), "test", &MatrixAuditConfig::default());
        assert!(a.passive);
    }
}
