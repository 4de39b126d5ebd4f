//! Shared result types and quality metrics for sparsification.
//!
//! [`stability_report`] answers the paper's Section-4 question (is the
//! sparsified matrix still positive definite?) from λ_min and λ_max
//! alone, which [`ind101_numeric::extreme_eigenvalues`] computes by one
//! Householder reduction and Sturm bisection; no full spectrum is
//! formed.

use ind101_numeric::{extreme_eigenvalues, Matrix};
use std::fmt;

/// Typed error from coupling-coefficient evaluation.
///
/// A coupling coefficient `k_ij = L_ij / √(L_ii·L_jj)` is only defined
/// for positive self terms; a zero or negative diagonal previously fed
/// `sqrt` a non-positive argument and produced a silent NaN that every
/// comparison treated as "below threshold".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CouplingError {
    /// A diagonal (self-inductance) entry is zero, negative or NaN.
    NonPositiveDiagonal {
        /// Matrix index of the offending diagonal entry.
        index: usize,
        /// The offending value, henries.
        value: f64,
    },
    /// An off-diagonal entry is NaN or infinite.
    NonFiniteEntry {
        /// Row of the offending entry.
        i: usize,
        /// Column of the offending entry.
        j: usize,
        /// The offending value, henries.
        value: f64,
    },
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPositiveDiagonal { index, value } => write!(
                f,
                "self inductance L[{index},{index}] = {value:e} H is not positive; \
                 coupling coefficients are undefined"
            ),
            Self::NonFiniteEntry { i, j, value } => {
                write!(f, "mutual inductance L[{i},{j}] = {value} H is not finite")
            }
        }
    }
}

impl std::error::Error for CouplingError {}

/// Coupling coefficient `k_ij = L_ij / √(L_ii·L_jj)` of a symmetric
/// inductance matrix, guarded against degenerate diagonals.
///
/// # Errors
///
/// * [`CouplingError::NonPositiveDiagonal`] if `L_ii` or `L_jj` is zero,
///   negative or NaN (the former silent-NaN path).
/// * [`CouplingError::NonFiniteEntry`] if `L_ij` is NaN or infinite.
pub fn coupling_coefficient(m: &Matrix<f64>, i: usize, j: usize) -> Result<f64, CouplingError> {
    for idx in [i, j] {
        let d = m[(idx, idx)];
        if !(d > 0.0) || !d.is_finite() {
            return Err(CouplingError::NonPositiveDiagonal {
                index: idx,
                value: d,
            });
        }
    }
    let v = m[(i, j)];
    if !v.is_finite() {
        return Err(CouplingError::NonFiniteEntry { i, j, value: v });
    }
    Ok(v / (m[(i, i)] * m[(j, j)]).sqrt())
}

/// Largest-magnitude off-diagonal coupling coefficient of the strict
/// upper triangle, with its index pair; `None` for matrices of
/// dimension < 2.
///
/// # Errors
///
/// Propagates [`CouplingError`] from any entry.
pub fn max_coupling_coefficient(
    m: &Matrix<f64>,
) -> Result<Option<(usize, usize, f64)>, CouplingError> {
    let n = m.nrows();
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..n {
        for j in (i + 1)..n {
            let k = coupling_coefficient(m, i, j)?;
            if best.map_or(true, |(_, _, b)| k.abs() > b.abs()) {
                best = Some((i, j, k));
            }
        }
    }
    Ok(best)
}

/// Sparsity statistics of a sparsified inductance matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparsityStats {
    /// Off-diagonal entries in the strict upper triangle of the input.
    pub total: usize,
    /// Entries kept (nonzero after sparsification).
    pub kept: usize,
    /// Entries dropped or zeroed.
    pub dropped: usize,
}

impl SparsityStats {
    /// Fraction of mutual terms retained (1.0 when nothing was dropped;
    /// defined as 1.0 for an empty matrix).
    pub fn retention(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }

    /// Computes stats by comparing dense matrices before/after.
    pub fn compare(before: &Matrix<f64>, after: &Matrix<f64>) -> Self {
        let n = before.nrows();
        let mut total = 0;
        let mut kept = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if before[(i, j)] != 0.0 {
                    total += 1;
                    if after[(i, j)] != 0.0 {
                        kept += 1;
                    }
                }
            }
        }
        Self {
            total,
            kept,
            dropped: total - kept,
        }
    }
}

/// A sparsified inductance matrix with bookkeeping.
#[derive(Clone, Debug)]
pub struct Sparsified {
    /// The sparsified (still dense-stored, symmetric) matrix, henries.
    pub matrix: Matrix<f64>,
    /// Sparsity statistics relative to the input.
    pub stats: SparsityStats,
    /// Human-readable method tag (for reports).
    pub method: &'static str,
}

/// Stability (passivity) report of an inductance matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StabilityReport {
    /// Smallest eigenvalue, henries.
    pub min_eigenvalue: f64,
    /// Largest eigenvalue, henries.
    pub max_eigenvalue: f64,
    /// Whether the matrix is positive definite (passive).
    pub positive_definite: bool,
}

/// Computes the eigenvalue-based stability report from the two extreme
/// eigenvalues.
///
/// A non-positive-definite inductance matrix represents an *active*
/// element — a transient simulation through it can generate energy and
/// diverge, which is why naive truncation is "not a feasible solution"
/// (paper, Section 4).
pub fn stability_report(m: &Matrix<f64>) -> StabilityReport {
    if m.nrows() == 0 {
        return StabilityReport {
            min_eigenvalue: 0.0,
            max_eigenvalue: 0.0,
            positive_definite: true,
        };
    }
    // `extreme_eigenvalues` fails on non-square input and on a NaN or
    // infinite entry; neither has a meaningful spectrum, so report "not
    // positive definite" rather than panicking or trusting NaN arithmetic.
    match extreme_eigenvalues(m) {
        Ok((min_ev, max_ev)) => StabilityReport {
            min_eigenvalue: min_ev,
            max_eigenvalue: max_ev,
            positive_definite: min_ev > 0.0,
        },
        Err(_) => StabilityReport {
            min_eigenvalue: f64::NAN,
            max_eigenvalue: f64::NAN,
            positive_definite: false,
        },
    }
}

/// Relative Frobenius-norm error `‖A − B‖F / ‖A‖F` between the original
/// and sparsified matrices — the accuracy axis of the paper's
/// run-time/accuracy trade-off.
pub fn matrix_error(original: &Matrix<f64>, sparsified: &Matrix<f64>) -> f64 {
    let diff = original - sparsified;
    let denom = original.frobenius_norm();
    if denom == 0.0 {
        0.0
    } else {
        diff.frobenius_norm() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_compare_counts_drops() {
        let a = Matrix::from_rows(&[&[1.0, 0.5, 0.2], &[0.5, 1.0, 0.3], &[0.2, 0.3, 1.0]]);
        let mut b = a.clone();
        b[(0, 2)] = 0.0;
        b[(2, 0)] = 0.0;
        let s = SparsityStats::compare(&a, &b);
        assert_eq!(s.total, 3);
        assert_eq!(s.kept, 2);
        assert_eq!(s.dropped, 1);
        assert!((s.retention() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stability_of_pd_and_indefinite() {
        let pd = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let r = stability_report(&pd);
        assert!(r.positive_definite);
        assert!(r.min_eigenvalue > 0.0);

        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let r = stability_report(&indef);
        assert!(!r.positive_definite);
        assert!(r.min_eigenvalue < 0.0);
        assert!(r.max_eigenvalue > r.min_eigenvalue);
    }

    /// Asserts `m` is reported as not positive definite with a NaN
    /// spectrum: a non-finite entry has no meaningful eigenvalues.
    fn assert_non_finite_is_not_pd(m: &Matrix<f64>) {
        let r = stability_report(m);
        assert!(!r.positive_definite, "{r:?}");
        assert!(
            r.min_eigenvalue.is_nan() && r.max_eigenvalue.is_nan(),
            "{r:?}"
        );
    }

    #[test]
    fn nan_off_diagonal_is_not_positive_definite() {
        assert_non_finite_is_not_pd(&Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]));
    }

    #[test]
    fn infinite_off_diagonal_is_not_positive_definite() {
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_non_finite_is_not_pd(&Matrix::from_rows(&[&[1.0, inf], &[inf, 1.0]]));
        }
    }

    #[test]
    fn nan_diagonal_is_not_positive_definite() {
        assert_non_finite_is_not_pd(&Matrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::NAN]]));
        assert_non_finite_is_not_pd(&Matrix::from_rows(&[&[f64::NAN, 0.5], &[0.5, 1.0]]));
    }

    #[test]
    fn error_metric_zero_for_identical() {
        let a = Matrix::identity(3);
        assert_eq!(matrix_error(&a, &a), 0.0);
        let mut b = a.clone();
        b[(0, 0)] = 0.0;
        let e = matrix_error(&a, &b);
        assert!((e - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn coupling_coefficient_of_valid_matrix() {
        let m = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 1.0]]);
        let k = coupling_coefficient(&m, 0, 1).unwrap();
        assert!((k - 0.5).abs() < 1e-15);
        let best = max_coupling_coefficient(&m).unwrap().unwrap();
        assert_eq!((best.0, best.1), (0, 1));
    }

    #[test]
    fn coupling_coefficient_rejects_bad_diagonal() {
        for bad in [0.0, -1.0, f64::NAN] {
            let m = Matrix::from_rows(&[&[bad, 0.5], &[0.5, 1.0]]);
            let e = coupling_coefficient(&m, 0, 1).unwrap_err();
            assert!(
                matches!(e, CouplingError::NonPositiveDiagonal { index: 0, .. }),
                "value {bad}: {e}"
            );
            assert!(e.to_string().contains("not positive"), "{e}");
            assert!(max_coupling_coefficient(&m).is_err());
        }
    }

    #[test]
    fn coupling_coefficient_rejects_nan_mutual() {
        let m = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        let e = coupling_coefficient(&m, 0, 1).unwrap_err();
        assert!(matches!(e, CouplingError::NonFiniteEntry { i: 0, j: 1, .. }));
        assert!(e.to_string().contains("not finite"), "{e}");
    }

    #[test]
    fn empty_matrix_has_no_max_coupling() {
        assert_eq!(max_coupling_coefficient(&Matrix::zeros(0, 0)).unwrap(), None);
        assert_eq!(
            max_coupling_coefficient(&Matrix::identity(1)).unwrap(),
            None
        );
    }

    #[test]
    fn empty_matrix_is_trivially_stable() {
        let r = stability_report(&Matrix::zeros(0, 0));
        assert!(r.positive_definite);
        let s = SparsityStats::default();
        assert_eq!(s.retention(), 1.0);
    }
}
