//! Error type shared by all numeric kernels.

use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum NumericError {
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows observed.
        rows: usize,
        /// Number of columns observed.
        cols: usize,
    },
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// Factorization hit a (numerically) singular pivot.
    Singular {
        /// Index of the offending pivot.
        pivot: usize,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the first non-positive diagonal pivot.
        pivot: usize,
        /// Value of that pivot (≤ 0 or NaN).
        value: f64,
    },
    /// An iterative method failed to converge within its iteration cap.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An input entry was NaN or infinite, so no finite answer exists.
    NonFinite {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// An index was out of range for the container it addressed.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// A length that must be a power of two (FFT plans) was not.
    NotPowerOfTwo {
        /// The offending length.
        n: usize,
    },
    /// The sparse pattern admits no zero-free diagonal under any
    /// permutation: the maximum transversal of the BTF pre-pass matched
    /// only `matched` of `dim` rows, so every static-pivot order meets a
    /// structural zero and the matrix is singular for *every* value
    /// assignment.
    StructurallySingular {
        /// First row (original indexing) left without a matching column.
        row: usize,
        /// Rows the maximum transversal managed to match.
        matched: usize,
        /// Dimension of the system.
        dim: usize,
    },
    /// A numeric refactorization was handed a matrix whose sparsity
    /// pattern is not the one its symbolic analysis was made for.
    PatternMismatch {
        /// Stored entries of the analyzed pattern.
        expected_nnz: usize,
        /// Stored entries of the matrix supplied.
        found_nnz: usize,
    },
    /// Iterative refinement stopped with the componentwise
    /// (Oettli–Prager) backward error of the answer above the tolerance
    /// ([`crate::refine`]): the correction stalled or hit its round cap,
    /// and the answer is not returned.
    BackwardErrorAboveTolerance {
        /// Backward error of the last iterate (NaN when it was not
        /// finite).
        berr: f64,
        /// The tolerance it missed, [`crate::REFINE_TOL`].
        tol: f64,
    },
    /// The solve was cooperatively cancelled via a
    /// [`crate::CancelToken`].
    Cancelled,
    /// A resource ceiling in a [`crate::SolveBudget`] was exceeded.
    BudgetExceeded {
        /// Which ceiling tripped and by how much.
        what: String,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            Self::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            Self::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            Self::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} = {value:e}"
            ),
            Self::NoConvergence { iterations } => {
                write!(f, "failed to converge after {iterations} iterations")
            }
            Self::NonFinite { row, col } => {
                write!(f, "matrix entry ({row},{col}) is not finite")
            }
            Self::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            Self::NotPowerOfTwo { n } => {
                write!(f, "length {n} is not a power of two")
            }
            Self::StructurallySingular { row, matched, dim } => write!(
                f,
                "matrix is structurally singular: row {row} unmatched ({matched}/{dim} rows matched)"
            ),
            Self::PatternMismatch {
                expected_nnz,
                found_nnz,
            } => write!(
                f,
                "sparsity pattern differs from the symbolic analysis \
                 ({found_nnz} stored entries, analysis made for {expected_nnz})"
            ),
            Self::BackwardErrorAboveTolerance { berr, tol } => write!(
                f,
                "refined solve stopped at componentwise backward error {berr:e}, \
                 above the tolerance {tol:e}"
            ),
            Self::Cancelled => write!(f, "solve cancelled"),
            Self::BudgetExceeded { what } => {
                write!(f, "solve budget exceeded: {what}")
            }
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NumericError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
        let e = NumericError::Singular { pivot: 7 };
        assert!(e.to_string().contains('7'));
        let e = NumericError::NotPositiveDefinite {
            pivot: 1,
            value: -2.0,
        };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&NumericError::Singular { pivot: 0 });
    }
}
