//! Dense Cholesky factorization `A = L·Lᴴ` for Hermitian (symmetric,
//! when real) positive definite matrices, over any [`Scalar`].
//!
//! Two roles in the toolkit:
//!
//! * the *combined technique* of the paper ([Gala DAC 2000]) manipulates
//!   the MNA matrix of the linear PEEC partition into a positive-definite
//!   form precisely so that a fast Cholesky direct solver applies;
//! * Cholesky success/failure is the cheapest positive-definiteness test
//!   for sparsified partial-inductance matrices (Section 4 of the paper:
//!   truncation can destroy definiteness, block-diagonal cannot).
//!
//! The default entry point is **panel-blocked**: an `LU_BLOCK`-wide
//! diagonal block is factorized unblocked, the panel below it is solved
//! row-parallel, and the trailing Hermitian update `A₂₂ ← A₂₂ − L₂₁·L₂₁ᴴ`
//! is a [`crate::gemm`] tile kernel parallelized across row blocks. The
//! original scalar kernel survives as [`Matrix::cholesky_reference`], the
//! differential-test oracle.

use crate::gemm::{gemm_chunk, row_blocks_for, PARALLEL_FLOP_THRESHOLD};
use crate::lu::LU_BLOCK;
use crate::partition::{for_each_row_chunk, uniform_row_blocks};
use crate::{Matrix, NumericError, ParallelConfig, Result, Scalar};

/// Lower-triangular Cholesky factor of a Hermitian positive definite
/// matrix.
#[derive(Clone, Debug)]
pub struct CholeskyFactor<T: Scalar = f64> {
    l: Matrix<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Computes the Cholesky factorization `A = L·Lᴴ` with the
    /// panel-blocked kernel (threaded for large matrices).
    ///
    /// Only the lower triangle of `self` is read; Hermitian symmetry of
    /// the upper triangle is the caller's responsibility (use
    /// [`Matrix::symmetry_defect`] to verify when in doubt).
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] if the matrix is not square.
    /// * [`NumericError::NotPositiveDefinite`] if a pivot is ≤ 0 or NaN —
    ///   i.e. the matrix is not positive definite.
    pub fn cholesky(&self) -> Result<CholeskyFactor<T>> {
        let n = self.nrows();
        if n * n * n < PARALLEL_FLOP_THRESHOLD {
            self.cholesky_with(&ParallelConfig {
                threads: 1,
                cache_capacity: 0,
            })
        } else {
            self.cholesky_with(&ParallelConfig::default())
        }
    }

    /// [`Matrix::cholesky`] with an explicit parallelism configuration.
    /// Results are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::cholesky`].
    pub fn cholesky_with(&self, cfg: &ParallelConfig) -> Result<CholeskyFactor<T>> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.nrows(),
                cols: self.ncols(),
            });
        }
        let n = self.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&self.row(i)[..=i]);
        }
        let data = l.as_mut_slice();
        let mut kk = 0;
        while kk < n {
            let nb = LU_BLOCK.min(n - kk);
            let kend = kk + nb;
            // 1. Diagonal block, unblocked (trailing updates from earlier
            //    panels have already been applied to it).
            for i in kk..kend {
                for j in kk..=i {
                    let mut sum = data[i * n + j];
                    for q in kk..j {
                        sum -= data[i * n + q] * data[j * n + q].conj_val();
                    }
                    if i == j {
                        // Hermitian diagonal is real; pivot on the real
                        // part so `!(d > 0)` also catches NaN.
                        let d = sum.real_part();
                        if !(d > 0.0) {
                            return Err(NumericError::NotPositiveDefinite {
                                pivot: i,
                                value: d,
                            });
                        }
                        data[i * n + i] = T::from_f64(d.sqrt());
                    } else {
                        data[i * n + j] = sum / data[j * n + j];
                    }
                }
            }
            if kend < n {
                let mt = n - kend;
                // 2. Panel solve L21·L11ᴴ = A21, independent per row.
                let (upper, lower) = data.split_at_mut(kend * n);
                let l11 = &upper[kk * n..];
                let blocks = row_blocks_for(cfg, mt, mt * nb * nb);
                let ranges = uniform_row_blocks(mt, blocks);
                for_each_row_chunk(lower, n, &ranges, |_rows, chunk| {
                    for row in chunk.chunks_exact_mut(n) {
                        for j in kk..kend {
                            let jrow = &l11[(j - kk) * n..(j - kk) * n + n];
                            let mut acc = row[j];
                            for q in kk..j {
                                acc -= row[q] * jrow[q].conj_val();
                            }
                            row[j] = acc / jrow[j];
                        }
                    }
                });
                // 3. Pack L21ᴴ once: b_pack[q][j] = conj(L[kend+j][kk+q]).
                let mut b_pack = vec![T::zero(); nb * mt];
                for (j, row) in lower.chunks_exact(n).enumerate() {
                    for q in 0..nb {
                        b_pack[q * mt + j] = row[kk + q].conj_val();
                    }
                }
                // 4. Trailing Hermitian update A22 ← A22 − L21·L21ᴴ,
                //    parallel across row chunks. Each chunk updates the
                //    rectangle of columns kend..kend+rows.end covering its
                //    triangle part; the spill above the diagonal is junk
                //    that is never read and is zeroed at the end.
                let blocks = row_blocks_for(cfg, mt, mt * nb * mt / 2);
                let ranges = uniform_row_blocks(mt, blocks);
                for_each_row_chunk(lower, n, &ranges, |rows, chunk| {
                    let rlen = rows.end - rows.start;
                    let mut a_pack = vec![T::zero(); rlen * nb];
                    for (li, row) in chunk.chunks_exact(n).enumerate() {
                        a_pack[li * nb..(li + 1) * nb].copy_from_slice(&row[kk..kend]);
                    }
                    gemm_chunk(
                        chunk,
                        n,
                        kend,
                        &a_pack,
                        nb,
                        0,
                        &b_pack,
                        mt,
                        0,
                        rlen,
                        nb,
                        rows.end,
                        -T::one(),
                        &mut Vec::new(),
                    );
                });
            }
            kk = kend;
        }
        // Zero the strict upper triangle: the rectangle updates above
        // spill garbage there.
        for i in 0..n {
            for e in &mut data[i * n + i + 1..(i + 1) * n] {
                *e = T::zero();
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Unblocked scalar Cholesky kept as the differential oracle for the
    /// blocked kernel (`crates/numeric/tests`); prefer
    /// [`Matrix::cholesky`] everywhere else.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::cholesky`].
    pub fn cholesky_reference(&self) -> Result<CholeskyFactor<T>> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.nrows(),
                cols: self.ncols(),
            });
        }
        let n = self.nrows();
        let mut l: Matrix<T> = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)].conj_val();
                }
                if i == j {
                    let d = sum.real_part();
                    if !(d > 0.0) {
                        return Err(NumericError::NotPositiveDefinite {
                            pivot: i,
                            value: d,
                        });
                    }
                    l[(i, j)] = T::from_f64(d.sqrt());
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Returns `true` when the matrix (lower triangle) is Hermitian
    /// positive definite, judged by Cholesky success.
    pub fn is_positive_definite(&self) -> bool {
        self.is_square() && self.cholesky().is_ok()
    }
}

impl<T: Scalar> CholeskyFactor<T> {
    /// System dimension.
    pub fn n(&self) -> usize {
        self.l.nrows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix<T> {
        &self.l
    }

    /// Solves `A·x = b` by forward/backward substitution (`L`, then `Lᴴ`).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.n();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in (i + 1)..n {
                acc -= self.l[(k, i)].conj_val() * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Log-determinant of `A` (numerically safer than the determinant for
    /// the large SPD matrices of the PEEC flow).
    pub fn log_det(&self) -> f64 {
        (0..self.n())
            .map(|i| self.l[(i, i)].real_part().ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn factors_spd_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let f = a.cholesky().unwrap();
        let l = f.l();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-14);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            a.cholesky(),
            Err(NumericError::NotPositiveDefinite { .. })
        ));
        assert!(!a.is_positive_definite());
    }

    #[test]
    fn rejects_nan() {
        let a = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(!a.is_positive_definite());
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = [1.0, -2.0, 3.0];
        let x_chol = a.cholesky().unwrap().solve(&b).unwrap();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        for (u, v) in x_chol.iter().zip(&x_lu) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
        let f = a.cholesky().unwrap();
        assert!((f.log_det() - (16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn diagonally_dominant_is_pd() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { 5.0 } else { 1.0 / (1.0 + (i as f64 - j as f64).abs()) });
        // Symmetrize exactly.
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        assert!(s.is_positive_definite());
    }

    #[test]
    fn hermitian_complex_factorization() {
        // A = [[2, 1-i], [1+i, 3]] is Hermitian positive definite.
        let a = Matrix::from_rows(&[
            &[Complex64::new(2.0, 0.0), Complex64::new(1.0, -1.0)],
            &[Complex64::new(1.0, 1.0), Complex64::new(3.0, 0.0)],
        ]);
        let f = a.cholesky().unwrap();
        let l = f.l();
        // Reconstruct L·Lᴴ and compare.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = Complex64::ZERO;
                for k in 0..2 {
                    acc += l[(i, k)] * l[(j, k)].conj();
                }
                assert!((acc - a[(i, j)]).abs() < 1e-14, "({i},{j})");
            }
        }
        // Solve against a known RHS: residual check.
        let b = [Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let x = f.solve(&b).unwrap();
        for i in 0..2 {
            let mut acc = Complex64::ZERO;
            for j in 0..2 {
                acc += a[(i, j)] * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-13);
        }
    }
}
