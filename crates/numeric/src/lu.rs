//! Dense LU factorization with partial pivoting, over any [`Scalar`].
//!
//! This is the workhorse behind DC operating points, AC sweeps of small
//! macromodels, K-matrix computation (inversion of the partial-inductance
//! matrix), and PRIMA's `(G + s₀C)⁻¹` applications when the system is
//! small enough to stay dense.
//!
//! The default entry points run a **panel-blocked right-looking**
//! factorization: a narrow column panel is factorized unblocked (with
//! partial pivoting over the full remaining rows), the corresponding
//! U block row is produced by a triangular solve, and the trailing
//! submatrix update — where all the O(n³) work lives — is a single
//! [`crate::gemm`] call, cache-tiled and parallelized across row blocks.
//! The original unblocked kernel survives as [`Matrix::lu_reference`],
//! the differential-test oracle.

use crate::gemm::{gemm_chunk, row_blocks_for};
use crate::partition::{for_each_row_chunk, uniform_row_blocks};
use crate::{Matrix, NumericError, ParallelConfig, Result, Scalar};

/// Panel width of the blocked LU/substitution kernels: wide enough that
/// the trailing GEMM dominates, narrow enough that the unblocked panel
/// factorization stays cache-resident.
pub const LU_BLOCK: usize = 32;

/// Packed LU factors `P·A = L·U` of a square matrix.
///
/// `L` has an implicit unit diagonal; both factors share the storage of
/// the original matrix.
#[derive(Clone, Debug)]
pub struct LuFactors<T: Scalar = f64> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    swaps: usize,
}

impl<T: Scalar> Matrix<T> {
    /// Factorizes `self` as `P·A = L·U` with partial (row) pivoting,
    /// using the panel-blocked kernel (threaded for large matrices).
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] if the matrix is not square.
    /// * [`NumericError::Singular`] if a pivot column is exactly zero.
    pub fn lu(&self) -> Result<LuFactors<T>> {
        let n = self.nrows();
        if n * n * n < crate::gemm::PARALLEL_FLOP_THRESHOLD {
            self.lu_with(&ParallelConfig {
                threads: 1,
                cache_capacity: 0,
            })
        } else {
            self.lu_with(&ParallelConfig::default())
        }
    }

    /// [`Matrix::lu`] with an explicit parallelism configuration.
    /// Results are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::lu`].
    pub fn lu_with(&self, cfg: &ParallelConfig) -> Result<LuFactors<T>> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.nrows(),
                cols: self.ncols(),
            });
        }
        let n = self.nrows();
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0usize;
        let data = lu.as_mut_slice();
        let mut kk = 0;
        while kk < n {
            let nb = LU_BLOCK.min(n - kk);
            let kend = kk + nb;
            // 1. Panel factorization: columns kk..kend, pivoting over all
            //    remaining rows; rank-1 updates stay inside the panel.
            for j in kk..kend {
                let mut p = j;
                let mut best = data[j * n + j].abs_val();
                for i in (j + 1)..n {
                    let v = data[i * n + j].abs_val();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                if best == 0.0 || !best.is_finite() {
                    return Err(NumericError::Singular { pivot: j });
                }
                if p != j {
                    perm.swap(j, p);
                    swaps += 1;
                    let (lo, hi) = data.split_at_mut(p * n);
                    lo[j * n..j * n + n].swap_with_slice(&mut hi[..n]);
                }
                let pivot = data[j * n + j];
                for i in (j + 1)..n {
                    let m = data[i * n + j] / pivot;
                    data[i * n + j] = m;
                    if m.is_zero() {
                        continue;
                    }
                    let (lo, hi) = data.split_at_mut(i * n);
                    let jrow = &lo[j * n + j + 1..j * n + kend];
                    let irow = &mut hi[j + 1..kend];
                    for (x, &u) in irow.iter_mut().zip(jrow) {
                        *x -= m * u;
                    }
                }
            }
            if kend < n {
                // 2. U block row: L11 · U12 = A12 (unit-lower forward
                //    substitution across columns kend..n).
                for r in (kk + 1)..kend {
                    for q in kk..r {
                        let m = data[r * n + q];
                        if m.is_zero() {
                            continue;
                        }
                        let (lo, hi) = data.split_at_mut(r * n);
                        let qrow = &lo[q * n + kend..q * n + n];
                        let rrow = &mut hi[kend..n];
                        for (x, &u) in rrow.iter_mut().zip(qrow) {
                            *x -= m * u;
                        }
                    }
                }
                // 3. Trailing update A22 ← A22 − L21·U12: the GEMM where
                //    the cubic work lives, parallel across row blocks.
                let mt = n - kend;
                let (upper, lower) = data.split_at_mut(kend * n);
                let u_panel = &upper[kk * n..];
                let blocks = row_blocks_for(cfg, mt, mt * nb * mt);
                let ranges = uniform_row_blocks(mt, blocks);
                for_each_row_chunk(lower, n, &ranges, |rows, chunk| {
                    let rlen = rows.end - rows.start;
                    // Pack this chunk's slice of L21 so the multiplier
                    // tile and the C tile (same matrix rows) don't alias.
                    let mut l_pack = vec![T::zero(); rlen * nb];
                    for (li, row) in chunk.chunks_exact(n).enumerate() {
                        l_pack[li * nb..(li + 1) * nb].copy_from_slice(&row[kk..kend]);
                    }
                    gemm_chunk(
                        chunk,
                        n,
                        kend,
                        &l_pack,
                        nb,
                        0,
                        u_panel,
                        n,
                        kend,
                        rlen,
                        nb,
                        mt,
                        -T::one(),
                        &mut Vec::new(),
                    );
                });
            }
            kk = kend;
        }
        Ok(LuFactors { lu, perm, swaps })
    }

    /// Unblocked scalar LU kept as the differential oracle for the
    /// blocked kernel (`crates/numeric/tests`); prefer [`Matrix::lu`]
    /// everywhere else.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::lu`].
    pub fn lu_reference(&self) -> Result<LuFactors<T>> {
        if !self.is_square() {
            return Err(NumericError::NotSquare {
                rows: self.nrows(),
                cols: self.ncols(),
            });
        }
        let n = self.nrows();
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0;
        for k in 0..n {
            // Pivot: row with the largest magnitude in column k.
            let mut p = k;
            let mut best = lu[(k, k)].abs_val();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs_val();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(NumericError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(k, p);
                swaps += 1;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m.is_zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let u = lu[(k, j)];
                    lu[(i, j)] -= m * u;
                }
            }
        }
        Ok(LuFactors { lu, perm, swaps })
    }

    /// Computes the inverse via LU with the blocked multi-RHS solve.
    ///
    /// Used to form the K-matrix `K = L⁻¹` of the Devgan method, where the
    /// full partial-inductance matrix must be inverted once.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Matrix::lu`].
    pub fn inverse(&self) -> Result<Matrix<T>> {
        let f = self.lu()?;
        f.solve_matrix(&Matrix::identity(self.nrows()))
    }
}

impl<T: Scalar> LuFactors<T> {
    /// System dimension.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// Packed factor storage: `L` strictly below the (implicit unit)
    /// diagonal, `U` on and above. Exposed read-only so differential
    /// tests can compare the blocked and reference kernels factor by
    /// factor.
    pub fn packed(&self) -> &Matrix<T> {
        &self.lu
    }

    /// Row permutation: entry `i` is the original row index that ended
    /// up in factored row `i`.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A·x = b` using the stored factors.
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
        // Apply permutation.
        let mut x: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `Aᵀ·x = b` using the stored factors of `A`.
    ///
    /// From `P·A = L·U` follows `Aᵀ = Uᵀ·Lᵀ·P`, so the transposed solve
    /// is a forward substitution with `Uᵀ`, a backward substitution with
    /// `Lᵀ`, and an inverse row permutation. Needed by the Hager 1-norm
    /// condition estimator, which alternates solves with `A` and `Aᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_transposed(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.n();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut x = b.to_vec();
        // Forward substitution with Uᵀ (lower triangular, general diag).
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        // Backward substitution with Lᵀ (upper triangular, unit diag).
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * x[j];
            }
            x[i] = acc;
        }
        // Undo the row permutation: x_orig[perm[i]] = x[i].
        let mut out = vec![T::zero(); n];
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = x[i];
        }
        Ok(out)
    }

    /// Solves for multiple right-hand sides given as matrix columns,
    /// using one blocked forward/backward substitution over the whole
    /// RHS panel (no per-column temporaries — this is PRIMA's Arnoldi
    /// hot path).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.nrows() != n`.
    pub fn solve_matrix(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let n = self.n();
        if n * n * b.ncols() < crate::gemm::PARALLEL_FLOP_THRESHOLD {
            self.solve_matrix_with(
                b,
                &ParallelConfig {
                    threads: 1,
                    cache_capacity: 0,
                },
            )
        } else {
            self.solve_matrix_with(b, &ParallelConfig::default())
        }
    }

    /// [`LuFactors::solve_matrix`] with an explicit parallelism
    /// configuration. Results are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.nrows() != n`.
    pub fn solve_matrix_with(&self, b: &Matrix<T>, cfg: &ParallelConfig) -> Result<Matrix<T>> {
        let n = self.n();
        if b.nrows() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: b.nrows(),
            });
        }
        let nrhs = b.ncols();
        let mut x = Matrix::zeros(n, nrhs);
        if nrhs == 0 {
            return Ok(x);
        }
        // Row permutation applied to the whole panel at once.
        for (i, &p) in self.perm.iter().enumerate() {
            x.row_mut(i).copy_from_slice(b.row(p));
        }
        let lu = self.lu.as_slice();
        let xs = x.as_mut_slice();
        // Forward substitution with unit-diagonal L, by panel blocks:
        // solve the diagonal block, then push its effect below with one
        // GEMM per block (parallel across row chunks).
        let mut kk = 0;
        while kk < n {
            let nb = LU_BLOCK.min(n - kk);
            let kend = kk + nb;
            for i in (kk + 1)..kend {
                for j in kk..i {
                    let m = lu[i * n + j];
                    if m.is_zero() {
                        continue;
                    }
                    let (lo, hi) = xs.split_at_mut(i * nrhs);
                    let jrow = &lo[j * nrhs..(j + 1) * nrhs];
                    let irow = &mut hi[..nrhs];
                    for (e, &v) in irow.iter_mut().zip(jrow) {
                        *e -= m * v;
                    }
                }
            }
            if kend < n {
                let mt = n - kend;
                let (upper, lower) = xs.split_at_mut(kend * nrhs);
                let x_block = &upper[kk * nrhs..];
                let blocks = row_blocks_for(cfg, mt, mt * nb * nrhs);
                let ranges = uniform_row_blocks(mt, blocks);
                for_each_row_chunk(lower, nrhs, &ranges, |rows, chunk| {
                    gemm_chunk(
                        chunk,
                        nrhs,
                        0,
                        &lu[(kend + rows.start) * n..],
                        n,
                        kk,
                        x_block,
                        nrhs,
                        0,
                        rows.end - rows.start,
                        nb,
                        nrhs,
                        -T::one(),
                        &mut Vec::new(),
                    );
                });
            }
            kk = kend;
        }
        // Backward substitution with U, blocks in reverse order.
        let nblocks = n.div_ceil(LU_BLOCK);
        for blk in (0..nblocks).rev() {
            let kk = blk * LU_BLOCK;
            let kend = (kk + LU_BLOCK).min(n);
            for i in (kk..kend).rev() {
                for j in (i + 1)..kend {
                    let u = lu[i * n + j];
                    if u.is_zero() {
                        continue;
                    }
                    let (lo, hi) = xs.split_at_mut(j * nrhs);
                    let irow = &mut lo[i * nrhs..(i + 1) * nrhs];
                    let jrow = &hi[..nrhs];
                    for (e, &v) in irow.iter_mut().zip(jrow) {
                        *e -= u * v;
                    }
                }
                let d = lu[i * n + i];
                for e in &mut xs[i * nrhs..(i + 1) * nrhs] {
                    *e /= d;
                }
            }
            if kk > 0 {
                // Push the solved block into the rows above.
                let nb = kend - kk;
                let (upper, lower) = xs.split_at_mut(kk * nrhs);
                let x_block = &lower[..nb * nrhs];
                let blocks = row_blocks_for(cfg, kk, kk * nb * nrhs);
                let ranges = uniform_row_blocks(kk, blocks);
                for_each_row_chunk(upper, nrhs, &ranges, |rows, chunk| {
                    gemm_chunk(
                        chunk,
                        nrhs,
                        0,
                        &lu[rows.start * n..],
                        n,
                        kk,
                        x_block,
                        nrhs,
                        0,
                        rows.end - rows.start,
                        nb,
                        nrhs,
                        -T::one(),
                        &mut Vec::new(),
                    );
                });
            }
        }
        Ok(x)
    }

    /// Column-by-column multi-RHS solve kept as the differential oracle
    /// for the blocked substitution; prefer [`LuFactors::solve_matrix`]
    /// everywhere else.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.nrows() != n`.
    pub fn solve_matrix_reference(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        if b.nrows() != self.n() {
            return Err(NumericError::DimensionMismatch {
                expected: self.n(),
                found: b.nrows(),
            });
        }
        let mut out = Matrix::zeros(b.nrows(), b.ncols());
        for j in 0..b.ncols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            out.set_col(j, &x);
        }
        Ok(out)
    }

    /// Determinant of the original matrix (product of U's diagonal with
    /// the pivot sign).
    pub fn det(&self) -> T {
        let mut d = if self.swaps % 2 == 0 {
            T::one()
        } else {
            -T::one()
        };
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5]  => x = [0.8, 1.4]
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.lu().unwrap().solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 requires a row swap; without pivoting this would fail.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.lu().unwrap().solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(NumericError::Singular { .. })));
        assert!(matches!(
            a.lu_reference(),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_is_reported() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(a.lu(), Err(NumericError::NotSquare { .. })));
        assert!(matches!(
            a.lu_reference(),
            Err(NumericError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_round_trip() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 5.0, 1.0], &[0.5, 1.0, 3.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let id = Matrix::identity(3);
        assert!((&prod - &id).max_abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_swaps() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let d = a.lu().unwrap().det();
        assert!((d + 1.0).abs() < 1e-14);
    }

    #[test]
    fn complex_solve() {
        // (1+i) x = 2i  =>  x = 1 + i
        let a = Matrix::from_rows(&[&[Complex64::new(1.0, 1.0)]]);
        let x = a.lu().unwrap().solve(&[Complex64::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex64::new(1.0, 1.0)).abs() < 1e-14);
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let f = a.lu().unwrap();
        let x = f.solve_matrix(&b).unwrap();
        let recon = a.matmul(&x).unwrap();
        assert!((&recon - &b).max_abs() < 1e-13);
    }

    #[test]
    fn random_round_trip_residual_small() {
        // Deterministic pseudo-random fill (no RNG dependency needed here).
        let n = 24;
        let mut seed = 123u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        let resid: f64 = r.iter().zip(&b).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        assert!(resid < 1e-10, "residual {resid}");
    }
}
