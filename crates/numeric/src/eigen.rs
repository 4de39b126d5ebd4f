//! Dense symmetric eigenvalues.
//!
//! Section 4 of the paper hinges on the *definiteness* of sparsified
//! partial-inductance matrices: simple truncation "can become
//! non-positive definite, and the sparsified system becomes active and
//! can generate energy". The sparsification crate answers that question
//! from the eigenvalue spectrum.
//!
//! [`symmetric_eigenvalues`] is LAPACK's values-only path (`dsytrd` then
//! `dsterf`; Golub & Van Loan, *Matrix Computations*, §8.3): Householder
//! reduction to tridiagonal form, then implicit QL with Wilkinson shifts
//! on the tridiagonal. It costs ≈ 4/3·n³ flops once.
//! [`jacobi_eigenvectors`] — cyclic Jacobi, several sweeps of
//! ≈ 1.5·n³ flops each — is the reference oracle the differential tests
//! compare against; no production path calls it.

use crate::vecops::{axpy, dot, norm_inf, scale};
use crate::{Matrix, NumericError, Result};

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// QL iterations allowed per eigenvalue before [`symmetric_eigenvalues`]
/// gives up. With Wilkinson shifts an eigenvalue typically deflates in
/// two or three iterations; EISPACK's `tql1` uses the same cap.
const QL_MAX_ITERATIONS_PER_EIGENVALUE: usize = 30;

/// Eigen-decomposition of a symmetric matrix: `A = V·diag(λ)·Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Matrix whose columns are the corresponding eigenvectors.
    pub vectors: Matrix<f64>,
}

/// Convergence threshold for the Jacobi sweep, relative to the largest
/// matrix entry — a few ULPs above f64 roundoff for accumulated sums.
const OFF_DIAGONAL_REL_TOL: f64 = 1e-14;
/// Entries already this far below the sweep tolerance are not worth a
/// rotation; skipping them saves work without affecting convergence.
const ROTATION_SKIP_FRACTION: f64 = 1e-2;

/// Computes all eigenvalues of a symmetric matrix, ascending.
///
/// Only the lower triangle is read. Householder reflections reduce it
/// to tridiagonal form, and implicit QL with Wilkinson shifts finds the
/// eigenvalues of the tridiagonal. No eigenvectors are formed.
///
/// # Errors
///
/// * [`NumericError::NotSquare`] for non-square input.
/// * [`NumericError::NonFinite`] naming the first NaN or infinite entry
///   of the lower triangle, before any arithmetic.
/// * [`NumericError::NoConvergence`] if one eigenvalue does not deflate
///   within the per-eigenvalue QL iteration cap (not expected for finite
///   symmetric input).
pub fn symmetric_eigenvalues(a: &Matrix<f64>) -> Result<Vec<f64>> {
    if !a.is_square() {
        return Err(NumericError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut w = a.as_slice().to_vec();
    for row in 0..n {
        if let Some(col) = w[row * n..=row * n + row]
            .iter()
            .position(|x| !x.is_finite())
        {
            return Err(NumericError::NonFinite { row, col });
        }
    }
    let (mut d, mut e) = tridiagonalize(n, &mut w);
    tridiagonal_ql(&mut d, &mut e)?;
    d.sort_by(f64::total_cmp);
    Ok(d)
}

/// Reduces the symmetric `n × n` matrix whose lower triangle is stored
/// row-major in `w` to tridiagonal form `Qᵀ·A·Q`, returning its diagonal
/// `d` and sub-diagonal `e` (`e[k]` couples `d[k]` and `d[k + 1]`;
/// `e[n − 1]` is zero).
///
/// Step `k` applies the reflection `H = I − τ·u·uᵀ` that zeroes column
/// `k` below the sub-diagonal to the trailing block `A₂₂` as the
/// symmetric rank-2 update `A₂₂ − u·qᵀ − q·uᵀ`, with `p = τ·A₂₂·u` and
/// `q = p − ½τ(pᵀu)·u`. Only the lower triangle of `w` is read or
/// written, so each step costs ≈ 4m² flops for an `m × m` block.
fn tridiagonalize(n: usize, w: &mut [f64]) -> (Vec<f64>, Vec<f64>) {
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut u = vec![0.0; n];
    let mut p = vec![0.0; n];
    for k in 0..n {
        d[k] = w[k * n + k];
        let m = n - k - 1;
        if m == 0 {
            break;
        }
        let (u, p) = (&mut u[..m], &mut p[..m]);
        for (r, ur) in u.iter_mut().enumerate() {
            *ur = w[(k + 1 + r) * n + k];
        }
        let Some((beta, tau)) = householder(u) else {
            // Column k is already zero below the sub-diagonal.
            e[k] = w[(k + 1) * n + k];
            continue;
        };
        e[k] = beta;
        // p = τ·A₂₂·u, reading each row of the lower triangle once: the
        // strictly lower part of row r feeds p[r] and, by symmetry,
        // p[..r].
        for r in 0..m {
            let i = k + 1 + r;
            let row = &w[i * n + k + 1..i * n + i];
            p[r] = dot4(row, &u[..r]) + w[i * n + i] * u[r];
            axpy(u[r], row, &mut p[..r]);
        }
        scale(tau, p);
        // p ← q = p − ½τ(pᵀu)·u.
        let half = 0.5 * tau * dot(p, u);
        axpy(-half, u, p);
        for r in 0..m {
            let i = k + 1 + r;
            let (ur, qr) = (u[r], p[r]);
            let row = &mut w[i * n + k + 1..=i * n + i];
            for ((wij, &uj), &qj) in row.iter_mut().zip(&u[..=r]).zip(&p[..=r]) {
                *wij -= ur * qj + qr * uj;
            }
        }
    }
    (d, e)
}

/// Householder vector of `x`: overwrites `x` with `u` (`u[0] = 1`) and
/// returns `(β, τ)` such that `(I − τ·u·uᵀ)·x = β·e₁`. The sign of `β`
/// is opposite to `x[0]`'s, so forming `u` never cancels. Returns `None`
/// when `x[1..]` is already zero and no reflection is needed.
fn householder(x: &mut [f64]) -> Option<(f64, f64)> {
    let (x0, tail) = x.split_first_mut()?;
    let tail_max = norm_inf(tail);
    if tail_max == 0.0 {
        return None;
    }
    // Scale before squaring so tiny or huge entries neither underflow
    // nor overflow.
    let big = tail_max.max(x0.abs());
    let sum_sq = (*x0 / big).powi(2) + tail.iter().map(|t| (t / big).powi(2)).sum::<f64>();
    let norm = big * sum_sq.sqrt();
    let beta = if *x0 >= 0.0 { -norm } else { norm };
    let v0 = *x0 - beta;
    scale(1.0 / v0, tail);
    *x0 = 1.0;
    Some((beta, -v0 / beta))
}

/// Dot product with four independent partial sums, so the reduction in
/// the tridiagonalization's matvec can stay in vector registers (≈ 1.3×
/// faster reduction at n = 321 than the sequential sum of
/// [`crate::dot`], whose summation order other callers keep).
fn dot4(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let (xs, ys) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail = dot(xs.remainder(), ys.remainder());
    for (a, b) in xs.zip(ys) {
        for ((s, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
            *s += ai * bi;
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// sub-diagonal `e` (`e[n − 1]` is scratch), left unsorted in `d`.
///
/// Implicit QL with Wilkinson shifts: each iteration chases the bulge of
/// one shifted QL step up the unreduced block `l..=m` with Givens
/// rotations.
/// A sub-diagonal entry is negligible once it falls below one ulp of the
/// largest entry of the tridiagonal: zeroing it moves no eigenvalue by
/// more than that (Weyl), which is below the reduction's own rounding.
/// A test relative to the two diagonal neighbours alone would stall on
/// blocks that are pure rounding noise, as a rank-deficient matrix's
/// null space is after the reduction.
///
/// # Errors
///
/// [`NumericError::NoConvergence`] when an eigenvalue needs more than
/// [`QL_MAX_ITERATIONS_PER_EIGENVALUE`] iterations.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    let negligible = f64::EPSILON * d.iter().chain(&*e).fold(0.0f64, |m, x| m.max(x.abs()));
    for l in 0..n {
        let mut iterations = 0;
        loop {
            let m = (l..n - 1)
                .find(|&m| e[m].abs() <= negligible)
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            if iterations == QL_MAX_ITERATIONS_PER_EIGENVALUE {
                return Err(NumericError::NoConvergence { iterations });
            }
            iterations += 1;
            // Wilkinson shift: the eigenvalue of the leading 2×2 block
            // nearer d[l]. e[l] is not negligible, so it is non-zero.
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = g.hypot(1.0);
            let mut g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // The rotation underflowed: the block splits at i + 1.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                let g_next = d[i + 1] - p;
                let r = (d[i] - g_next) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g_next + p;
                g = c * r - b;
            }
            if !underflow {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    Ok(())
}

/// Computes the full symmetric eigen-decomposition by the cyclic Jacobi
/// method. Only the lower triangle is read.
///
/// This is the reference oracle for [`symmetric_eigenvalues`]: slower
/// (several sweeps of ≈ 1.5·n³ flops each) but simple, and accurate to
/// a few ulps of the largest entry. The differential tests compare the
/// two; no production path calls it.
///
/// # Errors
///
/// * [`NumericError::NotSquare`] for non-square input.
/// * [`NumericError::NoConvergence`] if the off-diagonal mass does not
///   vanish within the sweep budget (does not happen for well-scaled
///   symmetric input).
pub fn jacobi_eigenvectors(a: &Matrix<f64>) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(NumericError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    // Work on a symmetrized copy so callers may pass lower-triangle data.
    let mut m = Matrix::from_fn(n, n, |i, j| if i >= j { a[(i, j)] } else { a[(j, i)] });
    let mut v = Matrix::identity(n);
    if n <= 1 {
        return Ok(SymmetricEigen {
            values: (0..n).map(|i| m[(i, i)]).collect(),
            vectors: v,
        });
    }
    let scale = m.max_abs().max(f64::MIN_POSITIVE);
    let tol = OFF_DIAGONAL_REL_TOL * scale;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&x, &y| m[(x, x)].total_cmp(&m[(y, y)]));
            let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
            let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
            return Ok(SymmetricEigen { values, vectors });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * ROTATION_SKIP_FRACTION {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(NumericError::NoConvergence {
        iterations: MAX_SWEEPS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let ev = symmetric_eigenvalues(&a).unwrap();
        assert_eq!(ev, vec![1.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let ev = symmetric_eigenvalues(&a).unwrap();
        assert!((ev[0] - 1.0).abs() < 1e-12);
        assert!((ev[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_3x3_needs_a_reflection() {
        // [[2,1,1],[1,2,1],[1,1,2]] = I + 𝟙𝟙ᵀ: eigenvalues 1, 1, 4.
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 1.0 });
        let ev = symmetric_eigenvalues(&a).unwrap();
        for (got, want) in ev.iter().zip([1.0, 1.0, 4.0]) {
            assert!((got - want).abs() < 1e-14, "{ev:?}");
        }
    }

    #[test]
    fn indefinite_matrix_has_negative_eigenvalue() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let ev = symmetric_eigenvalues(&a).unwrap();
        assert!(ev[0] < 0.0);
        assert!(!a.is_positive_definite());
    }

    #[test]
    fn only_the_lower_triangle_is_read() {
        let full = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]);
        let mut lower = full.clone();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            lower[(i, j)] = f64::NAN;
        }
        assert_eq!(
            symmetric_eigenvalues(&lower).unwrap(),
            symmetric_eigenvalues(&full).unwrap()
        );
    }

    #[test]
    fn non_finite_entry_is_a_typed_error() {
        let mut a = Matrix::identity(3);
        a[(2, 1)] = f64::INFINITY;
        assert_eq!(
            symmetric_eigenvalues(&a),
            Err(NumericError::NonFinite { row: 2, col: 1 })
        );
        a[(2, 1)] = 0.0;
        a[(1, 1)] = f64::NAN;
        assert_eq!(
            symmetric_eigenvalues(&a),
            Err(NumericError::NonFinite { row: 1, col: 1 })
        );
    }

    #[test]
    fn non_square_is_rejected() {
        assert!(matches!(
            symmetric_eigenvalues(&Matrix::zeros(2, 3)),
            Err(NumericError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn tiny_and_huge_scales_survive_squaring() {
        for s in [1e-200, 1e200] {
            let a = Matrix::from_fn(3, 3, |i, j| s * if i == j { 2.0 } else { 1.0 });
            let ev = symmetric_eigenvalues(&a).unwrap();
            for (got, want) in ev.iter().zip([1.0, 1.0, 4.0]) {
                assert!((got / s - want).abs() < 1e-14, "scale {s}: {ev:?}");
            }
        }
    }

    #[test]
    fn decomposition_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]);
        let e = jacobi_eigenvectors(&a).unwrap();
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = e.values[i];
        }
        let recon = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!((&recon - &a).max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]);
        let e = jacobi_eigenvectors(&a).unwrap();
        let g = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!((&g - &Matrix::identity(2)).max_abs() < 1e-12);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 }
        });
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let ev = symmetric_eigenvalues(&s).unwrap();
        let trace: f64 = (0..n).map(|i| s[(i, i)]).sum();
        let sum: f64 = ev.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single() {
        let a = Matrix::<f64>::zeros(0, 0);
        assert!(symmetric_eigenvalues(&a).unwrap().is_empty());
        let b = Matrix::from_rows(&[&[7.0]]);
        assert_eq!(symmetric_eigenvalues(&b).unwrap(), vec![7.0]);
    }
}
