//! Dense symmetric eigenvalues.
//!
//! Section 4 of the paper hinges on the *definiteness* of sparsified
//! partial-inductance matrices: simple truncation "can become
//! non-positive definite, and the sparsified system becomes active and
//! can generate energy". The sparsification crate answers that question
//! from the two extreme eigenvalues.
//!
//! [`extreme_eigenvalues`] is LAPACK's path for a few eigenvalues
//! (`dsytrd` then `dstebz`; Golub & Van Loan, *Matrix Computations*,
//! §8.3 and §8.4.1): Householder reduction to tridiagonal form, ≈ 4/3·n³
//! flops once, then Sturm-sequence bisection (Kahan's method) for λ_min
//! and λ_max alone, O(n) per halving. No full spectrum is formed.
//! [`jacobi_eigenvectors`] — cyclic Jacobi, several sweeps of
//! ≈ 1.5·n³ flops each — is the full-spectrum reference oracle the
//! differential tests compare against; no production path calls it.

use crate::vecops::{axpy, dot, norm_inf, scale};
use crate::{Matrix, NumericError, Result};

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

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

/// Exponent of the largest lower-triangle entry the Householder
/// reduction takes as is. Its intermediates grow to ≈ n·max|A|, so a
/// matrix with a larger entry is first scaled by `2^−REDUCTION_MAX_EXP`
/// (exact, as LAPACK's `dsyev` scales into `[√safmin, √bignum]`).
const REDUCTION_MAX_EXP: i32 = 512;
/// Bisection stops once its bracket is at most this multiple of
/// `max(max|T|, |λ|)` wide (`2ε`, LAPACK `dstebz`'s `RELFAC·ULP`), which
/// is below the reduction's own rounding of `O(n·ε·‖A‖)`.
const BISECTION_REL_WIDTH: f64 = 2.0 * f64::EPSILON;
/// Widening of the Gershgorin interval, in units of `n·ε·‖T‖` and of
/// the pivot floor, so rounding in a Sturm count cannot place an
/// eigenvalue outside it (LAPACK `dstebz`'s `FUDGE`).
const GERSHGORIN_FUDGE: f64 = 2.1;

/// The smallest and largest eigenvalue of a symmetric matrix,
/// `(λ_min, λ_max)`.
///
/// Only the lower triangle is read. Householder reflections reduce it
/// to tridiagonal form `T`, which is rescaled by a power of two (exact)
/// so that its largest entry lies in `[½, 1)` and no square of a
/// sub-diagonal entry can overflow. Bisection with a Sturm count then
/// brackets each extreme inside the Gershgorin interval until the
/// bracket is within `2ε·max(max|T|, |λ|)` and returns its midpoint, so
/// it cannot fail to converge. A `T` whose sub-diagonal is all zero (a
/// diagonal matrix, or `n = 1`) gives its diagonal extremes exactly.
/// The empty matrix gives `(∞, −∞)`, the minimum and maximum of no
/// values, so `λ_min > 0` holds for it as it does vacuously.
///
/// # Errors
///
/// * [`NumericError::NotSquare`] for non-square input.
/// * [`NumericError::NonFinite`] naming the first NaN or infinite entry
///   of the lower triangle, before any arithmetic.
pub fn extreme_eigenvalues(a: &Matrix<f64>) -> Result<(f64, f64)> {
    if !a.is_square() {
        return Err(NumericError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut w = a.as_slice().to_vec();
    let mut a_max = 0.0f64;
    for row in 0..n {
        let lower = &w[row * n..=row * n + row];
        if let Some(col) = lower.iter().position(|x| !x.is_finite()) {
            return Err(NumericError::NonFinite { row, col });
        }
        a_max = a_max.max(norm_inf(lower));
    }
    let pre = if a_max >= mul_pow2(1.0, REDUCTION_MAX_EXP) {
        w.iter_mut()
            .for_each(|x| *x = mul_pow2(*x, -REDUCTION_MAX_EXP));
        REDUCTION_MAX_EXP
    } else {
        0
    };
    let (d, e) = tridiagonalize(n, &mut w);
    let e = &e[..n.saturating_sub(1)];
    let (lo, hi) = if e.iter().all(|&x| x == 0.0) {
        (
            d.iter().copied().fold(f64::INFINITY, f64::min),
            d.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    } else {
        let k = binary_exponent(norm_inf(&d).max(norm_inf(e)));
        let d: Vec<f64> = d.iter().map(|&x| mul_pow2(x, -k)).collect();
        let e: Vec<f64> = e.iter().map(|&x| mul_pow2(x, -k)).collect();
        let (lo, hi) = tridiagonal_extremes(&d, &e);
        (mul_pow2(lo, k), mul_pow2(hi, k))
    };
    Ok((mul_pow2(lo, pre), mul_pow2(hi, pre)))
}

/// `k` such that `x·2^−k` lies in `[½, 1)`, for finite positive `x`
/// (C's `frexp` exponent, subnormal `x` included).
fn binary_exponent(x: f64) -> i32 {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: x = m·2^−1074 with m < 2^52.
        64 - (bits & ((1 << 52) - 1)).leading_zeros() as i32 - 1074
    } else {
        biased - 1022
    }
}

/// `x·2^k`, exact unless the product is subnormal or overflows. Two
/// factors, because `2^k` alone need not be representable (`|k| ≤ 2044`).
fn mul_pow2(x: f64, k: i32) -> f64 {
    let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
    let half = k / 2;
    x * pow2(half) * pow2(k - half)
}

/// `(λ_min, λ_max)` of the symmetric tridiagonal `T` with diagonal `d`
/// and sub-diagonal `e` (`e[k]` couples `d[k]` and `d[k + 1]`), whose
/// largest entry lies in `[½, 1)`.
///
/// The two bisections share one loop: each pass runs both Sturm counts
/// over `T` as two independent recurrences, which costs little more
/// than one, since a count waits on its chain of divisions.
fn tridiagonal_extremes(d: &[f64], e: &[f64]) -> (f64, f64) {
    let n = d.len();
    // e2[i] = e[i − 1]² couples d[i − 1] and d[i]; e2[0] = 0.
    let e2: Vec<f64> = std::iter::once(0.0)
        .chain(e.iter().map(|x| x * x))
        .collect();
    let (mut gl, mut gu) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &di) in d.iter().enumerate() {
        let above = if i > 0 { e[i - 1].abs() } else { 0.0 };
        let r = above + e.get(i).map_or(0.0, |x| x.abs());
        gl = gl.min(di - r);
        gu = gu.max(di + r);
    }
    let t_norm = gl.abs().max(gu.abs());
    let slack = GERSHGORIN_FUDGE * (n as f64 * f64::EPSILON * t_norm + 2.0 * f64::MIN_POSITIVE);
    let t_max = norm_inf(d).max(norm_inf(e));
    let wide = |lo: f64, hi: f64| hi - lo > BISECTION_REL_WIDTH * t_max.max(lo.abs()).max(hi.abs());
    // (rank, lo, hi): fewer than `rank` eigenvalues lie below `lo`, and
    // at least `rank` below `hi`.
    let mut brackets = [(1, gl - slack, gu + slack), (n, gl - slack, gu + slack)];
    while brackets.iter().any(|&(_, lo, hi)| wide(lo, hi)) {
        let mid = brackets.map(|(_, lo, hi)| 0.5 * (lo + hi));
        let below = sturm_counts(d, &e2, mid);
        for ((bracket, x), count) in brackets.iter_mut().zip(mid).zip(below) {
            let (rank, lo, hi) = bracket;
            if count >= *rank {
                *hi = x;
            } else {
                *lo = x;
            }
        }
    }
    let [lambda_min, lambda_max] = brackets.map(|(_, lo, hi)| 0.5 * (lo + hi));
    (lambda_min, lambda_max)
}

/// Number of eigenvalues of `T` below each of `x`: the negative pivots
/// of the `LDLᵀ` factorization of `T − x·I` (`e2[i]` is the squared
/// coupling of `d[i − 1]` and `d[i]`, `e2[0] = 0`). A pivot smaller than
/// the safe minimum in magnitude is replaced by its negative, as
/// LAPACK's `dlaebz` does with `pivmin`, so no division is by zero
/// (`e2 < 1` keeps `e2/pivmin` finite) and an eigenvalue exactly at `x`
/// may count as below it.
fn sturm_counts(d: &[f64], e2: &[f64], x: [f64; 2]) -> [usize; 2] {
    let mut q = [1.0; 2];
    let mut count = [0; 2];
    for (&di, &e2i) in d.iter().zip(e2) {
        for j in 0..2 {
            q[j] = (di - x[j]) - e2i / q[j];
            if q[j].abs() < f64::MIN_POSITIVE {
                q[j] = -f64::MIN_POSITIVE;
            }
            count[j] += usize::from(q[j] < 0.0);
        }
    }
    count
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

/// Computes the full symmetric eigen-decomposition by the cyclic Jacobi
/// method. Only the lower triangle is read.
///
/// This is the full-spectrum reference oracle for
/// [`extreme_eigenvalues`]: slower (several sweeps of ≈ 1.5·n³ flops
/// each) but simple, and accurate to a few ulps of the largest entry.
/// The differential tests compare its first and last values with the
/// two extremes; no production path calls it.
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

    /// Asserts `got` is within `tol` of `want`, both `(λ_min, λ_max)`.
    fn assert_extremes(got: (f64, f64), want: (f64, f64), tol: f64) {
        assert!(
            (got.0 - want.0).abs() <= tol && (got.1 - want.1).abs() <= tol,
            "got {got:?}, want {want:?} (tolerance {tol:e})"
        );
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_exact() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(extreme_eigenvalues(&a).unwrap(), (1.0, 3.0));
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert_extremes(extreme_eigenvalues(&a).unwrap(), (1.0, 3.0), 1e-15);
    }

    #[test]
    fn known_3x3_needs_a_reflection() {
        // [[2,1,1],[1,2,1],[1,1,2]] = I + 𝟙𝟙ᵀ: eigenvalues 1, 1, 4.
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 1.0 });
        assert_extremes(extreme_eigenvalues(&a).unwrap(), (1.0, 4.0), 1e-14);
    }

    #[test]
    fn indefinite_matrix_has_negative_eigenvalue() {
        // [[1,2],[2,1]] has eigenvalues −1 and 3.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let (lo, hi) = extreme_eigenvalues(&a).unwrap();
        assert!(lo < 0.0);
        assert!(!a.is_positive_definite());
        assert_extremes((lo, hi), (-1.0, 3.0), 1e-15);
    }

    #[test]
    fn negative_definite_matrix_has_negative_extremes() {
        // −(I + 𝟙𝟙ᵀ) in 4×4: eigenvalues −5 and −1 (three times).
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { -2.0 } else { -1.0 });
        assert_extremes(extreme_eigenvalues(&a).unwrap(), (-5.0, -1.0), 1e-14);
    }

    #[test]
    fn only_the_lower_triangle_is_read() {
        let full = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 2.0]]);
        let mut lower = full.clone();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            lower[(i, j)] = f64::NAN;
        }
        assert_eq!(
            extreme_eigenvalues(&lower).unwrap(),
            extreme_eigenvalues(&full).unwrap()
        );
    }

    #[test]
    fn non_finite_entry_is_a_typed_error() {
        let mut a = Matrix::identity(3);
        a[(2, 1)] = f64::INFINITY;
        assert_eq!(
            extreme_eigenvalues(&a),
            Err(NumericError::NonFinite { row: 2, col: 1 })
        );
        a[(2, 1)] = 0.0;
        a[(1, 1)] = f64::NAN;
        assert_eq!(
            extreme_eigenvalues(&a),
            Err(NumericError::NonFinite { row: 1, col: 1 })
        );
    }

    #[test]
    fn non_square_is_rejected() {
        assert!(matches!(
            extreme_eigenvalues(&Matrix::zeros(2, 3)),
            Err(NumericError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn tiny_and_huge_scales_survive_squaring() {
        for s in [1e-200, 1e200] {
            let a = Matrix::from_fn(3, 3, |i, j| s * if i == j { 2.0 } else { 1.0 });
            let (lo, hi) = extreme_eigenvalues(&a).unwrap();
            assert_extremes((lo / s, hi / s), (1.0, 4.0), 1e-14);
        }
    }

    #[test]
    fn entries_near_the_largest_float_do_not_overflow_the_reduction() {
        // (I + 𝟙𝟙ᵀ)·s of order n: eigenvalues s and (n + 1)·s, within
        // 10 % of f64::MAX. Unscaled, the reduction overflows on both.
        for (n, s) in [(3, 4e307), (10, 1.6e307)] {
            let a = Matrix::from_fn(n, n, |i, j| s * if i == j { 2.0 } else { 1.0 });
            let (lo, hi) = extreme_eigenvalues(&a).unwrap();
            assert_extremes((lo / s, hi / s), (1.0, n as f64 + 1.0), 1e-13);
        }
    }

    #[test]
    fn empty_and_single() {
        let a = Matrix::<f64>::zeros(0, 0);
        assert_eq!(
            extreme_eigenvalues(&a).unwrap(),
            (f64::INFINITY, f64::NEG_INFINITY)
        );
        let b = Matrix::from_rows(&[&[7.0]]);
        assert_eq!(extreme_eigenvalues(&b).unwrap(), (7.0, 7.0));
        let c = Matrix::from_rows(&[&[-2.5e-300]]);
        assert_eq!(extreme_eigenvalues(&c).unwrap(), (-2.5e-300, -2.5e-300));
    }

    #[test]
    fn sturm_count_counts_eigenvalues_below_x() {
        // T = tridiag(−1, 2, −1) of order 4: λ_k = 2 − 2·cos(kπ/5).
        let d = [2.0; 4];
        let e2 = [0.0, 1.0, 1.0, 1.0];
        let ev: Vec<f64> = (1..=4)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 5.0).cos())
            .collect();
        let below = |x: f64| ev.iter().filter(|&&l| l < x).count();
        for x in [[-1.0, 5.0], [0.2, 3.7], [1.0, 3.0], [2.0, 2.0]] {
            assert_eq!(sturm_counts(&d, &e2, x), x.map(below), "x = {x:?}");
        }
        // x = 2 makes the first pivot exactly zero, and with a zero
        // coupling the next would be 0/0: the floor turns each into
        // −pivmin, so the eigenvalue 2 of [2] ⊕ [[2,1],[1,5]] counts as
        // below x = 2, as does 3.5 − √3.25.
        assert_eq!(sturm_counts(&[2.0, 2.0], &[0.0, 1.0], [2.0, 0.0]), [1, 0]);
        assert_eq!(
            sturm_counts(&[2.0, 2.0, 5.0], &[0.0, 0.0, 1.0], [2.0, 6.0]),
            [2, 3]
        );
    }

    #[test]
    fn binary_exponent_and_mul_pow2_are_frexp_and_ldexp() {
        for x in [
            1.0,
            0.5,
            0.75,
            3.0,
            1e-200,
            1e200,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            3e-310,
        ] {
            let k = binary_exponent(x);
            let m = mul_pow2(x, -k);
            assert!((0.5..1.0).contains(&m), "x = {x:e}: k = {k}, m = {m}");
            assert_eq!(mul_pow2(m, k), x, "x = {x:e}");
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
    fn extremes_bracket_the_diagonal() {
        // Rayleigh: λ_min ≤ a_ii ≤ λ_max for every i, and λ_min ≤
        // trace/n ≤ λ_max.
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 }
        });
        let (lo, hi) = extreme_eigenvalues(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        assert!(lo <= trace / n as f64 && trace / n as f64 <= hi);
        for i in 0..n {
            assert!(lo <= a[(i, i)] && a[(i, i)] <= hi, "{lo} {hi}");
        }
    }
}
