//! Iterative refinement to a measured componentwise backward error.
//!
//! A factorization with static pivoting (the sparse rung) can shed
//! digits on stiff MNA systems, so its solves are refined against the
//! assembled matrix. How far is decided by measurement, with LAPACK
//! xGERFS's rule (Arioli, Demmel & Duff 1989). After each solve,
//!
//! ```text
//! berr = maxᵢ |b − A·x|ᵢ / (|A|·|x| + |b|)ᵢ
//! ```
//!
//! is the componentwise (Oettli–Prager) backward error: the smallest
//! relative perturbation of the entries of `A` and `b` for which `x` is
//! the exact solution. One fused pass over the CSR matrix gives the
//! residual and the denominators together. Refinement stops when
//! `berr ≤` [`REFINE_TOL`], when a correction fails to halve `berr`, or
//! after [`REFINE_MAX_ROUNDS`] corrections. The caller judges the
//! outcome with [`Refined::met`].
//!
//! Complex magnitudes are `cabs1 = |re| + |im|` ([`Scalar::abs1`]), as in
//! xGERFS. A row whose denominator is exactly zero has an exactly zero
//! residual (every `aᵢⱼ·xⱼ` and `bᵢ` vanish), so it contributes 0;
//! xGERFS's `safe1` guard would score it 1. The guard stays for tiny
//! nonzero denominators, where underflow could otherwise inflate the
//! ratio. A row whose residual or denominator is not finite (a NaN or
//! infinite `b`, `A` or `x`) scores NaN, and a NaN `berr` is kept over
//! every later row, so such a solve is a miss, never a met tolerance.

use crate::scalar::Scalar;
use crate::sparse::CsrMatrix;
use crate::{NumericError, Result};

/// Componentwise backward error at which refinement stops: the answer
/// is exact for a matrix and right-hand side within this relative
/// distance of the given ones, entry by entry.
pub const REFINE_TOL: f64 = 1e-12;

/// Most correction rounds one solve may take (xGERFS's `ITMAX`).
pub const REFINE_MAX_ROUNDS: usize = 5;

/// A refined solution and the measurement it stopped on.
#[derive(Clone, Debug, PartialEq)]
pub struct Refined<T> {
    /// The solution after the last correction.
    pub x: Vec<T>,
    /// Correction rounds taken (0 when the first solve already met
    /// [`REFINE_TOL`]).
    pub rounds: usize,
    /// Componentwise backward error of `x`.
    pub berr: f64,
}

impl<T> Refined<T> {
    /// Whether `x` meets [`REFINE_TOL`] (a NaN backward error does not).
    pub fn met(&self) -> bool {
        self.berr <= REFINE_TOL
    }

    /// `x` when it meets [`REFINE_TOL`].
    ///
    /// # Errors
    ///
    /// [`NumericError::BackwardErrorAboveTolerance`] naming the final
    /// backward error and the tolerance.
    pub fn into_met(self) -> Result<Vec<T>> {
        if self.met() {
            Ok(self.x)
        } else {
            Err(NumericError::BackwardErrorAboveTolerance {
                berr: self.berr,
                tol: REFINE_TOL,
            })
        }
    }
}

/// Solves `a·x = b` with `solve` (any approximate inverse of `a`, such
/// as a factorization) and refines the answer by the xGERFS rule of the
/// module docs. The answer is returned whatever its backward error.
///
/// # Errors
///
/// [`NumericError::NotSquare`] / [`NumericError::DimensionMismatch`] on
/// mismatched operands, and any error of `solve`.
pub fn refine<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
    mut solve: impl FnMut(&[T]) -> Result<Vec<T>>,
) -> Result<Refined<T>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(NumericError::NotSquare {
            rows: n,
            cols: a.ncols(),
        });
    }
    if b.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    let mut x = solve(b)?;
    if x.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: n,
            found: x.len(),
        });
    }
    let mut r = vec![T::zero(); n];
    let mut x_abs = vec![0.0; n];
    let mut last = f64::INFINITY;
    let mut rounds = 0;
    loop {
        let berr = residual_and_berr(a, b, &x, &mut x_abs, &mut r);
        // A NaN `berr` fails `2·berr ≤ last` and stops here as a miss.
        if berr <= REFINE_TOL || !(2.0 * berr <= last) || rounds == REFINE_MAX_ROUNDS {
            return Ok(Refined { x, rounds, berr });
        }
        let dx = solve(&r)?;
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += *di;
        }
        last = berr;
        rounds += 1;
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// Componentwise (Oettli–Prager) backward error of `x` as a solution
    /// of `self·x = b`, measured as [`refine`] measures it.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] when `b` or `x` does not fit
    /// the matrix.
    pub fn backward_error(&self, b: &[T], x: &[T]) -> Result<f64> {
        for (len, want) in [(b.len(), self.nrows()), (x.len(), self.ncols())] {
            if len != want {
                return Err(NumericError::DimensionMismatch {
                    expected: want,
                    found: len,
                });
            }
        }
        let mut r = vec![T::zero(); self.nrows()];
        let mut x_abs = vec![0.0; self.ncols()];
        Ok(residual_and_berr(self, b, x, &mut x_abs, &mut r))
    }
}

/// One fused pass over `a`: writes `r = b − a·x` and returns
/// `maxᵢ cabs1(rᵢ) / (|a|·|x| + |b|)ᵢ`. `x_abs` is a work buffer for the
/// entrywise `cabs1(x)`. Operand lengths are the caller's to check.
fn residual_and_berr<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
    x: &[T],
    x_abs: &mut [f64],
    r: &mut [T],
) -> f64 {
    // xGERFS's guard against underflow in tiny denominators, with its
    // sparse count of terms per row bounded by `n + 1`.
    let safe1 = (a.ncols() + 1) as f64 * f64::MIN_POSITIVE;
    let safe2 = safe1 / f64::EPSILON;
    for (s, &v) in x_abs.iter_mut().zip(x) {
        *s = v.abs1();
    }
    let (indptr, indices, data) = (a.indptr(), a.indices(), a.data());
    let mut berr = 0.0f64;
    for (i, (ri, &bi)) in r.iter_mut().zip(b).enumerate() {
        let (lo, hi) = (indptr[i], indptr[i + 1]);
        let mut acc = bi;
        let mut den = bi.abs1();
        for (&c, &v) in indices[lo..hi].iter().zip(&data[lo..hi]) {
            acc -= v * x[c];
            den += v.abs1() * x_abs[c];
        }
        *ri = acc;
        let res = acc.abs1();
        let ratio = if !(res.is_finite() && den.is_finite()) {
            f64::NAN
        } else if den > safe2 {
            res / den
        } else if den > 0.0 {
            (res + safe1) / (den + safe1)
        } else {
            // An exactly zero denominator means an exactly zero
            // residual: the row contributes nothing.
            0.0
        };
        // `max` would drop a NaN; keep the first so the solve misses.
        if !(ratio <= berr || berr.is_nan()) {
            berr = ratio;
        }
    }
    berr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::{Complex64, SparseLu};

    fn grid_laplacian(w: usize, h: usize) -> Triplets {
        let n = w * h;
        let mut t = Triplets::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                t.push(i, i, 4.01);
                if x + 1 < w {
                    t.push(i, i + 1, -1.0);
                    t.push(i + 1, i, -1.0);
                }
                if y + 1 < h {
                    t.push(i, i + w, -1.0);
                    t.push(i + w, i, -1.0);
                }
            }
        }
        t
    }

    /// `diag(1, 2, …, n)` and a right-hand side of twice its diagonal.
    fn diagonal_system(n: usize) -> (CsrMatrix<f64>, Vec<f64>) {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0 + i as f64);
        }
        let b = (0..n).map(|i| 2.0 * (1.0 + i as f64)).collect();
        (t.to_csr(), b)
    }

    /// A scaled exact inverse of the diagonal `a`, `x = c·A⁻¹·r`: each
    /// correction multiplies the error by exactly `1 − c`.
    fn damped_inverse(a: &CsrMatrix<f64>, c: f64) -> impl Fn(&[f64]) -> Result<Vec<f64>> + '_ {
        move |r| {
            Ok(r.iter()
                .enumerate()
                .map(|(i, ri)| c * ri / a.get(i, i))
                .collect())
        }
    }

    #[test]
    fn well_conditioned_system_takes_no_rounds() {
        let csr = grid_laplacian(12, 9).to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..csr.nrows()).map(|i| (0.37 * i as f64).sin()).collect();
        let got = lu.solve_refined(&csr, &b).unwrap();
        assert_eq!(got.rounds, 0, "berr {:e}", got.berr);
        assert!(got.met());
        assert_eq!(got.x, lu.solve(&b).unwrap());
        assert_eq!(got.berr, csr.backward_error(&b, &got.x).unwrap());
    }

    #[test]
    fn rows_with_a_zero_denominator_contribute_nothing() {
        // Two decoupled grids; the second one's right-hand side is zero,
        // so its solution is exactly zero and each of its rows has
        // |A|·|x| + |b| = 0. xGERFS's raw `safe1` guard would score each
        // of them 1 and fail the solve.
        let g = grid_laplacian(7, 7);
        let m = g.nrows();
        let mut t = Triplets::new(2 * m, 2 * m);
        for &(i, j, v) in g.entries() {
            t.push(i, j, v);
            t.push(m + i, m + j, v);
        }
        let csr = t.to_csr();
        let mut b = vec![0.0; 2 * m];
        for (i, bi) in b.iter_mut().take(m).enumerate() {
            *bi = 1.0 + (0.3 * i as f64).cos();
        }
        let lu = SparseLu::factor(&csr).unwrap();
        let got = lu.solve_refined(&csr, &b).unwrap();
        assert!(got.x[m..].iter().all(|v| *v == 0.0));
        assert_eq!(got.rounds, 0, "berr {:e}", got.berr);
        assert!(got.met(), "berr {:e}", got.berr);
        // The zero rows leave the measure of the live half unchanged.
        let live = grid_laplacian(7, 7).to_csr();
        assert_eq!(got.berr, live.backward_error(&b[..m], &got.x[..m]).unwrap());
    }

    #[test]
    fn refinement_stops_at_the_round_cap() {
        // Each correction divides the error by 10: berr halves every
        // round but is still ≈ 5e-7 after the fifth.
        let (a, b) = diagonal_system(6);
        let got = refine(&a, &b, damped_inverse(&a, 0.9)).unwrap();
        assert_eq!(got.rounds, REFINE_MAX_ROUNDS);
        assert!(!got.met() && got.berr > 1e-8, "berr {:e}", got.berr);
        assert!(matches!(
            got.clone().into_met(),
            Err(NumericError::BackwardErrorAboveTolerance { berr, tol })
                if berr == got.berr && tol == REFINE_TOL
        ));
    }

    #[test]
    fn refinement_stops_when_berr_fails_to_halve() {
        // Each correction multiplies the error by 0.6: the first round
        // runs, and its berr is more than half the last one.
        let (a, b) = diagonal_system(6);
        let solve = damped_inverse(&a, 0.4);
        let first = a.backward_error(&b, &solve(&b).unwrap()).unwrap();
        let got = refine(&a, &b, solve).unwrap();
        assert_eq!(got.rounds, 1);
        assert!(
            got.berr > 0.5 * first && got.berr < first,
            "{:e} vs {first:e}",
            got.berr
        );
        assert!(!got.met());
    }

    #[test]
    fn complex_entries_are_measured_with_cabs1() {
        // A = 1 + i, b = 2, x = 1 − i + δ: r = −δ(1 + i). With cabs1,
        // berr = 2δ / (2·(2 + δ) + 2); `hypot` magnitudes would give
        // √2·δ / (√2·|x| + 2), about 6 % more.
        let delta = 2f64.powi(-30);
        let mut t: Triplets<Complex64> = Triplets::new(1, 1);
        t.push(0, 0, Complex64::new(1.0, 1.0));
        let a = t.to_csr();
        let b = [Complex64::new(2.0, 0.0)];
        let x = [Complex64::new(1.0 + delta, -1.0)];
        let want = 2.0 * delta / (2.0 * (2.0 + delta) + 2.0);
        let got = a.backward_error(&b, &x).unwrap();
        assert!((got - want).abs() <= 1e-15 * want, "{got:e} vs {want:e}");
    }

    /// A NaN in `b` makes the unknowns it reaches NaN; their rows must
    /// score NaN, and a later finite row must not hide it.
    #[test]
    fn nan_solutions_miss_the_tolerance() {
        // A 60 × 1 grid is tridiagonal: the NaN spreads to every unknown.
        let tridiagonal = (grid_laplacian(60, 1).to_csr(), vec![1.0; 60]);
        for (name, (a, mut b), at) in [
            ("tridiagonal", tridiagonal, 3),
            ("diagonal", diagonal_system(6), 0),
        ] {
            b[at] = f64::NAN;
            let lu = SparseLu::factor(&a).unwrap();
            let got = lu.solve_refined(&a, &b).unwrap();
            assert!(got.x.iter().any(|v| v.is_nan()), "{name}: premise");
            assert!(got.berr.is_nan(), "{name}: berr {:e}", got.berr);
            assert!(!got.met(), "{name}");
            assert_eq!(got.rounds, 0, "{name}");
            assert!(matches!(
                got.into_met(),
                Err(NumericError::BackwardErrorAboveTolerance { berr, .. }) if berr.is_nan()
            ));
        }
        // An infinite right-hand side entry is no better.
        let (a, mut b) = diagonal_system(6);
        b[5] = f64::INFINITY;
        let x: Vec<f64> = (0..6).map(|i| b[i] / a.get(i, i)).collect();
        assert!(a.backward_error(&b, &x).unwrap().is_nan());
    }

    #[test]
    fn mismatched_operands_are_typed() {
        let a = grid_laplacian(3, 3).to_csr();
        assert!(matches!(
            refine(&a, &[1.0; 4], |r| Ok(r.to_vec())),
            Err(NumericError::DimensionMismatch {
                expected: 9,
                found: 4
            })
        ));
        assert!(matches!(
            refine(&a, &[1.0; 9], |_| Ok(vec![0.0; 2])),
            Err(NumericError::DimensionMismatch {
                expected: 9,
                found: 2
            })
        ));
        assert!(a.backward_error(&[1.0; 9], &[1.0; 8]).is_err());
    }
}
