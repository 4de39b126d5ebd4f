//! Differential suite for the extreme-eigenvalue solver.
//!
//! `extreme_eigenvalues` (Householder reduction, then Sturm bisection)
//! is checked against the first and last values of the cyclic Jacobi
//! oracle (`jacobi_eigenvectors`) on random symmetric, SPD Gram and
//! rank-deficient matrices, plus hand-built hard cases: a clustered
//! spectrum, one clustered at both ends, a graded diagonal, a reducible
//! tridiagonal and degenerate shapes. Every case must agree with the
//! oracle to `REL_TOL·max|λ|` and bracket the diagonal
//! (`λ_min ≤ a_ii ≤ λ_max`).

use ind101_numeric::{extreme_eigenvalues, jacobi_eigenvectors, mgs_orthonormalize, Matrix};
use proptest::prelude::*;

/// Largest allowed |Δλ| between solver and oracle, relative to the
/// spectral radius.
const REL_TOL: f64 = 1e-12;
/// Largest dimension the random strategies draw.
const MAX_N: usize = 40;

/// Deterministic uniform draws in [-0.5, 0.5) from `seed`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }
}

/// Random symmetric `n × n` matrix.
fn random_symmetric(seed: u64, n: usize) -> Matrix<f64> {
    let raw = Matrix::from_fn(n, n, {
        let mut next = uniform(seed);
        move |_, _| next()
    });
    Matrix::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)])
}

/// Gram matrix `B·Bᵀ` of a random `n × r` factor: SPD for `r ≥ n`,
/// rank `r` (so `n − r` zero eigenvalues) for `r < n`.
fn gram(seed: u64, n: usize, r: usize) -> Matrix<f64> {
    let b = Matrix::from_fn(n, r, {
        let mut next = uniform(seed);
        move |_, _| next()
    });
    b.matmul(&b.transpose()).unwrap()
}

/// Compares the solver with the Jacobi oracle on `a` and returns its
/// `(λ_min, λ_max)` and the tolerance `REL_TOL·max|λ|`, or the first
/// violated property as an error message.
fn differential(a: &Matrix<f64>) -> Result<((f64, f64), f64), String> {
    let n = a.nrows();
    let got = extreme_eigenvalues(a).map_err(|e| format!("solver failed: {e}"))?;
    let want = jacobi_eigenvectors(a)
        .map_err(|e| format!("oracle failed: {e}"))?
        .values;
    let radius = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tol = REL_TOL * radius;
    if n == 0 {
        return if got == (f64::INFINITY, f64::NEG_INFINITY) {
            Ok((got, tol))
        } else {
            Err(format!("{got:?} for the empty matrix"))
        };
    }
    for (name, g, w) in [("λ_min", got.0, want[0]), ("λ_max", got.1, want[n - 1])] {
        if (g - w).abs() > tol {
            return Err(format!(
                "{name} = {g:e}, oracle {w:e}: |Δλ| = {:e} > {tol:e}",
                (g - w).abs()
            ));
        }
    }
    // Rayleigh quotients of the unit vectors: λ_min ≤ a_ii ≤ λ_max.
    if let Some(i) = (0..n).find(|&i| !(got.0 - tol <= a[(i, i)] && a[(i, i)] <= got.1 + tol)) {
        return Err(format!("a[{i}][{i}] = {:e} outside {got:?}", a[(i, i)]));
    }
    Ok((got, tol))
}

fn assert_differential(a: &Matrix<f64>) -> (f64, f64) {
    match differential(a) {
        Ok((got, _)) => got,
        Err(msg) => panic!("{msg}"),
    }
}

proptest! {
    #[test]
    fn random_symmetric_matches_oracle(seed in 0u64..1_000_000, n in 1usize..MAX_N + 1) {
        let r = differential(&random_symmetric(seed, n));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn spd_gram_matches_oracle(seed in 0u64..1_000_000, n in 1usize..MAX_N + 1) {
        let r = differential(&gram(seed, n, n + 2));
        prop_assert!(r.is_ok(), "{}", r.as_ref().unwrap_err());
        prop_assert!(r.unwrap().0 .0 > 0.0);
    }

    #[test]
    fn rank_deficient_gram_matches_oracle(
        seed in 0u64..1_000_000,
        n in 2usize..MAX_N + 1,
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((rank_frac * n as f64) as usize).min(n - 1);
        let r = differential(&gram(seed, n, rank));
        prop_assert!(r.is_ok(), "{}", r.as_ref().unwrap_err());
        // The n − rank null directions put λ_min at zero to within
        // tolerance.
        let ((lo, _), tol) = r.unwrap();
        prop_assert!(lo.abs() <= tol, "λ_min = {lo:e}, tolerance {tol:e}");
    }
}

#[test]
fn clustered_spectrum_matches_oracle() {
    // Nearly-degenerate eigenvalues: a tridiagonal-plus-noise matrix
    // whose spectrum sits within 1e-6 of 1.
    let n = MAX_N;
    let noise = random_symmetric(7, n);
    let a = Matrix::from_fn(n, n, |i, j| {
        let base = if i == j { 1.0 + 1e-8 * i as f64 } else { 0.0 };
        base + 1e-9 * noise[(i, j)]
    });
    assert_differential(&a);
}

#[test]
fn spectrum_clustered_at_both_ends_matches_oracle() {
    // Q·diag(λ)·Qᵀ with a random orthogonal Q and half the spectrum
    // within 2e-11 of each end: 1 and 9.
    let n = MAX_N;
    let q = mgs_orthonormalize(&random_symmetric(13, n));
    assert_eq!(q.ncols(), n);
    let lambda: Vec<f64> = (0..n)
        .map(|k| {
            if k < n / 2 {
                1.0 + 1e-12 * k as f64
            } else {
                9.0 - 1e-12 * (n - 1 - k) as f64
            }
        })
        .collect();
    let a = Matrix::from_fn(n, n, |i, j| {
        (0..n).map(|k| q[(i, k)] * lambda[k] * q[(j, k)]).sum()
    });
    let (lo, hi) = assert_differential(&a);
    assert!(
        (lo - 1.0).abs() <= 1e-12 * 9.0 && (hi - 9.0).abs() <= 1e-12 * 9.0,
        "{lo} {hi}"
    );
}

#[test]
fn reducible_tridiagonal_matches_oracle() {
    // Already tridiagonal, with zero sub-diagonal entries splitting it
    // into [[2,1],[1,2]] (1, 3), [−5] and [[10,3],[3,1]] (5.5 ± √29.25):
    // the extremes come from different blocks.
    let d = [2.0, 2.0, -5.0, 10.0, 1.0];
    let e = [1.0, 0.0, 0.0, 3.0];
    let a = Matrix::from_fn(5, 5, |i, j| match i.abs_diff(j) {
        0 => d[i],
        1 => e[i.min(j)],
        _ => 0.0,
    });
    let (lo, hi) = assert_differential(&a);
    assert!((lo + 5.0).abs() <= 1e-14 && (hi - (5.5 + 29.25f64.sqrt())).abs() <= 1e-14);
}

#[test]
fn graded_diagonal_matches_oracle() {
    // Diagonal graded from 1e-12 to 1, coupled by a symmetric term that
    // scales with the geometric mean of the two diagonals.
    let n = MAX_N;
    let d: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-12.0 + 12.0 * i as f64 / (n - 1) as f64))
        .collect();
    let noise = random_symmetric(11, n);
    let a = Matrix::from_fn(n, n, |i, j| {
        let coupling = 0.1 * noise[(i, j)] * (d[i] * d[j]).sqrt();
        if i == j {
            d[i]
        } else {
            coupling
        }
    });
    assert_differential(&a);
    let pure = Matrix::from_fn(n, n, |i, j| if i == j { d[i] } else { 0.0 });
    assert_eq!(assert_differential(&pure), (d[0], d[n - 1]));
}

#[test]
fn degenerate_shapes_match_oracle() {
    // Zero spectra leave a zero tolerance, so these must match exactly.
    for n in [0, 1, 5] {
        assert_differential(&Matrix::zeros(n, n));
    }
    let one = Matrix::from_rows(&[&[-3.5]]);
    assert_eq!(assert_differential(&one), (-3.5, -3.5));
    let diag = Matrix::from_fn(6, 6, |i, j| if i == j { 3.0 - i as f64 } else { 0.0 });
    assert_eq!(assert_differential(&diag), (-2.0, 3.0));
}
