//! Differential suite for the Householder-tridiagonal QL eigensolver.
//!
//! `symmetric_eigenvalues` is checked against the cyclic Jacobi oracle
//! (`jacobi_eigenvectors`) on random symmetric, SPD Gram and
//! rank-deficient matrices, plus hand-built hard cases: a clustered
//! spectrum, a graded diagonal and degenerate shapes. Every case must
//! come out ascending, agree with the oracle to `REL_TOL·max|λ|`, and
//! sum to the trace.

use ind101_numeric::{jacobi_eigenvectors, symmetric_eigenvalues, Matrix};
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

/// Compares the solver with the Jacobi oracle on `a`; returns the first
/// violated property as an error message.
fn differential(a: &Matrix<f64>) -> Result<(), String> {
    let n = a.nrows();
    let got = symmetric_eigenvalues(a).map_err(|e| format!("solver failed: {e}"))?;
    let want = jacobi_eigenvectors(a)
        .map_err(|e| format!("oracle failed: {e}"))?
        .values;
    if got.len() != n {
        return Err(format!("{} eigenvalues for n = {n}", got.len()));
    }
    if let Some(w) = got.windows(2).find(|w| w[0] > w[1]) {
        return Err(format!("not ascending: {} > {}", w[0], w[1]));
    }
    let radius = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tol = REL_TOL * radius;
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        if (g - w).abs() > tol {
            return Err(format!(
                "λ[{k}] = {g:e}, oracle {w:e}: |Δλ| = {:e} > {tol:e}",
                (g - w).abs()
            ));
        }
    }
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    let sum: f64 = got.iter().sum();
    if (sum - trace).abs() > tol {
        return Err(format!("Σλ = {sum:e} but trace = {trace:e}"));
    }
    Ok(())
}

fn assert_differential(a: &Matrix<f64>) {
    if let Err(msg) = differential(a) {
        panic!("{msg}");
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
        let a = gram(seed, n, n + 2);
        let r = differential(&a);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        prop_assert!(symmetric_eigenvalues(&a).unwrap()[0] > 0.0);
    }

    #[test]
    fn rank_deficient_gram_matches_oracle(
        seed in 0u64..1_000_000,
        n in 2usize..MAX_N + 1,
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((rank_frac * n as f64) as usize).min(n - 1);
        let a = gram(seed, n, rank);
        let r = differential(&a);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        // The n − rank null directions stay at zero to within tolerance.
        let ev = symmetric_eigenvalues(&a).unwrap();
        let radius = ev.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let near_zero = ev.iter().filter(|x| x.abs() <= REL_TOL * radius.max(1.0)).count();
        prop_assert!(near_zero >= n - rank, "{near_zero} null eigenvalues, want {}", n - rank);
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
    assert_differential(&pure);
    assert_eq!(symmetric_eigenvalues(&pure).unwrap(), d);
}

#[test]
fn degenerate_shapes_match_oracle() {
    // Zero spectra leave a zero tolerance, so these must match exactly.
    for n in [0, 1, 5] {
        assert_differential(&Matrix::zeros(n, n));
    }
    let one = Matrix::from_rows(&[&[-3.5]]);
    assert_differential(&one);
    assert_eq!(symmetric_eigenvalues(&one).unwrap(), vec![-3.5]);
    let diag = Matrix::from_fn(6, 6, |i, j| if i == j { 3.0 - i as f64 } else { 0.0 });
    assert_differential(&diag);
    assert_eq!(
        symmetric_eigenvalues(&diag).unwrap(),
        vec![-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    );
}
