//! Differential suite for the eigensolver on the matrices the Section-4
//! study feeds it: the Medium clock/grid partial-inductance matrix and
//! its truncation, halo, shell and K-matrix sparsifications.
//!
//! `extreme_eigenvalues` (Householder tridiagonalization + Sturm
//! bisection) must match the first and last values of the cyclic Jacobi
//! oracle to `REL_TOL·max|λ|` on every matrix, and `stability_report`
//! must give the oracle's positive-definiteness verdict.

use ind101_bench::{clock_case, Scale};
use ind101_numeric::{extreme_eigenvalues, jacobi_eigenvectors, Matrix};
use ind101_sparsify::halo::halo_sparsify;
use ind101_sparsify::kmatrix::k_sparsify;
use ind101_sparsify::shell::shell_auto_radius;
use ind101_sparsify::stability_report;
use ind101_sparsify::truncation::truncate_relative;

/// Largest allowed |Δλ| between solver and oracle, relative to the
/// spectral radius.
const REL_TOL: f64 = 1e-12;
/// Relative-truncation thresholds: a light and an aggressive screen.
const TRUNCATIONS: [f64; 2] = [0.05, 0.3];
/// Shell radius search stops at this retention (as in the Sec-4 study).
const SHELL_MAX_RETENTION: f64 = 0.6;
/// K-matrix truncation threshold (as in the Sec-4 study).
const K_MIN: f64 = 0.02;

#[test]
fn medium_sec4_matrices_match_jacobi_oracle() {
    let case = clock_case(Scale::Medium);
    let l = &case.par.partial_l;
    let mut cases: Vec<(String, Matrix<f64>)> = vec![("full".to_owned(), l.matrix().clone())];
    for k in TRUNCATIONS {
        cases.push((format!("truncate {k}"), truncate_relative(l, k).matrix));
    }
    cases.push(("halo".to_owned(), halo_sparsify(l, &case.par.layout).matrix));
    cases.push((
        "shell".to_owned(),
        shell_auto_radius(l, SHELL_MAX_RETENTION).1.matrix,
    ));
    cases.push((
        "k-matrix".to_owned(),
        k_sparsify(l, K_MIN).unwrap().effective_l.matrix,
    ));

    let mut verdicts = Vec::new();
    for (name, m) in &cases {
        let (lo, hi) = extreme_eigenvalues(m).unwrap();
        let want = jacobi_eigenvectors(m).unwrap().values;
        let radius = want.iter().fold(0.0f64, |r, x| r.max(x.abs()));
        for (which, g, w) in [("λ_min", lo, want[0]), ("λ_max", hi, want[want.len() - 1])] {
            assert!(
                (g - w).abs() <= REL_TOL * radius,
                "{name}: {which} = {g:e}, oracle {w:e} (λ_max {radius:e})"
            );
        }
        let pd = stability_report(m).positive_definite;
        assert_eq!(
            pd,
            want[0] > 0.0,
            "{name}: PD verdict differs from the oracle's"
        );
        verdicts.push(pd);
    }
    // The Medium case is large enough for a screen to lose definiteness,
    // so both verdicts are exercised.
    assert!(
        verdicts.contains(&true) && verdicts.contains(&false),
        "{verdicts:?}"
    );
}
