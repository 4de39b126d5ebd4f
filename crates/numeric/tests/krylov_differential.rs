//! Oracle-differential wall for the Krylov solver.
//!
//! Every GMRES solve here is cross-checked against the blocked dense
//! LU factorization on the same system: random SPD, complex-symmetric,
//! and deliberately ill-conditioned matrices.
//! Agreement is asserted to ≤ 1e-9 relative; deliberate
//! non-convergence cases assert the *typed* `KrylovError` — an
//! iterative path must fail loudly, never return a silently wrong
//! answer.

use ind101_numeric::{
    gmres, norm2, Complex64, IdentityPreconditioner, JacobiPreconditioner, KrylovError,
    KrylovOptions, Matrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random symmetric positive-definite matrix: Aᵀ·A + n·I.
fn random_spd(n: usize, rng: &mut StdRng) -> Matrix<f64> {
    let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    Matrix::from_fn(n, n, |i, j| {
        let mut acc = if i == j { n as f64 } else { 0.0 };
        for k in 0..n {
            acc += b[(k, i)] * b[(k, j)];
        }
        acc
    })
}

/// Random complex-symmetric (NOT Hermitian) diagonally dominant matrix
/// — the structure of an MNA AC matrix `G + jωC`.
fn random_complex_symmetric(n: usize, rng: &mut StdRng) -> Matrix<Complex64> {
    let mut a = Matrix::from_fn(n, n, |_, _| Complex64::ZERO);
    for i in 0..n {
        for j in i..n {
            let v = Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    for i in 0..n {
        a[(i, i)] += Complex64::new(2.0 * n as f64, n as f64);
    }
    a
}

fn random_vec(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn assert_close_f64(got: &[f64], want: &[f64], tol: f64, what: &str) {
    let scale = norm2(want).max(1.0);
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() <= tol * scale,
            "{what}: {g} vs {w} (scale {scale})"
        );
    }
}

#[test]
fn gmres_matches_lu_on_random_spd() {
    let mut rng = StdRng::seed_from_u64(61);
    for n in [8usize, 33, 96] {
        let a = random_spd(n, &mut rng);
        let b = random_vec(n, &mut rng);
        let oracle = a.lu().unwrap().solve(&b).unwrap();
        let sol = gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default())
            .unwrap();
        assert_close_f64(&sol.x, &oracle, 1e-9, &format!("gmres spd n={n}"));
        assert!(sol.residual <= 1e-10 * norm2(&b) + f64::EPSILON);
    }
}

#[test]
fn gmres_matches_lu_on_complex_symmetric() {
    let mut rng = StdRng::seed_from_u64(63);
    for n in [6usize, 24, 64] {
        let a = random_complex_symmetric(n, &mut rng);
        let b: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let oracle = a.lu().unwrap().solve(&b).unwrap();
        let sol = gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default())
            .unwrap();
        let scale: f64 = oracle.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt().max(1.0);
        for (g, w) in sol.x.iter().zip(&oracle) {
            assert!(
                (*g - *w).abs() <= 1e-9 * scale,
                "complex n={n}: {g} vs {w}"
            );
        }
    }
}

#[test]
fn preconditioned_gmres_handles_ill_conditioned_system() {
    // Wild diagonal scaling (condition number ~1e8) defeats plain
    // GMRES at default budgets; Jacobi restores it. The oracle is LU
    // with iterative refinement-quality pivoting.
    let n = 80usize;
    let mut rng = StdRng::seed_from_u64(64);
    let a = Matrix::from_fn(n, n, |i, j| {
        let scale = 10f64.powf(8.0 * i as f64 / (n - 1) as f64);
        if i == j {
            scale
        } else if i.abs_diff(j) == 1 {
            0.1 * scale
        } else {
            0.0
        }
    });
    let b = random_vec(n, &mut rng);
    let oracle = a.lu().unwrap().solve(&b).unwrap();
    let m = JacobiPreconditioner::from_matrix(&a);
    let sol = gmres(&a, &b, None, &m, &KrylovOptions::default()).unwrap();
    // Compare via relative error per component magnitude class: the
    // tiny-magnitude tail entries dominate the solution norm, so a
    // norm-relative check is meaningful here.
    assert_close_f64(&sol.x, &oracle, 1e-9, "ill-conditioned jacobi gmres");
}

#[test]
fn warm_start_cuts_iterations() {
    let n = 60usize;
    let mut rng = StdRng::seed_from_u64(66);
    let a = random_spd(n, &mut rng);
    let b = random_vec(n, &mut rng);
    let opts = KrylovOptions::default();
    let cold = gmres(&a, &b, None, &IdentityPreconditioner, &opts).unwrap();
    // Perturbed solution as warm start — models the previous frequency
    // point of an AC sweep.
    let x0: Vec<f64> = cold.x.iter().map(|v| v * 1.001).collect();
    let warm = gmres(&a, &b, Some(&x0), &IdentityPreconditioner, &opts).unwrap();
    assert!(
        warm.iterations < cold.iterations,
        "warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
    let oracle = a.lu().unwrap().solve(&b).unwrap();
    assert_close_f64(&warm.x, &oracle, 1e-9, "warm-start gmres");
}

#[test]
fn iteration_cap_returns_typed_error_not_wrong_answer() {
    let n = 50usize;
    let mut rng = StdRng::seed_from_u64(67);
    let a = random_spd(n, &mut rng);
    let b = random_vec(n, &mut rng);
    let opts = KrylovOptions {
        tol: 1e-13,
        max_iters: 4,
        restart: 2,
    };
    match gmres(&a, &b, None, &IdentityPreconditioner, &opts) {
        Err(KrylovError::IterationCap {
            iterations,
            residual,
            target,
        }) => {
            assert!(iterations <= 4);
            assert!(residual > target);
        }
        other => panic!("expected IterationCap, got {other:?}"),
    }
}

#[test]
fn singular_system_stagnates_with_typed_error() {
    // Rank-deficient operator with b outside the range: the residual
    // has a floor, so GMRES must report Stagnation, not "converge".
    let n = 20usize;
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j && i + 2 < n {
            1.0 + i as f64 * 0.1
        } else {
            0.0
        }
    });
    let b = vec![1.0; n];
    match gmres(&a, &b, None, &IdentityPreconditioner, &KrylovOptions::default()) {
        Err(KrylovError::Stagnation { residual, .. }) => {
            // Two null rows with b-components of 1 each → floor √2.
            assert!(residual >= 1.0, "residual floor, got {residual}");
        }
        other => panic!("expected Stagnation, got {other:?}"),
    }
}

#[test]
fn residuals_are_true_residuals() {
    // The reported residual must equal ‖b − A·x‖ of the returned x —
    // not the preconditioned or least-squares estimate.
    let n = 40usize;
    let mut rng = StdRng::seed_from_u64(68);
    let a = random_spd(n, &mut rng);
    let b = random_vec(n, &mut rng);
    let m = JacobiPreconditioner::from_matrix(&a);
    let sol = gmres(&a, &b, None, &m, &KrylovOptions::default()).unwrap();
    let mut r = vec![0.0f64; n];
    ind101_numeric::LinearOperator::apply(&a, &sol.x, &mut r);
    for (ri, bi) in r.iter_mut().zip(&b) {
        *ri = bi - *ri;
    }
    let true_res = norm2(&r);
    assert!(
        (sol.residual - true_res).abs() <= 1e-12 + 1e-6 * true_res,
        "reported {} vs true {}",
        sol.residual,
        true_res
    );
}
