//! Property-based tests for the linear-algebra substrate.

use ind101_numeric::{extreme_eigenvalues, mgs_orthonormalize, Complex64, Matrix, Triplets};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(|x| (x % 10.0) / 1.0).prop_filter("finite", |x| x.is_finite())
}

fn complex() -> impl Strategy<Value = Complex64> {
    (small_f64(), small_f64()).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #[test]
    fn complex_field_axioms(a in complex(), b in complex(), c in complex()) {
        let assoc = (a + b) + c - (a + (b + c));
        prop_assert!(assoc.abs() < 1e-9 * (1.0 + a.abs() + b.abs() + c.abs()));
        let comm = a * b - b * a;
        prop_assert!(comm.abs() < 1e-12 * (1.0 + (a * b).abs()));
        // Distributivity within roundoff.
        let d = a * (b + c) - (a * b + a * c);
        prop_assert!(d.abs() < 1e-9 * (1.0 + a.abs() * (b.abs() + c.abs())));
    }

    #[test]
    fn complex_division_inverts_multiplication(a in complex(), b in complex()) {
        prop_assume!(b.abs() > 1e-6);
        let q = (a * b) / b;
        prop_assert!((q - a).abs() < 1e-8 * (1.0 + a.abs()));
    }

    #[test]
    fn conjugate_is_involutive_and_norm_preserving(a in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
        prop_assert!((a.conj().abs() - a.abs()).abs() < 1e-12);
    }

    #[test]
    fn lu_solve_residual_small(
        seed in 0u64..1000,
        n in 2usize..12,
    ) {
        let mut s = seed.wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn spd_gram_matrix_cholesky_succeeds(seed in 0u64..500, n in 1usize..10) {
        let mut s = seed.wrapping_add(7);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99991);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        // A = B·Bᵀ + εI is SPD by construction.
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += 0.1;
        }
        prop_assert!(a.is_positive_definite());
        // All eigenvalues must be positive too.
        let (lo, _) = extreme_eigenvalues(&a).unwrap();
        prop_assert!(lo > 0.0);
    }

    #[test]
    fn eigenvalue_extremes_bracket_the_mean_eigenvalue(seed in 0u64..200, n in 1usize..9) {
        let mut s = seed.wrapping_add(13);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(77);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let raw = Matrix::from_fn(n, n, |_, _| next());
        let a = Matrix::from_fn(n, n, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));
        let (lo, hi) = extreme_eigenvalues(&a).unwrap();
        // trace/n is the mean eigenvalue.
        let mean = (0..n).map(|i| a[(i, i)]).sum::<f64>() / n as f64;
        prop_assert!(lo - 1e-12 <= mean && mean <= hi + 1e-12, "{lo} {mean} {hi}");
    }

    #[test]
    fn mgs_output_is_orthonormal(seed in 0u64..200, n in 1usize..8, k in 1usize..6) {
        let mut s = seed.wrapping_add(29);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let m = Matrix::from_fn(n, k, |_, _| next());
        let q = mgs_orthonormalize(&m);
        prop_assert!(q.ncols() <= n.min(k));
        let g = q.transpose().matmul(&q).unwrap();
        let id = Matrix::identity(q.ncols());
        prop_assert!((&g - &id).max_abs() < 1e-9);
    }

    #[test]
    fn csr_matvec_is_linear(seed in 0u64..100, n in 1usize..12) {
        let mut s = seed.wrapping_add(41);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(9);
            ((s >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if next() > 0.2 {
                    t.push(i, j, next());
                }
            }
        }
        let a = t.to_csr();
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let alpha = next();
        // A(αx + y) = αAx + Ay
        let lhs_in: Vec<f64> = x.iter().zip(&y).map(|(u, v)| alpha * u + v).collect();
        let lhs = a.matvec(&lhs_in).unwrap();
        let ax = a.matvec(&x).unwrap();
        let ay = a.matvec(&y).unwrap();
        for i in 0..n {
            prop_assert!((lhs[i] - (alpha * ax[i] + ay[i])).abs() < 1e-9);
        }
    }
}
